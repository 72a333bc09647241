package itcam

// Incremental model evolution for the streaming ingest loop: Grow
// widens the interval/item dimensions against frozen parameters,
// FitNewInterval estimates a fresh interval's temporal context from its
// ratings alone, and FoldInUsers fits new users' θu/λu by partial EM
// with every global parameter frozen. None of the three mutates the
// receiver — Grow returns an extended copy, and FoldInUsers a model that
// shares the receiver's frozen slabs and owns fresh θ and λ — so the
// boot model stays a frozen base the updater can re-derive every
// snapshot from.

import (
	"fmt"
	"sort"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// FoldInConfig parameterizes FoldInUsers.
type FoldInConfig struct {
	// Iters is the number of partial-EM rounds for the new users'
	// interests and mixing weights.
	Iters int
	// Smoothing is the additive epsilon for the θ row normalization,
	// matching the batch trainer's Config.Smoothing.
	Smoothing float64
	// Shards/Workers mirror the batch trainer's knobs; neither affects
	// the folded parameters (per-user statistics live in private rows).
	Shards  int
	Workers int
}

// DefaultFoldInConfig mirrors DefaultConfig's smoothing with a short
// partial-EM budget — new users have few events, so θu converges in a
// handful of rounds.
func DefaultFoldInConfig() FoldInConfig {
	return FoldInConfig{Iters: 5, Smoothing: 1e-9}
}

// FitNewInterval estimates the temporal context θ't of a previously
// unseen interval from its ratings alone. For ITCAM the context is a
// multinomial directly over items, so — with every other parameter
// frozen — the partial-EM update is closed-form: the smoothed empirical
// item distribution of the interval, exactly the estimator initialize
// seeds training intervals with. ratings maps dense item index (under
// a catalog of numItems ≥ the trained size, to admit items newer than
// the model) to accumulated score; out-of-range or non-positive
// entries are dropped. The returned row has length numItems.
func (m *Model) FitNewInterval(ratings map[int]float64, numItems int) []float64 {
	if numItems < m.numItems {
		numItems = m.numItems
	}
	row := make([]float64, numItems)
	// Distinct keys write distinct slots, but iterate sorted anyway so
	// nothing about the result can leak map order.
	items := make([]int, 0, len(ratings))
	for v := range ratings {
		items = append(items, v)
	}
	sort.Ints(items)
	for _, v := range items {
		if w := ratings[v]; v >= 0 && v < numItems && w > 0 {
			row[v] += w
		}
	}
	model.NormalizeRows(row, numItems, 1e-6)
	return row
}

// Grow returns a copy of the model widened to numIntervals intervals
// and numItems items. Existing topic and context rows are re-laid out
// with zero probability on the new items (a new item is only reachable
// through the temporal contexts that observed it, until a full
// retrain); newContexts supplies the θ't row of each appended interval
// in order — length numItems each, typically from FitNewInterval —
// so numIntervals must equal NumIntervals()+len(newContexts).
func (m *Model) Grow(numIntervals, numItems int, newContexts [][]float64) (*Model, error) {
	if numItems < m.numItems {
		return nil, fmt.Errorf("itcam: cannot shrink items %d -> %d", m.numItems, numItems)
	}
	if numIntervals != m.numIntervals+len(newContexts) {
		return nil, fmt.Errorf("itcam: %d intervals need %d new contexts, got %d",
			numIntervals, numIntervals-m.numIntervals, len(newContexts))
	}
	if cells := numIntervals * numItems; cells > maxDenseCells {
		return nil, fmt.Errorf("itcam: dense temporal context needs %d cells (max %d); use ttcam for large catalogs", cells, maxDenseCells)
	}
	for i, ctx := range newContexts {
		if len(ctx) != numItems {
			return nil, fmt.Errorf("itcam: new context %d has %d items, want %d", i, len(ctx), numItems)
		}
	}
	out := &Model{
		label:        m.label,
		numUsers:     m.numUsers,
		numIntervals: numIntervals,
		numItems:     numItems,
		k1:           m.k1,
		theta:        append([]float64(nil), m.theta...),
		phi:          make([]float64, m.k1*numItems),
		thetaT:       make([]float64, numIntervals*numItems),
		lambda:       append([]float64(nil), m.lambda...),
	}
	for z := 0; z < m.k1; z++ {
		copy(out.phi[z*numItems:], m.phi[z*m.numItems:(z+1)*m.numItems])
	}
	for t := 0; t < m.numIntervals; t++ {
		copy(out.thetaT[t*numItems:], m.thetaT[t*m.numItems:(t+1)*m.numItems])
	}
	for i, ctx := range newContexts {
		copy(out.thetaT[(m.numIntervals+i)*numItems:], ctx)
	}
	return out, nil
}

// FoldInUsers returns the model extended to data.NumUsers() users.
// Users [NumUsers(), data.NumUsers()) start from the uniform interest
// and λ=1/2, then run cfg.Iters rounds of partial EM over their own
// cells with φ and θ' frozen — through the same accumulator and shard
// machinery as batch training, so folding in user u is bit-identical to
// batch EM restricted to u against the same frozen globals. data's
// interval/item dimensions must match the model (Grow first when the
// stream widened them); its cells for already-trained users are
// ignored.
//
// The result shares φ and θ' with the receiver rather than copying
// them: fold-in never writes a global parameter, and a model is not
// mutated once built. Only θ and λ are allocated fresh, and only the
// item-major φ rows of the items the folded users rated are
// transposed, so the cost scales with the new users' cells, not with
// the catalog.
func (m *Model) FoldInUsers(data *cuboid.Cuboid, cfg FoldInConfig) (*Model, error) {
	if data.NumIntervals() != m.numIntervals || data.NumItems() != m.numItems {
		return nil, fmt.Errorf("itcam: fold-in cuboid is %d intervals × %d items, model has %d × %d",
			data.NumIntervals(), data.NumItems(), m.numIntervals, m.numItems)
	}
	oldN, n := m.numUsers, data.NumUsers()
	if n < oldN {
		return nil, fmt.Errorf("itcam: fold-in cuboid has %d users, model already has %d", n, oldN)
	}
	out := *m
	out.numUsers = n
	out.theta = make([]float64, n*m.k1)
	copy(out.theta, m.theta)
	for i := oldN * m.k1; i < len(out.theta); i++ {
		out.theta[i] = 1 / float64(m.k1)
	}
	out.lambda = make([]float64, n)
	copy(out.lambda, m.lambda)
	for u := oldN; u < n; u++ {
		out.lambda[u] = 0.5
	}
	if n == oldN {
		return &out, nil
	}
	tr := &trainer{
		m:      &out,
		data:   data,
		cfg:    Config{K1: out.k1, MaxIters: 1, Smoothing: cfg.Smoothing},
		theta:  make([]float64, len(out.theta)),
		lamNum: make([]float64, n),
		lamDen: make([]float64, n),
		phiT:   make([]float64, len(out.phi)),
	}
	tr.transposeRated(oldN, n)
	if _, err := train.FoldIn(tr, oldN, n, train.FoldInConfig{
		Iters:   cfg.Iters,
		Shards:  cfg.Shards,
		Workers: cfg.Workers,
	}); err != nil {
		return nil, err
	}
	return &out, nil
}

// transposeRated fills the item-major φ rows of the items users
// [lo, hi) rated — the only rows their E-step reads — with the values
// refreshPhiT would write there. The other rows stay zero.
func (tr *trainer) transposeRated(lo, hi int) {
	m := tr.m
	k1, V := m.k1, m.numItems
	_, vs, _ := tr.data.CSR()
	clo, _ := tr.data.UserSpan(lo)
	_, chi := tr.data.UserSpan(hi - 1)
	for _, v32 := range vs[clo:chi] {
		v := int(v32)
		for z := 0; z < k1; z++ {
			tr.phiT[v*k1+z] = m.phi[z*V+v]
		}
	}
}

// FoldStep applies the user-dimension M-step — Equations (8) and (11)
// restricted to rows [lo, hi) — leaving φ and θ' frozen, and returns
// the range's log-likelihood under the round's starting parameters.
func (tr *trainer) FoldStep(merged train.Accum, lo, hi int) float64 {
	a := merged.(*accum) // a fold-in accumulator: only ll is consumed
	m, cfg := tr.m, tr.cfg
	k1 := m.k1
	copy(m.theta[lo*k1:hi*k1], tr.theta[lo*k1:hi*k1])
	model.NormalizeRows(m.theta[lo*k1:hi*k1], k1, cfg.Smoothing)
	for u := lo; u < hi; u++ {
		if tr.lamDen[u] > 0 {
			m.lambda[u] = train.ClampLambda(tr.lamNum[u] / tr.lamDen[u])
		}
	}
	if model.AssertionsEnabled {
		model.AssertRowStochastic("itcam fold-in theta", m.theta[lo*k1:hi*k1], k1, 1e-9)
		model.AssertFiniteIn01("itcam fold-in lambda", m.lambda[lo:hi])
	}
	return a.ll
}

var _ train.UserFolder = (*trainer)(nil)

package ttcam

// Incremental model evolution for the streaming ingest loop, mirroring
// the itcam package: Grow widens the interval/item dimensions against
// frozen parameters and FoldInUsers fits new users' θu/λu by partial
// EM with every global parameter frozen. The new-interval estimator is
// the pre-existing FitNewInterval (its fitted rows are the θ't entries
// Grow appends). Neither method mutates the receiver — Grow returns an
// extended copy, and FoldInUsers a model that shares the receiver's
// frozen slabs and owns fresh θ and λ — so the boot model stays a
// frozen base the updater can re-derive every snapshot from.

import (
	"fmt"

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
// partial-EM budget.
func DefaultFoldInConfig() FoldInConfig {
	return FoldInConfig{Iters: 5, Smoothing: 1e-9}
}

// Grow returns a copy of the model widened to numIntervals intervals
// and numItems items. The topic-item matrices φ, φ' (and the background
// distribution, when enabled) are re-laid out with zero probability on
// the new items — under frozen time topics a brand-new item is
// unreachable until a full retrain, which is TTCAM's structural price
// for the compact K2 contexts. newContexts supplies the θ't row of each
// appended interval in order — length K2 each, from FitNewInterval —
// so numIntervals must equal NumIntervals()+len(newContexts).
func (m *Model) Grow(numIntervals, numItems int, newContexts [][]float64) (*Model, error) {
	if numItems < m.numItems {
		return nil, fmt.Errorf("ttcam: cannot shrink items %d -> %d", m.numItems, numItems)
	}
	if numIntervals != m.numIntervals+len(newContexts) {
		return nil, fmt.Errorf("ttcam: %d intervals need %d new contexts, got %d",
			numIntervals, numIntervals-m.numIntervals, len(newContexts))
	}
	for i, ctx := range newContexts {
		if len(ctx) != m.k2 {
			return nil, fmt.Errorf("ttcam: new context %d has %d topics, want K2=%d", i, len(ctx), m.k2)
		}
	}
	out := &Model{
		label:        m.label,
		numUsers:     m.numUsers,
		numIntervals: numIntervals,
		numItems:     numItems,
		k1:           m.k1,
		k2:           m.k2,
		theta:        append([]float64(nil), m.theta...),
		phi:          make([]float64, m.k1*numItems),
		thetaTx:      make([]float64, numIntervals*m.k2),
		phiX:         make([]float64, m.k2*numItems),
		lambda:       append([]float64(nil), m.lambda...),
		backgroundW:  m.backgroundW,
	}
	for z := 0; z < m.k1; z++ {
		copy(out.phi[z*numItems:], m.phi[z*m.numItems:(z+1)*m.numItems])
	}
	for x := 0; x < m.k2; x++ {
		copy(out.phiX[x*numItems:], m.phiX[x*m.numItems:(x+1)*m.numItems])
	}
	copy(out.thetaTx, m.thetaTx)
	for i, ctx := range newContexts {
		copy(out.thetaTx[(m.numIntervals+i)*m.k2:], ctx)
	}
	if m.background != nil {
		out.background = make([]float64, numItems)
		copy(out.background, m.background)
	}
	return out, nil
}

// FoldInUsers returns the model extended to data.NumUsers() users.
// Users [NumUsers(), data.NumUsers()) start from the uniform interest
// and λ=1/2, then run cfg.Iters rounds of partial EM over their own
// cells with φ, φ' and θ' frozen — through the same accumulator and
// shard machinery as batch training, so folding in user u is
// bit-identical to batch EM restricted to u against the same frozen
// globals. data's interval/item dimensions must match the model (Grow
// first when the stream widened them); its cells for already-trained
// users are ignored.
//
// The result shares φ, φ', θ' and the background with the receiver
// rather than copying them: fold-in never writes a global parameter,
// and a model is not mutated once built. Only θ and λ are allocated
// fresh, and only the item-major rows of the items the folded users
// rated are transposed, so the cost scales with the new users' cells,
// not with the catalog.
func (m *Model) FoldInUsers(data *cuboid.Cuboid, cfg FoldInConfig) (*Model, error) {
	if data.NumIntervals() != m.numIntervals || data.NumItems() != m.numItems {
		return nil, fmt.Errorf("ttcam: fold-in cuboid is %d intervals × %d items, model has %d × %d",
			data.NumIntervals(), data.NumItems(), m.numIntervals, m.numItems)
	}
	oldN, n := m.numUsers, data.NumUsers()
	if n < oldN {
		return nil, fmt.Errorf("ttcam: fold-in cuboid has %d users, model already has %d", n, oldN)
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
		cfg:    Config{K1: out.k1, K2: out.k2, MaxIters: 1, Smoothing: cfg.Smoothing, Background: out.backgroundW},
		theta:  make([]float64, len(out.theta)),
		lamNum: make([]float64, n),
		lamDen: make([]float64, n),
		phiT:   make([]float64, len(out.phi)),
		phiXT:  make([]float64, len(out.phiX)),
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

// transposeRated fills the item-major φ/φ' rows of the items users
// [lo, hi) rated — the only rows their E-step reads — with the values
// refreshTransposes would write there. The other rows stay zero.
func (tr *trainer) transposeRated(lo, hi int) {
	m := tr.m
	k1, k2, V := m.k1, m.k2, m.numItems
	_, vs, _ := tr.data.CSR()
	clo, _ := tr.data.UserSpan(lo)
	_, chi := tr.data.UserSpan(hi - 1)
	for _, v32 := range vs[clo:chi] {
		v := int(v32)
		for z := 0; z < k1; z++ {
			tr.phiT[v*k1+z] = m.phi[z*V+v]
		}
		for x := 0; x < k2; x++ {
			tr.phiXT[v*k2+x] = m.phiX[x*V+v]
		}
	}
}

// FoldStep applies the user-dimension M-step — Equations (8) and (11)
// restricted to rows [lo, hi) — leaving φ, φ' and θ' frozen, and
// returns the range's log-likelihood under the round's starting
// parameters.
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
		model.AssertRowStochastic("ttcam fold-in theta", m.theta[lo*k1:hi*k1], k1, 1e-9)
		model.AssertFiniteIn01("ttcam fold-in lambda", m.lambda[lo:hi])
	}
	return a.ll
}

var _ train.UserFolder = (*trainer)(nil)

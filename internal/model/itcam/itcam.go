// Package itcam implements the item-based variant of the Temporal
// Context-Aware Mixture model (Section 3.2.1 of the paper). The
// likelihood of user u rating item v during interval t is
//
//	P(v|u,t) = λu·Σ_z P(z|θu)P(v|φz) + (1−λu)·P(v|θ't)      (Eq. 1–2)
//
// where the temporal context θ't is a multinomial directly over items —
// one per interval. Parameters are learned with the EM updates of
// Equations (4)–(11); the iteration loop — sharding, merge order,
// convergence, checkpointing — is owned by internal/train, this package
// supplies only the E/M-step math, mirroring the MapReduce
// decomposition the paper notes in Section 3.2.3.
package itcam

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// maxDenseCells guards the dense T×V temporal-context table: ITCAM
// materializes one item distribution per interval, which is only
// sensible for modest catalogs (the paper's Digg and MovieLens runs).
// Beyond this size, use TTCAM.
const maxDenseCells = 64 << 20

// Config parameterizes ITCAM training.
type Config struct {
	// K1 is the number of user-oriented topics.
	K1 int
	// MaxIters bounds the EM iterations; Tol is the relative
	// log-likelihood improvement below which training stops early.
	MaxIters int
	Tol      float64
	// MaxWall optionally bounds training wall-clock time (0 = no budget).
	MaxWall time.Duration
	// Seed drives the random initialization.
	Seed int64
	// Workers caps E-step goroutines; non-positive means GOMAXPROCS. It
	// never affects the learned parameters.
	Workers int
	// Shards is the deterministic E-step shard count (0 means
	// train.DefaultShards). It fixes the floating-point summation
	// grouping: runs with equal Shards produce bit-identical parameters
	// regardless of Workers.
	Shards int
	// Smoothing is the additive epsilon applied when normalizing every
	// multinomial, keeping all generation probabilities positive.
	Smoothing float64
	// Label overrides the model name (the weighted variant reports
	// "W-ITCAM").
	Label string
	// LambdaMass optionally overrides the per-cell masses used by the
	// mixing-weight update (Equation 11), aligned with the training
	// cuboid's Cells() order. It exists as an ablation knob: training
	// topics on the weighted cuboid of Equation (20) while estimating λ
	// on the raw scores isolates the weighting scheme's effect on topic
	// quality from its effect on mixing-weight calibration (on the
	// synthetic worlds, Equation (20) applied verbatim — nil here —
	// recovers the ground-truth λ distribution best).
	LambdaMass []float64
	// Checkpoint configures periodic parameter snapshots and resume; the
	// zero value disables them.
	Checkpoint train.CheckpointConfig
	// Hook, when non-nil, observes every EM iteration.
	Hook func(model.IterStat)
}

// DefaultConfig returns the training configuration used by the
// experiment harness unless a sweep overrides it.
func DefaultConfig() Config {
	return Config{K1: 40, MaxIters: 50, Tol: 1e-5, Seed: 1, Smoothing: 1e-9}
}

func (c Config) validate(data *cuboid.Cuboid) error {
	if c.K1 <= 0 {
		return fmt.Errorf("itcam: K1 must be positive, got %d", c.K1)
	}
	if c.MaxIters <= 0 {
		return fmt.Errorf("itcam: MaxIters must be positive, got %d", c.MaxIters)
	}
	if c.Smoothing < 0 {
		return fmt.Errorf("itcam: negative smoothing %v", c.Smoothing)
	}
	if data.NNZ() == 0 {
		return errors.New("itcam: empty training cuboid")
	}
	if cells := data.NumIntervals() * data.NumItems(); cells > maxDenseCells {
		return fmt.Errorf("itcam: dense temporal context needs %d cells (max %d); use ttcam for large catalogs", cells, maxDenseCells)
	}
	if c.LambdaMass != nil && len(c.LambdaMass) != data.NNZ() {
		return fmt.Errorf("itcam: LambdaMass has %d entries for %d cells", len(c.LambdaMass), data.NNZ())
	}
	return nil
}

// engineConfig translates the model-level knobs into the engine policy.
func (c Config) engineConfig() train.Config {
	return train.Config{
		MaxIters:   c.MaxIters,
		Tol:        c.Tol,
		MaxWall:    c.MaxWall,
		Shards:     c.Shards,
		Workers:    c.Workers,
		Checkpoint: c.Checkpoint,
		Hook:       c.Hook,
	}
}

// Model is a trained ITCAM. All parameter slices are row-major.
type Model struct {
	label string

	numUsers     int
	numIntervals int
	numItems     int
	k1           int

	theta  []float64 // N×K1: P(z|θu)
	phi    []float64 // K1×V: P(v|φz)
	thetaT []float64 // T×V: P(v|θ't)
	lambda []float64 // N: λu
}

// Train fits ITCAM on the rating cuboid (or the weighted cuboid of
// Equation 20) and returns the model with its training statistics.
func Train(data *cuboid.Cuboid, cfg Config) (*Model, model.TrainStats, error) {
	var stats model.TrainStats
	tr, err := newTrainer(data, cfg)
	if err != nil {
		return nil, stats, err
	}
	stats, err = train.Run(tr, cfg.engineConfig())
	if err != nil {
		return nil, stats, err
	}
	return tr.m, stats, nil
}

// newTrainer validates the config, builds the initialized model and wires
// up the trainer state. It is the shared setup behind Train and the
// single-iteration benchmarks.
func newTrainer(data *cuboid.Cuboid, cfg Config) (*trainer, error) {
	if err := cfg.validate(data); err != nil {
		return nil, err
	}
	n, T, v := data.NumUsers(), data.NumIntervals(), data.NumItems()
	label := cfg.Label
	if label == "" {
		label = "ITCAM"
	}
	m := &Model{
		label:        label,
		numUsers:     n,
		numIntervals: T,
		numItems:     v,
		k1:           cfg.K1,
		theta:        make([]float64, n*cfg.K1),
		phi:          make([]float64, cfg.K1*v),
		thetaT:       make([]float64, T*v),
		lambda:       make([]float64, n),
	}
	m.initialize(data, cfg.Seed)

	tr := &trainer{
		m:      m,
		data:   data,
		cfg:    cfg,
		theta:  make([]float64, len(m.theta)),
		lamNum: make([]float64, n),
		lamDen: make([]float64, n),
		phiT:   make([]float64, len(m.phi)),
	}
	tr.refreshPhiT()
	return tr, nil
}

// initialize seeds θ and φ with jittered-uniform rows, θ' with the
// empirical per-interval item distribution, and λ at one half. This is
// the only place training consumes randomness; a checkpoint resume
// simply overwrites the initialized parameters, which is why resumed
// runs match uninterrupted ones bit-for-bit.
func (m *Model) initialize(data *cuboid.Cuboid, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fillJitteredRows(rng, m.theta, m.k1)
	fillJitteredRows(rng, m.phi, m.numItems)
	for _, cell := range data.Cells() {
		m.thetaT[int(cell.T)*m.numItems+int(cell.V)] += cell.Score
	}
	model.NormalizeRows(m.thetaT, m.numItems, 1e-6)
	for u := range m.lambda {
		m.lambda[u] = 0.5
	}
}

func fillJitteredRows(rng *rand.Rand, data []float64, cols int) {
	for i := range data {
		data[i] = 1 + 0.5*rng.Float64()
	}
	model.NormalizeRows(data, cols, 0)
}

// trainer adapts the ITCAM E/M-step math to the train.Trainable
// contract. The θ and λ sufficient statistics are user-sharded — every
// shard writes a disjoint row range of one shared slab — so only the
// global φ and θ' slabs are duplicated per shard and merged.
//
// phiT is the E-step's read-side copy of φ in item-major (V×K1) layout,
// rebuilt — by bit-exact transposition — after every M-step and on
// checkpoint restore. The per-cell topic loop then reads one contiguous
// K1-length row instead of a stride-V column of m.phi, and the shard
// accumulators store their φ statistics in the same item-major layout
// so the loop's writes are contiguous too.
type trainer struct {
	m    *Model
	data *cuboid.Cuboid
	cfg  Config

	theta  []float64 // N×K1, shard s owns rows [lo, hi)
	lamNum []float64 // N
	lamDen []float64 // N
	phiT   []float64 // V×K1: transpose of m.phi
}

// refreshPhiT rebuilds the item-major φ copy from the current model
// parameters. Transposition is pure data movement, so the E-step reads
// exactly the values it would have read from m.phi.
func (tr *trainer) refreshPhiT() {
	train.Transpose(tr.phiT, tr.m.phi, tr.m.k1, tr.m.numItems)
}

// accum is one shard's sufficient-statistic set: private φ and θ' slabs
// plus the shard's slice of the shared user-dimension statistics. The φ
// slab is item-major (V×K1), mirroring trainer.phiT. A fold-in
// accumulator (NewFoldAccum) has no φ or θ' slab; the E-step then
// accumulates only the user-dimension statistics.
type accum struct {
	tr     *trainer
	lo, hi int

	phiT   []float64 // V×K1
	thetaT []float64 // T×V
	pz     []float64 // E-step posterior scratch, length K1
	ll     float64
}

func (tr *trainer) NumUsers() int { return tr.m.numUsers }

func (tr *trainer) NewAccum(shard, lo, hi int) train.Accum {
	a := tr.NewFoldAccum(shard, lo, hi).(*accum)
	a.phiT = make([]float64, len(tr.m.phi))
	a.thetaT = make([]float64, len(tr.m.thetaT))
	return a
}

// NewFoldAccum allocates a shard accumulator without global slabs, for
// fold-in: FoldStep consumes only the user-dimension statistics and ll.
func (tr *trainer) NewFoldAccum(_, lo, hi int) train.Accum {
	return &accum{
		tr: tr,
		lo: lo,
		hi: hi,
		pz: make([]float64, tr.m.k1),
	}
}

// Reset clears the shard's slabs and its disjoint range of the shared
// user-dimension statistics.
//
//tcam:hotpath
func (a *accum) Reset() {
	k1 := a.tr.m.k1
	train.Zero(a.tr.theta[a.lo*k1 : a.hi*k1])
	train.Zero(a.tr.lamNum[a.lo:a.hi])
	train.Zero(a.tr.lamDen[a.lo:a.hi])
	train.Zero(a.phiT)
	train.Zero(a.thetaT)
	a.ll = 0
}

// Merge folds src's global slabs into the receiver; the user-sharded
// statistics live in one shared slab and need no merging.
//
//tcam:hotpath
func (a *accum) Merge(src train.Accum) {
	s := src.(*accum)
	train.MergeInto(a.phiT, s.phiT)
	train.MergeInto(a.thetaT, s.thetaT)
	a.ll += s.ll
}

func (tr *trainer) EStep(a train.Accum) { tr.emUserRange(a.(*accum)) }

// emUserRange runs the E-step over one shard's user range [lo, hi),
// accumulating sufficient statistics into the shard's slabs. All
// scratch is pre-sized in the accumulator so the per-iteration inner
// loop never touches the allocator.
//
// The scan is a linear walk of the cuboid's CSR columns — no index
// indirection — and every slab the K1 inner loop touches (θ row, θ
// accumulator row, item-major φ row and its accumulator row, posterior
// scratch) is one contiguous K1-length block, so the whole per-cell
// working set stays cache-resident. The floating-point operations and
// their order are exactly those of the pre-CSR loop, which is what
// keeps trained parameters bit-identical. Without global slabs (a
// fold-in accumulator) the θ statistics get the same sums through the
// single-destination kernel and the φ and θ' statistics are skipped.
//
//tcam:hotpath
func (tr *trainer) emUserRange(a *accum) {
	m, cfg := tr.m, tr.cfg
	k1, V := m.k1, m.numItems
	data := tr.data
	ts, vs, scores := data.CSR()
	phiT := tr.phiT
	pz := a.pz
	global := a.phiT != nil
	var ll float64
	for u := a.lo; u < a.hi; u++ {
		lam := m.lambda[u]
		thetaRow := m.theta[u*k1 : (u+1)*k1]
		thetaAcc := tr.theta[u*k1 : (u+1)*k1]
		lo, hi := data.UserSpan(u)
		for i := lo; i < hi; i++ {
			v, t, w := int(vs[i]), int(ts[i]), scores[i]

			// E-step — Equations (4) and (5).
			phiRow := phiT[v*k1 : (v+1)*k1]
			pu := train.DotInto(pz, thetaRow, phiRow)
			pt := m.thetaT[t*V+v]
			denom := lam*pu + (1-lam)*pt
			if denom <= 0 {
				denom = 1e-300
			}
			ps1 := lam * pu / denom
			ll += w * math.Log(denom)

			// Accumulate — numerators of Equations (8)–(11).
			if pu > 0 {
				scale := w * ps1 / pu
				if global {
					train.AddScaledPair(thetaAcc, a.phiT[v*k1:(v+1)*k1], scale, pz)
				} else {
					train.AddScaled(thetaAcc, scale, pz)
				}
			}
			if global {
				a.thetaT[t*V+v] += w * (1 - ps1)
			}
			lm := w
			if cfg.LambdaMass != nil {
				lm = cfg.LambdaMass[i]
			}
			tr.lamNum[u] += lm * ps1
			tr.lamDen[u] += lm
		}
	}
	a.ll = ll
}

// MStep applies Equations (8)–(11) from the merged statistics and
// returns the data log-likelihood under the parameters the iteration
// started from (the quantity EM is guaranteed not to decrease).
func (tr *trainer) MStep(merged train.Accum) float64 {
	a := merged.(*accum)
	m, cfg := tr.m, tr.cfg
	k1, V := m.k1, m.numItems
	copy(m.theta, tr.theta)
	model.NormalizeRows(m.theta, k1, cfg.Smoothing)
	train.Transpose(m.phi, a.phiT, V, k1) // item-major stats back to K1×V
	model.NormalizeRows(m.phi, V, cfg.Smoothing)
	copy(m.thetaT, a.thetaT)
	model.NormalizeRows(m.thetaT, V, cfg.Smoothing)
	for u := 0; u < m.numUsers; u++ {
		if tr.lamDen[u] > 0 {
			m.lambda[u] = train.ClampLambda(tr.lamNum[u] / tr.lamDen[u])
		}
	}
	tr.refreshPhiT()
	if model.AssertionsEnabled {
		model.AssertRowStochastic("itcam theta", m.theta, k1, 1e-9)
		model.AssertRowStochastic("itcam phi", m.phi, V, 1e-9)
		model.AssertRowStochastic("itcam thetaT", m.thetaT, V, 1e-9)
		model.AssertFiniteIn01("itcam lambda", m.lambda)
	}
	return a.ll
}

// EncodeParams snapshots the full parameter state (the model wire
// format) for the engine's checkpoints.
func (tr *trainer) EncodeParams(w io.Writer) error { return tr.m.Write(w) }

// DecodeParams restores a checkpoint snapshot into the model being
// trained, rejecting dimension mismatches against the training config.
func (tr *trainer) DecodeParams(r io.Reader) error {
	loaded, err := Read(r)
	if err != nil {
		return err
	}
	m := tr.m
	if loaded.numUsers != m.numUsers || loaded.numIntervals != m.numIntervals ||
		loaded.numItems != m.numItems || loaded.k1 != m.k1 {
		return fmt.Errorf("itcam: checkpoint dimensions %d/%d/%d/K1=%d do not match training config %d/%d/%d/K1=%d",
			loaded.numUsers, loaded.numIntervals, loaded.numItems, loaded.k1,
			m.numUsers, m.numIntervals, m.numItems, m.k1)
	}
	m.theta, m.phi, m.thetaT, m.lambda = loaded.theta, loaded.phi, loaded.thetaT, loaded.lambda
	tr.refreshPhiT()
	return nil
}

var (
	_ train.Trainable      = (*trainer)(nil)
	_ train.Checkpointable = (*trainer)(nil)
)

// Name returns the model label ("ITCAM" or "W-ITCAM").
func (m *Model) Name() string { return m.label }

// NumItems returns the item-catalog size.
func (m *Model) NumItems() int { return m.numItems }

// NumUsers returns the user count the model was trained on.
func (m *Model) NumUsers() int { return m.numUsers }

// NumIntervals returns the number of time intervals.
func (m *Model) NumIntervals() int { return m.numIntervals }

// K1 returns the number of user-oriented topics.
func (m *Model) K1() int { return m.k1 }

// Lambda returns λu, the personal-interest influence probability of
// user u (Figures 10–11 plot its distribution).
func (m *Model) Lambda(u int) float64 { return m.lambda[u] }

// UserInterest returns P(·|θu), user u's distribution over the K1
// user-oriented topics. Callers must not modify the slice.
func (m *Model) UserInterest(u int) []float64 { return m.theta[u*m.k1 : (u+1)*m.k1] }

// UserTopic returns P(·|φz), the item distribution of user-oriented
// topic z. Callers must not modify the slice.
func (m *Model) UserTopic(z int) []float64 { return m.phi[z*m.numItems : (z+1)*m.numItems] }

// TemporalContext returns P(·|θ't), the item distribution of interval
// t's temporal context. Callers must not modify the slice.
func (m *Model) TemporalContext(t int) []float64 {
	return m.thetaT[t*m.numItems : (t+1)*m.numItems]
}

// Score implements Equation (1): the likelihood that u rates v during t.
//
//tcam:hotpath
func (m *Model) Score(u, t, v int) float64 {
	var pu float64
	thetaRow := m.UserInterest(u)
	for z := 0; z < m.k1; z++ {
		pu += thetaRow[z] * m.phi[z*m.numItems+v]
	}
	lam := m.lambda[u]
	return lam*pu + (1-lam)*m.thetaT[t*m.numItems+v]
}

// ScoreAll fills scores[v] with Score(u, t, v) for every item in one
// pass over the topic matrices.
//
//tcam:hotpath
func (m *Model) ScoreAll(u, t int, scores []float64) {
	if len(scores) != m.numItems {
		panic(fmt.Sprintf("itcam: ScoreAll buffer %d, want %d", len(scores), m.numItems))
	}
	lam := m.lambda[u]
	ctx := m.TemporalContext(t)
	for v := range scores {
		scores[v] = (1 - lam) * ctx[v]
	}
	thetaRow := m.UserInterest(u)
	for z := 0; z < m.k1; z++ {
		w := lam * thetaRow[z]
		if w <= 0 {
			continue
		}
		phiRow := m.UserTopic(z)
		for v := range scores {
			scores[v] += w * phiRow[v]
		}
	}
}

// NumTopics returns the expanded topic-space size of Section 4.1. For
// ITCAM each interval's temporal context acts as one additional topic,
// so K = K1 + T.
func (m *Model) NumTopics() int { return m.k1 + m.numIntervals }

// QueryWeights returns ϑq for query (u, t): λu·θu on the user-oriented
// topics and (1−λu) on interval t's pseudo-topic, zero elsewhere.
func (m *Model) QueryWeights(u, t int) []float64 {
	out := make([]float64, m.NumTopics())
	m.QueryWeightsInto(u, t, out)
	return out
}

// QueryWeightsInto is the allocation-free form of QueryWeights: it
// overwrites every entry of out, which must have length NumTopics().
//
//tcam:hotpath
func (m *Model) QueryWeightsInto(u, t int, out []float64) {
	lam := m.lambda[u]
	thetaRow := m.UserInterest(u)
	for z := 0; z < m.k1; z++ {
		out[z] = lam * thetaRow[z]
	}
	for z := m.k1; z < len(out); z++ {
		out[z] = 0
	}
	out[m.k1+t] = 1 - lam
}

// TopicItems returns ϕ_z̃: a user-oriented topic's item distribution for
// z̃ < K1, an interval's temporal context otherwise.
//
//tcam:hotpath
func (m *Model) TopicItems(z int) []float64 {
	if z < m.k1 {
		return m.UserTopic(z)
	}
	return m.TemporalContext(z - m.k1)
}

var (
	_ model.BulkScorer    = (*Model)(nil)
	_ model.TopicScorer   = (*Model)(nil)
	_ model.QueryWeighter = (*Model)(nil)
)

// Package ttcam implements the topic-based variant of the Temporal
// Context-Aware Mixture model (Section 3.2.2 of the paper). Unlike
// ITCAM, the temporal context of interval t is a multinomial over K2
// shared time-oriented topics, each of which is a multinomial over
// items:
//
//	P(v|θ't) = Σ_x P(v|φ'x)·P(x|θ't)                          (Eq. 12)
//
// so the full likelihood is
//
//	P(v|u,t) = λu·Σ_z P(z|θu)P(v|φz) + (1−λu)·Σ_x P(x|θ't)P(v|φ'x).
//
// Parameters are learned with the EM updates of Equations (13)–(16)
// (plus (8), (9), (11) for the user side). The iteration loop —
// sharding, merge order, convergence, checkpointing — is owned by
// internal/train; this package supplies only the E/M-step math.
//
// Two extensions beyond the paper are included, both from its future
// work list: an optional fixed background topic that absorbs noise
// (Config.Background) and incremental fitting of a new interval's
// temporal context against frozen topics (FitNewInterval).
package ttcam

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"tcam/internal/cuboid"
	"tcam/internal/model"
	"tcam/internal/train"
)

// Config parameterizes TTCAM training.
type Config struct {
	// K1 and K2 are the numbers of user-oriented and time-oriented
	// topics (the paper's defaults are 60 and 40).
	K1 int
	K2 int
	// MaxIters bounds EM; Tol is the relative log-likelihood improvement
	// under which training stops early.
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
	// Smoothing is the additive epsilon for every multinomial
	// normalization.
	Smoothing float64
	// Background, when positive, mixes a fixed empirical item
	// distribution θB into the likelihood with this weight:
	// P(v|u,t) = Background·θB(v) + (1−Background)·(TCAM mixture).
	// This is the noise-filtering extension the paper lists as future
	// work; 0 disables it.
	Background float64
	// Label overrides the model name (the weighted variant reports
	// "W-TTCAM").
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

// DefaultConfig returns the paper's default topic counts (Section 5.3.2)
// with the harness's standard EM settings.
func DefaultConfig() Config {
	return Config{K1: 60, K2: 40, MaxIters: 50, Tol: 1e-5, Seed: 1, Smoothing: 1e-9}
}

func (c Config) validate(data *cuboid.Cuboid) error {
	switch {
	case c.K1 <= 0 || c.K2 <= 0:
		return fmt.Errorf("ttcam: topic counts must be positive, got K1=%d K2=%d", c.K1, c.K2)
	case c.MaxIters <= 0:
		return fmt.Errorf("ttcam: MaxIters must be positive, got %d", c.MaxIters)
	case c.Smoothing < 0:
		return fmt.Errorf("ttcam: negative smoothing %v", c.Smoothing)
	case c.Background < 0 || c.Background >= 1:
		return fmt.Errorf("ttcam: Background %v outside [0,1)", c.Background)
	}
	if data.NNZ() == 0 {
		return errors.New("ttcam: empty training cuboid")
	}
	if c.LambdaMass != nil && len(c.LambdaMass) != data.NNZ() {
		return fmt.Errorf("ttcam: LambdaMass has %d entries for %d cells", len(c.LambdaMass), data.NNZ())
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

// Model is a trained TTCAM. Parameter slices are row-major.
type Model struct {
	label string

	numUsers     int
	numIntervals int
	numItems     int
	k1, k2       int

	theta   []float64 // N×K1: P(z|θu)
	phi     []float64 // K1×V: P(v|φz)
	thetaTx []float64 // T×K2: P(x|θ't)
	phiX    []float64 // K2×V: P(v|φ'x)
	lambda  []float64 // N: λu

	backgroundW float64   // λB; 0 when disabled
	background  []float64 // V: θB, empirical item distribution
}

// Train fits TTCAM on the rating cuboid (or the weighted cuboid of
// Equation 20).
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
		label = "TTCAM"
	}
	m := &Model{
		label:        label,
		numUsers:     n,
		numIntervals: T,
		numItems:     v,
		k1:           cfg.K1,
		k2:           cfg.K2,
		theta:        make([]float64, n*cfg.K1),
		phi:          make([]float64, cfg.K1*v),
		thetaTx:      make([]float64, T*cfg.K2),
		phiX:         make([]float64, cfg.K2*v),
		lambda:       make([]float64, n),
		backgroundW:  cfg.Background,
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
		phiXT:  make([]float64, len(m.phiX)),
	}
	tr.refreshTransposes()
	return tr, nil
}

func (m *Model) initialize(data *cuboid.Cuboid, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fillJitteredRows(rng, m.theta, m.k1)
	fillJitteredRows(rng, m.phi, m.numItems)
	fillJitteredRows(rng, m.thetaTx, m.k2)
	fillJitteredRows(rng, m.phiX, m.numItems)
	for u := range m.lambda {
		m.lambda[u] = 0.5
	}
	if m.backgroundW > 0 {
		m.background = make([]float64, m.numItems)
		for _, cell := range data.Cells() {
			m.background[cell.V] += cell.Score
		}
		model.NormalizeRows(m.background, m.numItems, 1e-9)
	}
}

func fillJitteredRows(rng *rand.Rand, data []float64, cols int) {
	for i := range data {
		data[i] = 1 + 0.5*rng.Float64()
	}
	model.NormalizeRows(data, cols, 0)
}

// trainer adapts the TTCAM E/M-step math to the train.Trainable
// contract. The θ and λ sufficient statistics are user-sharded — every
// shard writes a disjoint row range of one shared slab — so only the
// global φ, φ' and θ' slabs are duplicated per shard and merged.
//
// phiT and phiXT are the E-step's read-side copies of φ and φ' in
// item-major (V×K1 and V×K2) layout, rebuilt — by bit-exact
// transposition — after every M-step and on checkpoint restore. The
// per-cell topic loops then read one contiguous K-length row per matrix
// instead of a stride-V column, and the shard accumulators store their
// φ/φ' statistics in the same item-major layout so the loops' writes
// are contiguous too.
type trainer struct {
	m    *Model
	data *cuboid.Cuboid
	cfg  Config

	theta  []float64 // N×K1, shard s owns rows [lo, hi)
	lamNum []float64 // N
	lamDen []float64 // N
	phiT   []float64 // V×K1: transpose of m.phi
	phiXT  []float64 // V×K2: transpose of m.phiX
}

// refreshTransposes rebuilds the item-major φ/φ' copies from the current
// model parameters. Transposition is pure data movement, so the E-step
// reads exactly the values it would have read from m.phi and m.phiX.
func (tr *trainer) refreshTransposes() {
	train.Transpose(tr.phiT, tr.m.phi, tr.m.k1, tr.m.numItems)
	train.Transpose(tr.phiXT, tr.m.phiX, tr.m.k2, tr.m.numItems)
}

// accum is one shard's sufficient-statistic set: private global slabs
// plus the shard's slice of the shared user-dimension statistics. The φ
// and φ' slabs are item-major, mirroring trainer.phiT/phiXT. A fold-in
// accumulator (NewFoldAccum) has no global slabs; the E-step then
// accumulates only the user-dimension statistics.
type accum struct {
	tr     *trainer
	lo, hi int

	phiT    []float64 // V×K1
	phiXT   []float64 // V×K2
	thetaTx []float64 // T×K2
	pz      []float64 // user-path posterior scratch, length K1
	px      []float64 // time-path posterior scratch, length K2
	ll      float64
}

func (tr *trainer) NumUsers() int { return tr.m.numUsers }

func (tr *trainer) NewAccum(shard, lo, hi int) train.Accum {
	a := tr.NewFoldAccum(shard, lo, hi).(*accum)
	a.phiT = make([]float64, len(tr.m.phi))
	a.phiXT = make([]float64, len(tr.m.phiX))
	a.thetaTx = make([]float64, len(tr.m.thetaTx))
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
		px: make([]float64, tr.m.k2),
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
	train.Zero(a.phiXT)
	train.Zero(a.thetaTx)
	a.ll = 0
}

// Merge folds src's global slabs into the receiver; the user-sharded
// statistics live in one shared slab and need no merging.
//
//tcam:hotpath
func (a *accum) Merge(src train.Accum) {
	s := src.(*accum)
	train.MergeInto(a.phiT, s.phiT)
	train.MergeInto(a.thetaTx, s.thetaTx)
	train.MergeInto(a.phiXT, s.phiXT)
	a.ll += s.ll
}

func (tr *trainer) EStep(a train.Accum) { tr.emUserRange(a.(*accum)) }

// MStep applies Equations (8)–(9), (11), (15)–(16) from the merged
// statistics and returns the log-likelihood under the pre-update
// parameters.
func (tr *trainer) MStep(merged train.Accum) float64 {
	a := merged.(*accum)
	m, cfg := tr.m, tr.cfg
	k1, k2, V := m.k1, m.k2, m.numItems
	copy(m.theta, tr.theta)
	model.NormalizeRows(m.theta, k1, cfg.Smoothing)
	train.Transpose(m.phi, a.phiT, V, k1) // item-major stats back to K1×V
	model.NormalizeRows(m.phi, V, cfg.Smoothing)
	copy(m.thetaTx, a.thetaTx)
	model.NormalizeRows(m.thetaTx, k2, cfg.Smoothing)
	train.Transpose(m.phiX, a.phiXT, V, k2) // item-major stats back to K2×V
	model.NormalizeRows(m.phiX, V, cfg.Smoothing)
	for u := 0; u < m.numUsers; u++ {
		if tr.lamDen[u] > 0 {
			m.lambda[u] = train.ClampLambda(tr.lamNum[u] / tr.lamDen[u])
		}
	}
	tr.refreshTransposes()
	if model.AssertionsEnabled {
		model.AssertRowStochastic("ttcam theta", m.theta, k1, 1e-9)
		model.AssertRowStochastic("ttcam phi", m.phi, V, 1e-9)
		model.AssertRowStochastic("ttcam thetaTx", m.thetaTx, k2, 1e-9)
		model.AssertRowStochastic("ttcam phiX", m.phiX, V, 1e-9)
		model.AssertFiniteIn01("ttcam lambda", m.lambda)
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
		loaded.numItems != m.numItems || loaded.k1 != m.k1 || loaded.k2 != m.k2 {
		return fmt.Errorf("ttcam: checkpoint dimensions %d/%d/%d/K1=%d/K2=%d do not match training config %d/%d/%d/K1=%d/K2=%d",
			loaded.numUsers, loaded.numIntervals, loaded.numItems, loaded.k1, loaded.k2,
			m.numUsers, m.numIntervals, m.numItems, m.k1, m.k2)
	}
	m.theta, m.phi, m.thetaTx, m.phiX, m.lambda = loaded.theta, loaded.phi, loaded.thetaTx, loaded.phiX, loaded.lambda
	m.backgroundW, m.background = loaded.backgroundW, loaded.background
	tr.refreshTransposes()
	return nil
}

var (
	_ train.Trainable      = (*trainer)(nil)
	_ train.Checkpointable = (*trainer)(nil)
)

// emUserRange runs the E-step over one shard's user range [lo, hi),
// accumulating sufficient statistics into the shard's slabs. All
// scratch is pre-sized in the accumulator so the per-iteration inner
// loop never touches the allocator.
//
// The scan is a linear walk of the cuboid's CSR columns — no index
// indirection — and every slab the K1/K2 inner loops touch (θ and θ'
// rows, their accumulator rows, the item-major φ/φ' rows and their
// accumulator rows, posterior scratch) is one contiguous K-length
// block, so the whole per-cell working set stays cache-resident. The
// floating-point operations and their order are exactly those of the
// pre-CSR loop, which is what keeps trained parameters bit-identical.
// Without global slabs (a fold-in accumulator) the θ statistics get the
// same sums through the single-destination kernel and the φ, φ' and θ'
// statistics are skipped.
//
//tcam:hotpath
func (tr *trainer) emUserRange(a *accum) {
	m, cfg := tr.m, tr.cfg
	k1, k2 := m.k1, m.k2
	data := tr.data
	ts, vs, scores := data.CSR()
	phiT := tr.phiT
	phiXT := tr.phiXT
	bw := m.backgroundW
	pz := a.pz
	px := a.px
	global := a.phiT != nil
	var ll float64
	for u := a.lo; u < a.hi; u++ {
		lam := m.lambda[u]
		thetaRow := m.theta[u*k1 : (u+1)*k1]
		thetaAcc := tr.theta[u*k1 : (u+1)*k1]
		lo, hi := data.UserSpan(u)
		for i := lo; i < hi; i++ {
			v, t, w := int(vs[i]), int(ts[i]), scores[i]

			// E-step — Equations (4), (5) and (13).
			phiRow := phiT[v*k1 : (v+1)*k1]
			pu := train.DotInto(pz, thetaRow, phiRow)
			thetaTxRow := m.thetaTx[t*k2 : (t+1)*k2]
			phiXRow := phiXT[v*k2 : (v+1)*k2]
			pt := train.DotInto(px, thetaTxRow, phiXRow)
			mix := lam*pu + (1-lam)*pt
			denom := mix
			var pbg float64 // posterior mass of the background path
			if bw > 0 {
				denom = bw*m.background[v] + (1-bw)*mix
				if denom <= 0 {
					denom = 1e-300
				}
				pbg = bw * m.background[v] / denom
			} else if denom <= 0 {
				denom = 1e-300
			}
			ll += w * math.Log(denom)

			// Mixture-path posteriors, discounted by the background.
			var ps1 float64
			if mix > 0 {
				ps1 = (1 - pbg) * lam * pu / mix
			}
			ps0 := (1 - pbg) - ps1

			// Accumulate numerators of Equations (8)–(9), (11),
			// (15)–(16).
			if pu > 0 && ps1 > 0 {
				if global {
					train.AddScaledPair(thetaAcc, a.phiT[v*k1:(v+1)*k1], w*ps1/pu, pz)
				} else {
					train.AddScaled(thetaAcc, w*ps1/pu, pz)
				}
			}
			if global && pt > 0 && ps0 > 0 {
				train.AddScaledPair(a.thetaTx[t*k2:(t+1)*k2], a.phiXT[v*k2:(v+1)*k2], w*ps0/pt, px)
			}
			lm := w
			if cfg.LambdaMass != nil {
				lm = cfg.LambdaMass[i]
			}
			tr.lamNum[u] += lm * ps1
			tr.lamDen[u] += lm * (ps1 + ps0)
		}
	}
	a.ll = ll
}

// FitNewInterval estimates the temporal context θ' of a previously
// unseen interval from its ratings alone, holding every other parameter
// (topics, interests, mixing weights) frozen — the partial-EM update an
// online deployment runs when a new interval opens. ratings maps item →
// accumulated score observed so far in the new interval (with the user
// unknown or mixed, the user path is dropped and only the temporal
// mixture is fit). It returns the fitted P(x|θ') vector.
func (m *Model) FitNewInterval(ratings map[int]float64, iters int) []float64 {
	k2, V := m.k2, m.numItems
	thetaNew := make([]float64, k2)
	for x := range thetaNew {
		thetaNew[x] = 1 / float64(k2)
	}
	if len(ratings) == 0 || iters <= 0 {
		return thetaNew
	}
	// Accumulate in ascending item order, not map order: float addition
	// is not associative, so iterating the map directly would make the
	// fitted θ' bits depend on the runtime's randomized iteration and
	// break fold-in bit-identity across runs.
	items := make([]int, 0, len(ratings))
	for v := range ratings {
		items = append(items, v)
	}
	sort.Ints(items)
	acc := make([]float64, k2)
	px := make([]float64, k2)
	for it := 0; it < iters; it++ {
		train.Zero(acc)
		for _, v := range items {
			w := ratings[v]
			if v < 0 || v >= V || w <= 0 {
				continue
			}
			var pt float64
			for x := 0; x < k2; x++ {
				p := thetaNew[x] * m.phiX[x*V+v]
				px[x] = p
				pt += p
			}
			if pt <= 0 {
				continue
			}
			for x := 0; x < k2; x++ {
				acc[x] += w * px[x] / pt
			}
		}
		copy(thetaNew, acc)
		model.NormalizeRows(thetaNew, k2, 1e-12)
	}
	return thetaNew
}

// Name returns the model label ("TTCAM" or "W-TTCAM").
func (m *Model) Name() string { return m.label }

// NumItems returns the item-catalog size.
func (m *Model) NumItems() int { return m.numItems }

// NumUsers returns the user count the model was trained on.
func (m *Model) NumUsers() int { return m.numUsers }

// NumIntervals returns the number of time intervals.
func (m *Model) NumIntervals() int { return m.numIntervals }

// K1 returns the number of user-oriented topics; K2 the time-oriented
// count.
func (m *Model) K1() int { return m.k1 }

// K2 returns the number of time-oriented topics.
func (m *Model) K2() int { return m.k2 }

// Lambda returns λu (Figures 10–11 plot its distribution over users).
func (m *Model) Lambda(u int) float64 { return m.lambda[u] }

// UserInterest returns P(·|θu) over user-oriented topics. Callers must
// not modify the slice.
func (m *Model) UserInterest(u int) []float64 { return m.theta[u*m.k1 : (u+1)*m.k1] }

// UserTopic returns P(·|φz), user-oriented topic z's item distribution.
func (m *Model) UserTopic(z int) []float64 { return m.phi[z*m.numItems : (z+1)*m.numItems] }

// TemporalContext returns P(·|θ't) over time-oriented topics.
func (m *Model) TemporalContext(t int) []float64 { return m.thetaTx[t*m.k2 : (t+1)*m.k2] }

// TimeTopic returns P(·|φ'x), time-oriented topic x's item distribution.
func (m *Model) TimeTopic(x int) []float64 { return m.phiX[x*m.numItems : (x+1)*m.numItems] }

// Score implements the TTCAM likelihood (Equations 1 and 12), including
// the optional background mixture.
//
//tcam:hotpath
func (m *Model) Score(u, t, v int) float64 {
	var pu float64
	thetaRow := m.UserInterest(u)
	for z := 0; z < m.k1; z++ {
		pu += thetaRow[z] * m.phi[z*m.numItems+v]
	}
	var pt float64
	ctxRow := m.TemporalContext(t)
	for x := 0; x < m.k2; x++ {
		pt += ctxRow[x] * m.phiX[x*m.numItems+v]
	}
	lam := m.lambda[u]
	mix := lam*pu + (1-lam)*pt
	if m.backgroundW > 0 {
		return m.backgroundW*m.background[v] + (1-m.backgroundW)*mix
	}
	return mix
}

// ScoreAll fills scores[v] with Score(u, t, v) for every item in one
// pass over the topic matrices. The per-topic weights and accumulation
// order are exactly those of QueryWeightsInto over TopicItems (user
// topics ascending, then time topics, then the background), so results
// stay bit-identical to the index-based scorer — without materializing
// the weight vector.
//
//tcam:hotpath
func (m *Model) ScoreAll(u, t int, scores []float64) {
	if len(scores) != m.numItems {
		panic(fmt.Sprintf("ttcam: ScoreAll buffer %d, want %d", len(scores), m.numItems))
	}
	for v := range scores {
		scores[v] = 0
	}
	lam := m.lambda[u]
	scale := 1.0
	if m.backgroundW > 0 {
		scale = 1 - m.backgroundW
	}
	thetaRow := m.UserInterest(u)
	for z := 0; z < m.k1; z++ {
		wz := scale * lam * thetaRow[z]
		if wz <= 0 {
			continue
		}
		row := m.UserTopic(z)
		for v := range scores {
			scores[v] += wz * row[v]
		}
	}
	ctxRow := m.TemporalContext(t)
	for x := 0; x < m.k2; x++ {
		wz := scale * (1 - lam) * ctxRow[x]
		if wz <= 0 {
			continue
		}
		row := m.TimeTopic(x)
		for v := range scores {
			scores[v] += wz * row[v]
		}
	}
	if m.backgroundW > 0 {
		wz := m.backgroundW
		for v := range scores {
			scores[v] += wz * m.background[v]
		}
	}
}

// NumTopics returns the expanded topic-space size K = K1 + K2 of
// Section 4.1 (plus one background pseudo-topic when enabled).
func (m *Model) NumTopics() int {
	k := m.k1 + m.k2
	if m.backgroundW > 0 {
		k++
	}
	return k
}

// QueryWeights returns ϑq = ⟨λu·θu, (1−λu)·θ't⟩ of Section 4.1 (scaled
// by 1−λB with a trailing λB background entry when enabled).
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
	scale := 1.0
	if m.backgroundW > 0 {
		scale = 1 - m.backgroundW
		out[m.k1+m.k2] = m.backgroundW
	}
	thetaRow := m.UserInterest(u)
	for z := 0; z < m.k1; z++ {
		out[z] = scale * lam * thetaRow[z]
	}
	ctxRow := m.TemporalContext(t)
	for x := 0; x < m.k2; x++ {
		out[m.k1+x] = scale * (1 - lam) * ctxRow[x]
	}
}

// TopicItems returns ϕ_z̃ of Equation (21): user-oriented topics first,
// then time-oriented topics, then the optional background.
//
//tcam:hotpath
func (m *Model) TopicItems(z int) []float64 {
	switch {
	case z < m.k1:
		return m.UserTopic(z)
	case z < m.k1+m.k2:
		return m.TimeTopic(z - m.k1)
	default:
		return m.background
	}
}

var (
	_ model.BulkScorer    = (*Model)(nil)
	_ model.TopicScorer   = (*Model)(nil)
	_ model.QueryWeighter = (*Model)(nil)
)

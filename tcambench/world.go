package main

// The benchmark world: one seeded datagen profile, split at BootDay
// into a boot log (bucketed, item-weighted and trained as W-TTCAM) and
// a held-back, time-ordered ingest stream. Every workload serves this
// world, so per-layer numbers measured on it can be subtracted.

import (
	"runtime"
	"sort"
	"time"

	"tcam/internal/datagen"
	"tcam/internal/dataset"
	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/model"
	"tcam/internal/model/ttcam"
	"tcam/internal/topk"
	"tcam/internal/weighting"
)

// worldShape fixes everything about the world except its seed.
type worldShape struct {
	Name         string
	Users        int // 0 keeps the profile default
	Items        int
	Days         int
	IntervalDays int64
	BootDay      int64 // events before this day train the boot model
	K1, K2       int
	Iters        int
}

// doubanShape is the benchmark world: the Douban profile at its default
// scale, 30-day intervals, the paper's K1=60/K2=40, 20 EM iterations.
var doubanShape = worldShape{
	Name: "douban", IntervalDays: 30, BootDay: 600, K1: 60, K2: 40, Iters: 20,
}

// tinyShape is the self-test world: the same profile shrunk so the
// whole pipeline sets up in well under a second.
var tinyShape = worldShape{
	Name: "tiny", Users: 150, Items: 900, Days: 120,
	IntervalDays: 10, BootDay: 100, K1: 8, K2: 6, Iters: 4,
}

// world is the trained boot state plus the held-back stream.
type world struct {
	shape worldShape

	boot   *index.Bundle
	model  *ttcam.Model
	idx    *topk.Index // monolithic TA index, the oracle's and ladder's reference
	stats  model.TrainStats
	cells  int
	events int // boot events
	stream []ingest.Record

	// Setup layer timings in seconds.
	generateS, gridS, weightS, emS, buildIndexS float64
}

// buildWorld generates, splits, weights and trains the world. Spans go
// around each layer call when tr is non-nil.
func buildWorld(shape worldShape, seed int64, tr *tracer) (*world, error) {
	w := &world{shape: shape}
	cfg := datagen.DefaultConfig(datagen.Douban)
	cfg.Seed = seed
	if shape.Users > 0 {
		cfg.NumUsers, cfg.NumItems, cfg.NumDays = shape.Users, shape.Items, shape.Days
	}

	sp := tr.start("datagen.generate", 0)
	t0 := time.Now()
	gen, err := datagen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	w.generateS = time.Since(t0).Seconds()
	sp.end()

	sp = tr.start("dataset.grid", 0)
	t0 = time.Now()
	bootLog := dataset.New()
	var held []dataset.Event
	for _, e := range gen.Log.Events() {
		if e.Time >= shape.BootDay {
			held = append(held, e)
			continue
		}
		if err := bootLog.Add(gen.Log.UserID(e.User), gen.Log.ItemID(e.Item), e.Time, e.Score); err != nil {
			return nil, err
		}
	}
	raw, grid, err := bootLog.Grid(shape.IntervalDays)
	if err != nil {
		return nil, err
	}
	w.gridS = time.Since(t0).Seconds()
	sp.end()
	w.events, w.cells = bootLog.NumEvents(), raw.NNZ()

	sp = tr.start("weighting.weight", 0)
	t0 = time.Now()
	weighted := weighting.WeightCuboid(raw)
	w.weightS = time.Since(t0).Seconds()
	sp.end()

	tcfg := ttcam.DefaultConfig()
	tcfg.K1, tcfg.K2, tcfg.MaxIters, tcfg.Tol = shape.K1, shape.K2, shape.Iters, 0
	tcfg.Seed, tcfg.Label = seed, "W-TTCAM"
	if tr != nil {
		tcfg.Hook = tr.emHook()
	}
	sp = tr.start("ttcam.Train", 0)
	t0 = time.Now()
	m, st, err := ttcam.Train(weighted, tcfg)
	if err != nil {
		return nil, err
	}
	w.emS = time.Since(t0).Seconds()
	sp.end()
	w.model, w.stats = m, st

	users := make([]string, bootLog.NumUsers())
	for u := range users {
		users[u] = bootLog.UserID(u)
	}
	items := make([]string, bootLog.NumItems())
	for v := range items {
		items[v] = bootLog.ItemID(v)
	}
	w.boot = index.NewTTCAM(m, grid, users, items)
	if err := w.boot.Validate(); err != nil {
		return nil, err
	}

	sp = tr.start("topk.BuildIndex", 0)
	t0 = time.Now()
	w.idx = topk.BuildIndex(m)
	w.buildIndexS = time.Since(t0).Seconds()
	sp.end()

	// The held-back stream in time order (stable, so same-day events
	// keep log order), as a producer would append it.
	sort.SliceStable(held, func(i, j int) bool { return held[i].Time < held[j].Time })
	w.stream = make([]ingest.Record, len(held))
	for i, e := range held {
		w.stream[i] = ingest.Record{User: gen.Log.UserID(e.User), Item: gen.Log.ItemID(e.Item), Time: e.Time, Score: e.Score}
	}
	// Collect the generator's and the EM's garbage before any server is
	// built, as tcamserver starts from a trained bundle in a fresh
	// process. Without it peak_rss_mb depended on whether a collection
	// happened to run while server.New built its index.
	runtime.GC()
	return w, nil
}

// heapLiveMB forces a collection and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

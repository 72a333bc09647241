package topk

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// queryModel scores items with an explicit ϑq over a fake topic model,
// so BruteForce can mirror Searcher.QueryWeights exactly.
type queryModel struct {
	f *fakeTopicModel
	q []float64
}

func (m queryModel) Name() string  { return "query" }
func (m queryModel) NumItems() int { return m.f.NumItems() }
func (m queryModel) Score(_, _, v int) float64 {
	var s float64
	for z, w := range m.q {
		s += w * m.f.topics[z][v]
	}
	return s
}

// Property (ISSUE 1 satellite): one pooled Searcher reused across many
// random queries — random topic scorers, random sparse weights, random
// excludes — must equal BruteForce exactly (items, scores, order) every
// time. Guards the epoch-stamped seen table, heap reuse, and the
// incremental-threshold confirm logic.
func TestSearcherReuseEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		kTopics := rng.Intn(8) + 1
		v := rng.Intn(120) + 5
		fm := randomModel(rng, kTopics, v)
		ix := BuildIndex(fm)
		s := ix.AcquireSearcher()
		defer s.Release()
		for round := 0; round < 12; round++ {
			q := randomQuery(rng, kTopics, true)
			k := rng.Intn(v+3) + 1
			var ex Exclude
			if rng.Float64() < 0.5 {
				banned := map[int]bool{}
				for i := 0; i < rng.Intn(6); i++ {
					banned[rng.Intn(v)] = true
				}
				ex = func(item int) bool { return banned[item] }
			}
			ta, _ := s.QueryWeights(q, k, ex)
			bf, _ := BruteForce(queryModel{fm, q}, 0, 0, k, ex)
			if len(ta) != len(bf) {
				return false
			}
			for i := range ta {
				if ta[i].Item != bf[i].Item {
					return false
				}
				if d := ta[i].Score - bf[i].Score; d > 1e-10 || d < -1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// The epoch stamp must survive wrapping around uint32: the seen table
// is cleared exactly once and queries stay correct on both sides.
func TestSearcherEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fm := randomModel(rng, 4, 60)
	ix := BuildIndex(fm)
	s := ix.NewSearcher()
	s.epoch = ^uint32(0) - 2
	q := fm.QueryWeights(0, 0)
	want, _ := BruteForce(fm, 0, 0, 7, nil)
	for round := 0; round < 6; round++ {
		got, _ := s.QueryWeights(q, 7, nil)
		assertSameResults(t, got, want)
	}
	if s.epoch == 0 || s.epoch > 4 {
		t.Errorf("epoch after wraparound = %d, want small positive", s.epoch)
	}
}

// Searcher.Query must use the model.QueryWeighter fast path and still
// match the allocating Query path (itcam/ttcam both implement it; the
// fake model here does not, covering the fallback too).
func TestSearcherQueryFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fm := randomModel(rng, 5, 40)
	ix := BuildIndex(fm)
	s := ix.AcquireSearcher()
	defer s.Release()
	got, _ := s.Query(fm, 0, 0, 6, nil)
	want, _ := BruteForce(fm, 0, 0, 6, nil)
	assertSameResults(t, got, want)
}

// QueryBatch must agree with per-query TA (and hence BruteForce) and
// align results by position.
func TestQueryBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fm := randomModel(rng, 6, 80)
	for u := 0; u < 5; u++ {
		for tt := 0; tt < 3; tt++ {
			fm.queries[[2]int{u, tt}] = randomQuery(rng, 6, true)
		}
	}
	ix := BuildIndex(fm)
	var queries []BatchQuery
	for u := 0; u < 5; u++ {
		for tt := 0; tt < 3; tt++ {
			var ex Exclude
			if (u+tt)%2 == 0 {
				banned := u
				ex = func(item int) bool { return item == banned }
			}
			queries = append(queries, BatchQuery{U: u, T: tt, K: 1 + (u+tt)%7, Exclude: ex})
		}
	}
	batch := ix.QueryBatch(fm, queries, 3)
	if len(batch) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(batch), len(queries))
	}
	for i, q := range queries {
		want, wantSt := ix.Query(fm, q.U, q.T, q.K, q.Exclude)
		assertSameResults(t, batch[i].Results, want)
		if batch[i].Stats != wantSt {
			t.Errorf("query %d: stats %+v, want %+v", i, batch[i].Stats, wantSt)
		}
	}
}

// Concurrent pooled queries must be race-free (run under -race via
// scripts/check.sh) and all return the same answer.
func TestConcurrentPooledQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	fm := randomModel(rng, 6, 200)
	ix := BuildIndex(fm)
	want, _ := BruteForce(fm, 0, 0, 10, nil)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, _ := ix.Query(fm, 0, 0, 10, nil)
				if len(got) != len(want) {
					errs <- "length mismatch"
					return
				}
				for j := range got {
					if got[j].Item != want[j].Item {
						errs <- "item mismatch"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Searcher result slices are scratch: the next query on the same
// searcher may overwrite them, but Index.Query must hand out fresh
// copies.
func TestIndexQueryReturnsOwnedResults(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fm := randomModel(rng, 4, 50)
	ix := BuildIndex(fm)
	first, _ := ix.Query(fm, 0, 0, 5, nil)
	snapshot := append([]Result(nil), first...)
	for i := 0; i < 20; i++ {
		ix.Query(fm, 0, 0, 5, func(v int) bool { return v%2 == 0 })
	}
	for i := range first {
		if first[i] != snapshot[i] {
			t.Fatal("Index.Query result mutated by later queries")
		}
	}
}

// Pooled searchers move between indexes: interleaved queries on indexes
// of different window sizes and topic counts, each through
// AcquireSearcher/Release, must all equal BruteForce, and a released
// searcher must hold no index.
func TestPooledSearcherAcrossIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type built struct {
		f  *fakeTopicModel
		ix *Index
	}
	var all []built
	for _, shape := range [][2]int{{6, 90}, {6, 40}, {6, 91}, {3, 90}} {
		f := randomModel(rng, shape[0], shape[1])
		all = append(all, built{f, BuildIndex(f)})
	}
	f := all[0].f
	all = append(all, built{f, BuildIndexRange(f, 30, 70)})
	for round := 0; round < 200; round++ {
		b := all[rng.Intn(len(all))]
		k := b.ix.NumTopics()
		q := randomQuery(rng, k, true)
		n := rng.Intn(12) + 1
		s := b.ix.AcquireSearcher()
		got, _ := s.QueryWeights(q, n, nil)
		lo, hi := b.ix.ItemRange()
		want, _ := BruteForce(queryModel{b.f, q}, 0, 0, b.f.NumItems(), nil)
		var inWindow []Result
		for _, r := range want {
			if r.Item >= lo && r.Item < hi && len(inWindow) < n {
				inWindow = append(inWindow, r)
			}
		}
		if len(got) != len(inWindow) {
			t.Fatalf("round %d: %d results, want %d", round, len(got), len(inWindow))
		}
		for i := range got {
			if got[i].Item != inWindow[i].Item {
				t.Fatalf("round %d rank %d: item %d, want %d", round, i, got[i].Item, inWindow[i].Item)
			}
		}
		s.Release()
		if s.ix != nil {
			t.Fatal("released searcher still holds its index")
		}
	}
}

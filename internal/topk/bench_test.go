package topk

// Serving benchmarks (ISSUE 1): the TA fast path must show 0 allocs/op
// at steady state, BuildIndex must scale with cores, and the batch path
// amortizes fan-out. scripts/bench_query.sh snapshots these (plus the
// httptest server benches) into BENCH_query.json.

import (
	"math/rand"
	"testing"
)

// skewedModel builds a topic model whose item weights decay like
// 1/rank (a fresh random ranking per topic) — the Zipf-like regime
// trained topic models live in and the one TA's early termination
// exploits. Uniform weights would degenerate TA into a full scan and
// benchmark the wrong thing.
func skewedModel(rng *rand.Rand, k, v int) *fakeTopicModel {
	f := &fakeTopicModel{queries: map[[2]int][]float64{}}
	harmonic := 0.0
	for r := 1; r <= v; r++ {
		harmonic += 1 / float64(r)
	}
	for z := 0; z < k; z++ {
		row := make([]float64, v)
		for r, item := range rng.Perm(v) {
			row[item] = 1 / (float64(r+1) * harmonic)
		}
		f.topics = append(f.topics, row)
	}
	return f
}

// benchSetup builds a mid-sized skewed topic model, its index, and one
// pre-materialized query-weight vector (so the benchmark isolates the
// TA core from model-side ϑq materialization).
func benchSetup(b *testing.B, topics, items int) (*fakeTopicModel, *Index, []float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	f := skewedModel(rng, topics, items)
	q := randomQuery(rng, topics, false)
	f.queries[[2]int{0, 0}] = q
	return f, BuildIndex(f), q
}

func BenchmarkTAQuery(b *testing.B) {
	_, ix, q := benchSetup(b, 32, 8192)
	s := ix.AcquireSearcher()
	defer s.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.QueryWeights(q, 10, nil)
	}
}

// BenchmarkTAQueryApprox measures the eps-budgeted early stop at a gap
// budget of 1% of the typical top score — the SLO-serving configuration
// DESIGN.md §12 describes. Must also stay allocation-free.
func BenchmarkTAQueryApprox(b *testing.B) {
	_, ix, q := benchSetup(b, 32, 8192)
	s := ix.AcquireSearcher()
	defer s.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.QueryWeightsApprox(q, 10, 1e-5, nil)
	}
}

func BenchmarkTAQueryParallel(b *testing.B) {
	_, ix, q := benchSetup(b, 32, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := ix.AcquireSearcher()
		defer s.Release()
		for pb.Next() {
			s.QueryWeights(q, 10, nil)
		}
	})
}

func BenchmarkBuildIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	f := randomModel(rng, 64, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildIndex(f)
	}
}

// BenchmarkIndexRebuild is one fold-in publish of the index: the
// BenchmarkBuildIndex model grown by a few zero-weight items (the
// catalog growth TTCAM's frozen topics see), built fresh and from the
// previous generation's index.
func BenchmarkIndexRebuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	f := randomModel(rng, 64, 20000)
	prev := BuildIndex(f)
	grown := &fakeTopicModel{queries: f.queries}
	for _, row := range f.topics {
		grown.topics = append(grown.topics, append(row[:len(row):len(row)], make([]float64, 8)...))
	}
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildIndex(grown)
		}
	})
	b.Run("from-prev", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildIndexFrom(grown, 0, grown.NumItems(), prev)
		}
	})
}

func BenchmarkQueryBatch(b *testing.B) {
	f, ix, _ := benchSetup(b, 32, 8192)
	qs := make([]BatchQuery, 64)
	for i := range qs {
		qs[i] = BatchQuery{U: 0, T: 0, K: 10}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.QueryBatch(f, qs, 0)
	}
}

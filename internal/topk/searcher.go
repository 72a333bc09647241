package topk

import (
	"fmt"
	"sync"

	"tcam/internal/model"
)

// Searcher holds the per-query scratch of the extended Threshold
// Algorithm — topic cursors, an epoch-stamped seen table, the quantized
// query vector, the list priority queue and the result heap — so
// steady-state queries allocate nothing. A Searcher serves the Index it
// was acquired for until Release; it is NOT safe for concurrent use, so
// concurrent callers take one each via AcquireSearcher.
//
// Result slices returned by a Searcher are owned by it and valid only
// until its next query or Release; callers that retain results must
// copy them (Index.Query and Index.QueryBatch do).
type Searcher struct {
	ix      *Index
	pos     []int     // per-topic cursor into the sorted lists
	seen    []uint32  // epoch stamps: seen[v] == epoch ⇔ v examined
	epoch   uint32    // current query's stamp; bumping it clears seen in O(1)
	query   []float64 // scratch for model.QueryWeighter fast path
	query32 []float32 // float32 quantization of the active ϑq vector
	pq      listHeap
	results resultHeap
	out     []Result
}

// searchers recycles Searcher scratch across queries and indexes. It is
// one process-wide pool rather than one per Index: a pool is registered
// with the runtime until the second collection after its last use, so a
// pool inside an Index would keep a retired generation's lists and
// tables alive that long. Pooled searchers hold no index.
var searchers sync.Pool

// NewSearcher returns a fresh reusable searcher for the index. Most
// callers should prefer AcquireSearcher, which recycles scratch through
// the pool.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{
		ix:      ix,
		pos:     make([]int, ix.numTopics),
		seen:    make([]uint32, ix.numItems),
		query:   make([]float64, ix.numTopics),
		query32: make([]float32, ix.numTopics),
	}
}

// AcquireSearcher takes a searcher from the pool and points it at the
// index, creating one when the pool is empty or the pooled searcher does
// not fit: it must have the index's topic count and a seen table at
// least as long as the index's window (in-process shards of one catalog
// then share searchers). Stamps past the window are never read, and the
// wraparound clear covers the whole table. Pair with Release.
//
//tcam:hotpath
func (ix *Index) AcquireSearcher() *Searcher {
	if s, ok := searchers.Get().(*Searcher); ok && len(s.pos) == ix.numTopics && len(s.seen) >= ix.numItems {
		s.ix = ix
		return s
	}
	return ix.NewSearcher()
}

// Release returns the searcher to the pool, dropping its index. The
// searcher (and any result slice it returned) must not be used
// afterwards.
//
//tcam:hotpath
func (s *Searcher) Release() {
	s.ix = nil
	searchers.Put(s)
}

// Query answers the temporal top-k query (u, t), writing results into
// searcher-owned scratch. When ts implements model.QueryWeighter the ϑq
// vector is materialized into scratch NewSearcher pre-sized to the
// index's topic count, making the whole call allocation-free at steady
// state.
//
//tcam:hotpath
func (s *Searcher) Query(ts model.TopicScorer, u, t, k int, exclude Exclude) ([]Result, Stats) {
	if qw, ok := ts.(model.QueryWeighter); ok {
		//tcamvet:ignore hotpathstrict one dispatch per query, outside the item loop; scorer is polymorphic by design
		qw.QueryWeightsInto(u, t, s.query)
		return s.QueryWeights(s.query, k, exclude)
	}
	//tcamvet:ignore hotpathstrict cold fallback for scorers without the Into fast path
	return s.QueryWeights(ts.QueryWeights(u, t), k, exclude)
}

// QueryApprox is Query with an eps score-gap budget; see
// Index.QueryApprox for the contract.
//
//tcam:hotpath
func (s *Searcher) QueryApprox(ts model.TopicScorer, u, t, k int, eps float64, exclude Exclude) ([]Result, Stats) {
	if qw, ok := ts.(model.QueryWeighter); ok {
		//tcamvet:ignore hotpathstrict one dispatch per query, outside the item loop; scorer is polymorphic by design
		qw.QueryWeightsInto(u, t, s.query)
		return s.QueryWeightsApprox(s.query, k, eps, exclude)
	}
	//tcamvet:ignore hotpathstrict cold fallback for scorers without the Into fast path
	return s.QueryWeightsApprox(ts.QueryWeights(u, t), k, eps, exclude)
}

// QueryWeights runs Algorithm 1 for an explicit ϑq vector. The result
// set and scores match BruteForce exactly (ties broken by ascending
// item index); the returned slice is valid until the searcher's next
// query or Release.
//
//tcam:hotpath
func (s *Searcher) QueryWeights(query []float64, k int, exclude Exclude) ([]Result, Stats) {
	return s.run(query, k, 0, exclude)
}

// QueryWeightsApprox runs the eps-budgeted variant of Algorithm 1 for
// an explicit ϑq vector: the loop may stop while unseen items could
// still beat the k-th returned score by up to eps, reporting the actual
// residual gap in Stats.Bound. eps == 0 is bit-identical to
// QueryWeights; eps must not be negative.
//
//tcam:hotpath
func (s *Searcher) QueryWeightsApprox(query []float64, k int, eps float64, exclude Exclude) ([]Result, Stats) {
	if eps < 0 {
		panic("topk: negative epsilon for approximate query")
	}
	return s.run(query, k, eps, exclude)
}

// run is the shared TA core behind the exact and approximate entry
// points; eps == 0 is the exact algorithm.
//
// Scratch tricks keeping the loop allocation- and rescan-free without
// changing results:
//
//   - seen is a stamp table: bumping epoch invalidates every stamp at
//     once, so reuse needs no O(V) clear (except on the ~never-hit
//     uint32 wraparound).
//   - the threshold S_TA is maintained incrementally — each pop changes
//     only the popped list's head, an O(1) delta instead of the O(K)
//     resum. Floating-point drift from the running sum could terminate a
//     hair early, so the exact O(K) recompute confirms the bound before
//     the loop actually breaks; an inflated running value merely delays
//     the cheap check and never affects correctness.
//
// The float32 fast scan (see DESIGN.md §12): list priorities come from
// the quantized score32 kernel, and when the result heap is full a
// popped candidate's screened score — its priority, already computed at
// push time — is checked against the k-th best under the index's error
// bound before paying for the exact float64 score. Priorities only
// steer pop order (TA is correct under any pop order once the exact
// threshold bound holds), every score that enters the result heap comes
// from the exact float64 confirm, and the screen bound over-covers the
// f32 error, so results stay bit-identical to the pure float64 path.
//
//tcam:hotpath
func (s *Searcher) run(query []float64, k int, eps float64, exclude Exclude) ([]Result, Stats) {
	ix := s.ix
	st := Stats{}
	if k <= 0 {
		return nil, st
	}
	if len(query) != ix.numTopics {
		panic(fmt.Sprintf("topk: query weights length %d, index has %d topics", len(query), ix.numTopics))
	}

	s.epoch++
	if s.epoch == 0 { // stamp wraparound: reset the table once per 2^32 queries
		clear(s.seen)
		s.epoch = 1
	}

	q32 := s.query32
	for z, w := range query {
		q32[z] = float32(w)
	}

	// Cursor position per topic; exhausted or zero-weight lists excluded
	// from the priority queue and the threshold.
	pos := s.pos
	s.pq = s.pq[:0]
	threshold := 0.0
	for z, w := range query {
		if w > 0 && len(ix.lists[z]) > 0 {
			pos[z] = 0
			s.pq.push(listRef{topic: z, priority: float64(ix.score32(q32, int(ix.lists[z][0].item)))})
			threshold += w * ix.lists[z][0].weight
		} else {
			pos[z] = len(ix.lists[z])
		}
	}
	if len(s.pq) == 0 {
		return nil, st
	}

	s.results.reset(k)
	results := &s.results

	for len(s.pq) > 0 {
		// Early termination (Lines 18–21 of Algorithm 1): the k-th
		// result beats every unseen item's best possible score (minus
		// the eps budget in approximate mode). Strict inequality keeps
		// ties exact: an unseen item could equal the threshold, and the
		// deterministic tie-break might prefer it.
		if results.Len() == k && results.min().Score > threshold-eps {
			threshold = ix.threshold(query, pos) // exact confirm (see above)
			if results.min().Score > threshold-eps {
				if gap := threshold - results.min().Score; gap > 0 {
					st.Bound = gap // approximate stop: residual gap < eps
				}
				break
			}
		}
		ref := s.pq.pop()
		z := ref.topic
		list := ix.lists[z]
		item := int(list[pos[z]].item) // local window offset
		st.ListPops++
		if s.seen[item] != s.epoch {
			s.seen[item] = s.epoch
			// Exclude filters and returned results speak global catalog
			// indices; a full index has itemLo == 0 so this is the
			// historical behavior there.
			gitem := item + ix.itemLo
			if exclude == nil || !exclude(gitem) {
				// f32 screen: ref.priority is this item's screened score.
				// Only candidates that could still reach the k-th best
				// under the error bound pay for the exact f64 score.
				if results.Len() < k || ref.priority*ix.screenScale+ix.screenEps >= results.min().Score {
					st.ItemsExamined++
					results.offer(Result{Item: gitem, Score: ix.Score(query, gitem)})
				} else {
					st.ScreenedOut++
				}
			}
		}
		// Advance this list's cursor, fold the head change into the
		// running threshold, and re-queue it (Lines 28–33).
		w := query[z]
		threshold -= w * list[pos[z]].weight
		pos[z]++
		if pos[z] < len(list) {
			threshold += w * list[pos[z]].weight
			ref.priority = float64(ix.score32(q32, int(list[pos[z]].item)))
			s.pq.push(ref)
		}
	}
	s.out = results.appendSorted(s.out[:0])
	if len(s.out) == 0 {
		return nil, st
	}
	return s.out, st
}

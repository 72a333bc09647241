// Package server exposes a trained TCAM bundle as an HTTP JSON API —
// the online-deployment surface of the paper's Section 4: temporal
// top-k queries answered by the Threshold Algorithm over the
// precomputed per-topic index.
//
// Endpoints:
//
//	GET  /healthz                  liveness + model metadata + bundle version
//	GET  /readyz                   readiness (503 while draining)
//	GET  /recommend?user=&time=&k= temporal top-k for a user at a time
//	POST /recommend/batch          many top-k queries in one request
//	POST /admin/reload             hot-swap the bundle from the configured source
//	GET  /topics/{z}?n=            top items of an expanded topic
//	GET  /users/{id}/lambda        the user's learned mixing weight
//
// The serving state (bundle, TA index, vocabularies) lives in an
// immutable snapshot behind an atomic pointer, so a hot reload swaps
// everything at once while in-flight requests keep the view they
// started with. Request handling is wrapped in panic
// recovery and bounded by per-endpoint in-flight limiters; see
// lifecycle.go and DESIGN.md §9.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"tcam/internal/faultinject"
	"tcam/internal/index"
	"tcam/internal/rescache"
	"tcam/internal/topk"
)

// maxBatchQueries bounds one /recommend/batch request.
const maxBatchQueries = 1024

// maxBatchBody bounds the /recommend/batch request body in bytes;
// maxBatchQueries limits the parsed count, this limits what the JSON
// decoder will even read.
const maxBatchBody = 8 << 20

// snapshot is one immutable generation of serving state. Handlers load
// it once per request; Reload publishes a fresh one atomically, so no
// request ever sees a half-swapped bundle/index/vocabulary mix.
type snapshot struct {
	bundle  *index.Bundle
	idx     *topk.Index
	userIdx map[string]int
	itemIdx map[string]int
	version uint64 // 1 for the boot bundle, +1 per reload
}

// newSnapshot builds one serving generation. A non-empty item window
// [lo, hi) builds the TA index over just that slice of the catalog —
// shard mode — while vocabularies stay global so queries speak global
// item names; lo == hi == 0 builds the full monolithic index. prev, the
// serving generation's index or nil, only saves work: the index built
// from it is bit-identical to a fresh one (topk.BuildIndexFrom).
func newSnapshot(b *index.Bundle, version uint64, lo, hi int, prev *topk.Index) *snapshot {
	sn := &snapshot{
		bundle:  b,
		userIdx: make(map[string]int, len(b.Users)),
		itemIdx: make(map[string]int, len(b.Items)),
		version: version,
	}
	if lo == 0 && hi == 0 {
		hi = len(b.Items)
	}
	sn.idx = topk.BuildIndexFrom(b.Scorer(), lo, hi, prev)
	for u, name := range b.Users {
		sn.userIdx[name] = u
	}
	for v, name := range b.Items {
		sn.itemIdx[name] = v
	}
	return sn
}

// New builds a Server (and its TA index) from a bundle. Options
// configure the lifecycle layer: in-flight limits, the reload source,
// the logger.
func New(b *index.Bundle, opts ...Option) (*Server, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	s := &Server{mux: http.NewServeMux()}
	s.recLimit.max = DefaultMaxInflight
	s.batchLimit.max = DefaultMaxInflightBatch
	for _, opt := range opts {
		opt(s)
	}
	if err := s.validateWindow(b); err != nil {
		return nil, err
	}
	s.snap.Store(newSnapshot(b, 1, s.itemLo, s.itemHi, nil))
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/recommend", s.handleRecommend)
	s.mux.HandleFunc("/recommend/batch", s.handleRecommendBatch)
	s.mux.HandleFunc("/shard/query", s.handleShardQuery)
	s.mux.HandleFunc("/admin/reload", s.handleAdminReload)
	s.mux.HandleFunc("/topics/", s.handleTopic)
	s.mux.HandleFunc("/users/", s.handleUser)
	return s, nil
}

// snapshot returns the current serving generation.
func (s *Server) snapshot() *snapshot { return s.snap.Load() }

// healthResponse is the /healthz payload. ItemRange is present only in
// shard mode, where it names the [lo, hi) window of the catalog this
// instance indexes.
type healthResponse struct {
	Status    string            `json:"status"`
	ModelKind string            `json:"model_kind"`
	Users     int               `json:"users"`
	Items     int               `json:"items"`
	Intervals int               `json:"intervals"`
	Topics    int               `json:"topics"`
	Version   uint64            `json:"version"`
	Draining  bool              `json:"draining,omitempty"`
	ItemRange *itemRangeBody    `json:"item_range,omitempty"`
	Ingest    *ingestHealthBody `json:"ingest,omitempty"`
	Cache     *cacheHealthBody  `json:"cache,omitempty"`
}

// itemRangeBody is a contiguous [Lo, Hi) catalog window in JSON form.
type itemRangeBody struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sn := s.snapshot()
	resp := healthResponse{
		Status:    "ok",
		ModelKind: string(sn.bundle.Kind),
		Users:     len(sn.bundle.Users),
		Items:     len(sn.bundle.Items),
		Intervals: sn.bundle.Grid.Num,
		Topics:    sn.bundle.Scorer().NumTopics(),
		Version:   sn.version,
		Draining:  s.draining.Load(),
	}
	if s.itemLo != 0 || s.itemHi != 0 {
		resp.ItemRange = &itemRangeBody{Lo: s.itemLo, Hi: s.itemHi}
	}
	resp.Ingest = s.ingestHealth(time.Now())
	resp.Cache = s.cacheHealth(sn)
	writeJSON(w, http.StatusOK, resp)
}

// recommendation is one entry of the /recommend payload.
type recommendation struct {
	Item  string  `json:"item"`
	Score float64 `json:"score"`
}

// recommendResponse is the /recommend payload (and one entry of the
// /recommend/batch payload, where a per-query failure sets Error).
type recommendResponse struct {
	User            string           `json:"user"`
	Interval        int              `json:"interval"`
	Recommendations []recommendation `json:"recommendations"`
	ItemsExamined   int              `json:"items_examined"`
	Error           string           `json:"error,omitempty"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if !s.recLimit.tryAcquire() {
		shedLoad(w, "recommend capacity saturated")
		return
	}
	defer s.recLimit.release()
	faultinject.Fire("server.recommend")
	if r.Context().Err() != nil {
		httpError(w, http.StatusServiceUnavailable, "request cancelled")
		return
	}
	sn := s.snapshot()
	q := r.URL.Query()
	userID := q.Get("user")
	u, ok := sn.userIdx[userID]
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown user %q", userID))
		return
	}
	when, err := strconv.ParseInt(q.Get("time"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "time must be an integer timestamp in dataset ticks")
		return
	}
	k := 10
	if raw := q.Get("k"); raw != "" {
		k, err = strconv.Atoi(raw)
		if err != nil || k <= 0 || k > 1000 {
			httpError(w, http.StatusBadRequest, "k must be in [1,1000]")
			return
		}
	}
	var exclude topk.Exclude
	var exh rescache.SetHash
	if raw := q.Get("exclude"); raw != "" {
		ex := sn.acquireExclude()
		defer excludeSets.Put(ex)
		for raw != "" {
			var id string
			id, raw, _ = strings.Cut(raw, ",")
			// Deduplicate while resolving so the set hash is canonical:
			// ?exclude=a,a,b and ?exclude=b,a share one cache entry.
			if v, ok := sn.itemIdx[id]; ok && !ex.has(v) {
				ex.add(v)
				exh.Add(uint64(v))
			}
		}
		exclude = ex.has
	}
	t := sn.bundle.Grid.IntervalOf(when)
	if s.hot != nil {
		s.hot.Observe(rescache.HashString(userID))
	}
	key := topkKey(u, t, k, &exh)
	if s.cache != nil {
		if v, ok := s.cache.Get(sn.version, key); ok {
			s.writeTopK(w, sn, userID, t, v.results, v.itemsExamined)
			return
		}
	}
	// Render the response before Release: the pooled searcher owns the
	// result slice, which saves the copy Index.Query would make.
	sr := sn.idx.AcquireSearcher()
	results, st := sr.Query(sn.bundle.Scorer(), u, t, k, exclude)
	if s.cache != nil {
		s.cache.Put(sn.version, key, newCachedTopK(results, st))
	}
	s.writeTopK(w, sn, userID, t, results, st.ItemsExamined)
	sr.Release()
}

// writeTopK renders one /recommend payload from a ranked result slice
// — the shared tail of the cached and computed paths, so a hit is
// byte-identical to the response the TA search would have written.
func (s *Server) writeTopK(w http.ResponseWriter, sn *snapshot, userID string, t int, results []topk.Result, itemsExamined int) {
	recs := recsPool.Get().(*[]recommendation)
	resp := recommendResponse{User: userID, Interval: t, ItemsExamined: itemsExamined}
	resp.Recommendations = (*recs)[:0]
	for _, res := range results {
		resp.Recommendations = append(resp.Recommendations, recommendation{
			Item:  sn.bundle.Items[res.Item],
			Score: res.Score,
		})
	}
	writeJSON(w, http.StatusOK, resp)
	*recs = resp.Recommendations[:0]
	recsPool.Put(recs)
}

// batchQuery is one entry of the /recommend/batch request body.
type batchQuery struct {
	User    string   `json:"user"`
	Time    int64    `json:"time"`
	K       int      `json:"k"`
	Exclude []string `json:"exclude,omitempty"`
}

// batchRequest is the /recommend/batch request body.
type batchRequest struct {
	Queries []batchQuery `json:"queries"`
}

// batchReqPool recycles decoded batch requests; encoding/json reuses
// the Queries backing array when its capacity suffices, so steady-state
// batches skip the per-entry slice growth.
var batchReqPool = sync.Pool{New: func() interface{} { return new(batchRequest) }}

// batchResponse is the /recommend/batch payload; Results aligns with
// the request's Queries by position. When the request's context is
// cancelled mid-batch, Truncated is true and Results holds only the
// longest fully-answered prefix.
type batchResponse struct {
	Results   []recommendResponse `json:"results"`
	Truncated bool                `json:"truncated,omitempty"`
}

// handleRecommendBatch answers many temporal top-k queries in one POST,
// fanning them across CPUs with Index.QueryBatchContext (pooled
// searcher scratch per worker, cooperative cancellation between
// queries). Invalid entries fail individually via their Error field;
// the batch itself only fails on malformed JSON or size. A cancelled
// request returns the completed prefix with "truncated": true, or 503
// when nothing completed.
func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.batchLimit.tryAcquire() {
		shedLoad(w, "batch capacity saturated")
		return
	}
	defer s.batchLimit.release()
	req := batchReqPool.Get().(*batchRequest)
	defer func() {
		// Drop per-entry pointers so pooled capacity doesn't pin strings.
		for i := range req.Queries {
			req.Queries[i] = batchQuery{}
		}
		req.Queries = req.Queries[:0]
		batchReqPool.Put(req)
	}()
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	if err := json.NewDecoder(r.Body).Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad batch body: %v", err))
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "batch needs at least one query")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch limited to %d queries", maxBatchQueries))
		return
	}
	faultinject.Fire("server.batch")
	sn := s.snapshot()
	resp := batchResponse{Results: make([]recommendResponse, len(req.Queries))}
	queries := make([]topk.BatchQuery, len(req.Queries))
	var cstate []batchCacheState
	if s.cache != nil {
		cstate = make([]batchCacheState, len(req.Queries))
	}
	for i, q := range req.Queries {
		out := &resp.Results[i]
		out.User = q.User
		u, ok := sn.userIdx[q.User]
		if !ok {
			out.Error = fmt.Sprintf("unknown user %q", q.User)
			continue // zero-value BatchQuery: K=0 ranks nothing
		}
		k := q.K
		if k == 0 {
			k = 10
		}
		if k < 0 || k > 1000 {
			out.Error = "k must be in [1,1000]"
			continue
		}
		var exclude topk.Exclude
		var exh rescache.SetHash
		if len(q.Exclude) > 0 {
			banned := make(map[int]bool, len(q.Exclude))
			for _, id := range q.Exclude {
				if v, ok := sn.itemIdx[id]; ok && !banned[v] {
					banned[v] = true
					exh.Add(uint64(v))
				}
			}
			exclude = func(v int) bool { return banned[v] }
		}
		out.Interval = sn.bundle.Grid.IntervalOf(q.Time)
		if s.hot != nil {
			s.hot.Observe(rescache.HashString(q.User))
		}
		if cstate != nil {
			cstate[i].key = topkKey(u, out.Interval, k, &exh)
			if v, ok := s.cache.Get(sn.version, cstate[i].key); ok {
				cstate[i].val, cstate[i].hit = v, true
				continue // cached: the zero-value BatchQuery skips the TA
			}
		}
		queries[i] = topk.BatchQuery{U: u, T: out.Interval, K: k, Exclude: exclude}
	}
	batch := sn.idx.QueryBatchContext(r.Context(), sn.bundle.Scorer(), queries, 0)
	// One arena backs every query's Recommendations: a single sized
	// allocation (plus capped windows so a stray append can't alias a
	// neighbour) instead of one grown slice per query.
	total := 0
	for i, br := range batch {
		if cstate != nil && cstate[i].hit {
			total += len(cstate[i].val.results)
			continue
		}
		total += len(br.Results)
	}
	arena := make([]recommendation, 0, total)
	for i, br := range batch {
		out := &resp.Results[i]
		if out.Error != "" {
			continue
		}
		results, examined := br.Results, br.Stats.ItemsExamined
		if cstate != nil {
			if cstate[i].hit {
				results, examined = cstate[i].val.results, cstate[i].val.itemsExamined
			} else if br.Done {
				// Done guards against caching the empty answer of a
				// query the cancelled batch never ran.
				s.cache.Put(sn.version, cstate[i].key, newCachedTopK(br.Results, br.Stats))
			}
		}
		out.ItemsExamined = examined
		start := len(arena)
		for _, res := range results {
			arena = append(arena, recommendation{
				Item:  sn.bundle.Items[res.Item],
				Score: res.Score,
			})
		}
		out.Recommendations = arena[start:len(arena):len(arena)]
	}
	if r.Context().Err() != nil {
		// Cancelled mid-batch: keep the longest fully-answered prefix.
		done := 0
		for done < len(batch) && batch[done].Done {
			done++
		}
		if done == 0 {
			httpError(w, http.StatusServiceUnavailable, "request cancelled")
			return
		}
		resp.Results = resp.Results[:done]
		resp.Truncated = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// topicResponse is the /topics/{z} payload.
type topicResponse struct {
	Topic    int              `json:"topic"`
	Kind     string           `json:"kind"`
	TopItems []recommendation `json:"top_items"`
}

func (s *Server) handleTopic(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sn := s.snapshot()
	raw := strings.TrimPrefix(r.URL.Path, "/topics/")
	z, err := strconv.Atoi(raw)
	scorer := sn.bundle.Scorer()
	if err != nil || z < 0 || z >= scorer.NumTopics() {
		httpError(w, http.StatusNotFound, fmt.Sprintf("topic must be in [0,%d)", scorer.NumTopics()))
		return
	}
	n := 10
	if rawN := r.URL.Query().Get("n"); rawN != "" {
		n, err = strconv.Atoi(rawN)
		if err != nil || n <= 0 || n > 1000 {
			httpError(w, http.StatusBadRequest, "n must be in [1,1000]")
			return
		}
	}
	weights := scorer.TopicItems(z)
	top, _ := topk.BruteForce(weightModel{weights}, 0, 0, n, nil)
	resp := topicResponse{Topic: z, Kind: sn.topicKind(z)}
	for _, res := range top {
		resp.TopItems = append(resp.TopItems, recommendation{Item: sn.bundle.Items[res.Item], Score: res.Score})
	}
	writeJSON(w, http.StatusOK, resp)
}

// topicKind labels an expanded-topic index as user- or time-oriented.
func (sn *snapshot) topicKind(z int) string {
	switch sn.bundle.Kind {
	case index.KindTTCAM:
		if z < sn.bundle.TTCAM.K1() {
			return "user-oriented"
		}
		if z < sn.bundle.TTCAM.K1()+sn.bundle.TTCAM.K2() {
			return "time-oriented"
		}
		return "background"
	default:
		if z < sn.bundle.ITCAM.K1() {
			return "user-oriented"
		}
		return "interval-context"
	}
}

// lambdaResponse is the /users/{id}/lambda payload.
type lambdaResponse struct {
	User string `json:"user"`
	// Lambda is the personal-interest influence probability λu; the
	// temporal-context influence is 1−λu.
	Lambda float64 `json:"lambda"`
}

func (s *Server) handleUser(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sn := s.snapshot()
	rest := strings.TrimPrefix(r.URL.Path, "/users/")
	parts := strings.Split(rest, "/")
	if len(parts) != 2 || parts[1] != "lambda" {
		httpError(w, http.StatusNotFound, "want /users/{id}/lambda")
		return
	}
	u, ok := sn.userIdx[parts[0]]
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown user %q", parts[0]))
		return
	}
	var lambda float64
	switch sn.bundle.Kind {
	case index.KindTTCAM:
		lambda = sn.bundle.TTCAM.Lambda(u)
	default:
		lambda = sn.bundle.ITCAM.Lambda(u)
	}
	writeJSON(w, http.StatusOK, lambdaResponse{User: parts[0], Lambda: lambda})
}

// excludeSet is a reusable catalog-sized exclusion filter. Membership is
// an epoch stamp, so recycling it for the next request is an O(1) epoch
// bump instead of an O(V) clear or a fresh per-request map.
type excludeSet struct {
	stamp []uint32
	epoch uint32
}

//tcam:hotpath
func (e *excludeSet) add(v int) { e.stamp[v] = e.epoch }

//tcam:hotpath
func (e *excludeSet) has(v int) bool { return e.stamp[v] == e.epoch }

// excludeSets recycles exclude sets across requests and generations. It
// is one process-wide pool, not one per snapshot, for the reason the TA
// searcher pool is: a pool stays registered with the runtime until the
// second collection after its last use, so a pool on the snapshot would
// keep a retired generation's bundle and index alive that long.
var excludeSets sync.Pool

// acquireExclude takes an empty exclude set sized to the snapshot's
// catalog, which a reload may change; return it with excludeSets.Put
// once the query no longer holds it.
func (sn *snapshot) acquireExclude() *excludeSet {
	if e, ok := excludeSets.Get().(*excludeSet); ok && len(e.stamp) == len(sn.bundle.Items) {
		e.epoch++
		if e.epoch == 0 { // stamp wraparound: reset once per 2^32 uses
			clear(e.stamp)
			e.epoch = 1
		}
		return e
	}
	return &excludeSet{stamp: make([]uint32, len(sn.bundle.Items)), epoch: 1}
}

// weightModel ranks a bare weight vector through the topk machinery.
type weightModel struct{ weights []float64 }

func (m weightModel) Name() string              { return "topic" }
func (m weightModel) NumItems() int             { return len(m.weights) }
func (m weightModel) Score(_, _, v int) float64 { return m.weights[v] }

type errorResponse struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// shedLoad rejects an over-capacity request with 429 and a Retry-After
// hint, the tail-at-scale alternative to queueing unboundedly.
func shedLoad(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusTooManyRequests, msg)
}

// jsonScratch is pooled response-encoding scratch: the buffer and its
// bound encoder are reused across requests, so steady-state responses
// cost zero encoder/buffer allocations (the encoder's internal state is
// reused too). Buffers that ballooned on a large response are dropped
// rather than pooled so one /topics?n=1000 burst can't pin memory.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledEncodeBuf caps the buffer size returned to the encode pool.
const maxPooledEncodeBuf = 64 << 10

var encodePool = sync.Pool{New: func() interface{} {
	s := &jsonScratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

func writeJSON(w http.ResponseWriter, code int, payload interface{}) {
	s := encodePool.Get().(*jsonScratch)
	s.buf.Reset()
	if err := s.enc.Encode(payload); err != nil {
		// Encoding failed before anything hit the wire; report it whole.
		encodePool.Put(s)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = fmt.Fprintf(w, `{"error":%q}`, "response encoding failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(s.buf.Bytes())
	if s.buf.Cap() <= maxPooledEncodeBuf {
		encodePool.Put(s)
	}
}

// recsPool recycles the recommendation slices backing /recommend and
// /recommend/batch payloads; writeJSON is synchronous, so handlers can
// return the slice right after it.
var recsPool = sync.Pool{New: func() interface{} {
	s := make([]recommendation, 0, 64)
	return &s
}}

package server

// The shard-facing query surface (DESIGN.md §14). A coordinator
// scatter-gathers POST /shard/query across the shard fleet and merges
// the partial top-k lists; each response therefore carries global item
// indices (the merge tie-break key), item names (so the coordinator
// needs no vocabulary of its own), exact float64 scores (Go's JSON
// shortest-representation round-trip keeps them bit-identical), and the
// shard's item window + bundle version (so the coordinator can detect
// overlap, gaps, or mixed-generation fleets).

import (
	"encoding/json"
	"fmt"
	"net/http"

	"tcam/internal/faultinject"
	"tcam/internal/topk"
)

// maxShardBody bounds the /shard/query request body in bytes.
const maxShardBody = 1 << 20

// shardQueryRequest is the POST /shard/query body.
type shardQueryRequest struct {
	User string `json:"user"`
	Time int64  `json:"time"`
	K    int    `json:"k"`
	// Exclude lists global item names to filter, same as /recommend.
	Exclude []string `json:"exclude,omitempty"`
}

// shardResult is one entry of a partial top-k: the global item index
// carries the tie-break identity, the name spares the coordinator a
// vocabulary, and the score is the exact float64 the TA computed.
type shardResult struct {
	Item  int     `json:"item"`
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// shardQueryResponse is the /shard/query payload.
type shardQueryResponse struct {
	User          string        `json:"user"`
	Interval      int           `json:"interval"`
	ItemLo        int           `json:"item_lo"`
	ItemHi        int           `json:"item_hi"`
	Version       uint64        `json:"version"`
	Results       []shardResult `json:"results"`
	ItemsExamined int           `json:"items_examined"`
}

// handleShardQuery answers one partial top-k over this instance's item
// window. It also works in monolithic mode (the window is then the full
// catalog), so a one-shard "fleet" is just a plain server.
func (s *Server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.recLimit.tryAcquire() {
		shedLoad(w, "shard query capacity saturated")
		return
	}
	defer s.recLimit.release()
	faultinject.Fire("server.shard")
	if r.Context().Err() != nil {
		httpError(w, http.StatusServiceUnavailable, "request cancelled")
		return
	}
	var req shardQueryRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxShardBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad shard query body: %v", err))
		return
	}
	sn := s.snapshot()
	u, ok := sn.userIdx[req.User]
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown user %q", req.User))
		return
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	if k < 0 || k > 1000 {
		httpError(w, http.StatusBadRequest, "k must be in [1,1000]")
		return
	}
	var exclude topk.Exclude
	if len(req.Exclude) > 0 {
		ex := sn.acquireExclude()
		defer excludeSets.Put(ex)
		for _, id := range req.Exclude {
			if v, ok := sn.itemIdx[id]; ok {
				ex.add(v)
			}
		}
		exclude = ex.has
	}
	t := sn.bundle.Grid.IntervalOf(req.Time)
	lo, hi := sn.idx.ItemRange()
	sr := sn.idx.AcquireSearcher()
	results, st := sr.Query(sn.bundle.Scorer(), u, t, k, exclude)
	resp := shardQueryResponse{
		User:          req.User,
		Interval:      t,
		ItemLo:        lo,
		ItemHi:        hi,
		Version:       sn.version,
		Results:       make([]shardResult, 0, len(results)),
		ItemsExamined: st.ItemsExamined,
	}
	for _, res := range results {
		resp.Results = append(resp.Results, shardResult{
			Item:  res.Item,
			Name:  sn.bundle.Items[res.Item],
			Score: res.Score,
		})
	}
	sr.Release()
	writeJSON(w, http.StatusOK, resp)
}

package main

// The correctness oracle: served answers are decoded and compared, item
// by item and with float64 scores equal, against an independent ranking
// of the same bundle. A mismatch is counted as a wrong answer and
// reported; it is never filtered out.

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"tcam/internal/topk"
)

// query is one generated request, in boot-vocabulary indices.
type query struct {
	user int
	when int64
	k    int
}

// answer is the part of a /recommend payload (server or coordinator)
// the oracle checks.
type answer struct {
	Recommendations []struct {
		Item  string  `json:"item"`
		Score float64 `json:"score"`
	} `json:"recommendations"`
	Degraded bool   `json:"degraded"`
	Error    string `json:"error"`
}

// recommendURL renders q as a GET /recommend URL against base.
func (w *world) recommendURL(base string, q query) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteString("/recommend?user=")
	b.WriteString(url.QueryEscape(w.boot.Users[q.user]))
	b.WriteString("&time=")
	b.WriteString(strconv.FormatInt(q.when, 10))
	b.WriteString("&k=")
	b.WriteString(strconv.Itoa(q.k))
	return b.String()
}

// batchBody renders queries as a POST /recommend/batch body.
func (w *world) batchBody(qs []query) []byte {
	type bq struct {
		User string `json:"user"`
		Time int64  `json:"time"`
		K    int    `json:"k"`
	}
	body := struct {
		Queries []bq `json:"queries"`
	}{Queries: make([]bq, len(qs))}
	for i, q := range qs {
		body.Queries[i] = bq{User: w.boot.Users[q.user], Time: q.when, K: q.k}
	}
	b, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("tcambench: encode batch: %v", err))
	}
	return b
}

// oracle ranks queries independently of the serving path. Reference
// answers are memoized per query shape, so repeated hot keys cost one
// brute-force scan.
type oracle struct {
	w  *world
	mu sync.Mutex
	bf map[[3]int][]topk.Result
}

func newOracle(w *world) *oracle { return &oracle{w: w, bf: map[[3]int][]topk.Result{}} }

// bruteForce is topk.BruteForce on the boot bundle: every item scored.
func (o *oracle) bruteForce(q query) []topk.Result {
	t := o.w.boot.Grid.IntervalOf(q.when)
	key := [3]int{q.user, t, q.k}
	o.mu.Lock()
	defer o.mu.Unlock()
	if r, ok := o.bf[key]; ok {
		return r
	}
	r, _ := topk.BruteForce(o.w.model, q.user, t, q.k, nil)
	o.bf[key] = r
	return r
}

// monolith is the unsharded TA index's answer.
func (o *oracle) monolith(q query) []topk.Result {
	t := o.w.boot.Grid.IntervalOf(q.when)
	r, _ := o.w.idx.Query(o.w.model, q.user, t, q.k, nil)
	return r
}

// compare checks a served answer against the reference ranking.
func (o *oracle) compare(q query, got *answer, want []topk.Result) error {
	if got.Error != "" {
		return fmt.Errorf("user %s: served error %q", o.w.boot.Users[q.user], got.Error)
	}
	if got.Degraded {
		return fmt.Errorf("user %s: degraded answer", o.w.boot.Users[q.user])
	}
	if len(got.Recommendations) != len(want) {
		return fmt.Errorf("user %s: %d items served, %d expected", o.w.boot.Users[q.user], len(got.Recommendations), len(want))
	}
	for i, r := range want {
		g := got.Recommendations[i]
		if g.Item != o.w.boot.Items[r.Item] || g.Score != r.Score {
			return fmt.Errorf("user %s rank %d: served (%s, %v), expected (%s, %v)",
				o.w.boot.Users[q.user], i, g.Item, g.Score, o.w.boot.Items[r.Item], r.Score)
		}
	}
	return nil
}

// check decodes body and compares it; corrupt perturbs the decoded
// answer first, which is how the self-test proves mismatches surface.
func (o *oracle) check(q query, body []byte, want []topk.Result, corrupt bool) error {
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	if corrupt && len(a.Recommendations) > 0 {
		a.Recommendations[0].Score *= 1 + 1e-12
	}
	return o.compare(q, &a, want)
}

// checker collects a deterministic sample of served bodies during a
// phase and verifies them after it, off the timed path.
type checker struct {
	every   int // sample request i when i%every == 0
	mu      sync.Mutex
	samples map[int][]byte
}

func newChecker(every int) *checker { return &checker{every: every, samples: map[int][]byte{}} }

// keep stores a copy of body when request i is in the sample.
func (c *checker) keep(i int, body []byte) {
	if c == nil || i%c.every != 0 {
		return
	}
	b := append([]byte(nil), body...)
	c.mu.Lock()
	c.samples[i] = b
	c.mu.Unlock()
}

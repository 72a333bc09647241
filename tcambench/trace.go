package main

// In-memory span recording for the traced run. Spans go only around the
// calls the benchmark itself makes into a layer; they are kept in memory
// and written out when the run ends. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"tcam/internal/model"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent names the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

// newTracer preallocates room for a run's spans, so recording one never
// copies the whole set under the lock.
func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<18)} }

// openSpan is a started span; end records it.
type openSpan struct {
	t  *tracer
	sp span
}

// start opens a root span for request req (0 when the call serves no
// single request).
func (t *tracer) start(name string, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, sp: span{
		ID: t.ids.Add(1), Req: req, Name: name,
		Start: int64(time.Since(t.origin)),
	}}
}

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.sp.End = int64(time.Since(o.t.origin))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.sp)
	o.t.mu.Unlock()
}

// record adds an already-measured span.
func (t *tracer) record(name string, req, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	sp := span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return sp.ID
}

// emHook records each EM iteration as a span with its E- and M-step
// children, reconstructed from the engine's per-iteration record.
func (t *tracer) emHook() func(model.IterStat) {
	return func(st model.IterStat) {
		end := time.Now()
		start := end.Add(-st.Wall)
		it := t.record("train.iteration", 0, 0, start, end)
		t.record("train.estep", 0, it, start, start.Add(st.EStep))
		t.record("train.mstep", 0, it, start.Add(st.EStep), start.Add(st.EStep+st.MStep))
	}
}

// write stores the spans as JSON.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

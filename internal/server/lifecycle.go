package server

// Lifecycle and fault-tolerance layer (DESIGN.md §9): panic recovery,
// bounded in-flight admission control, drain-aware readiness, and
// atomic hot reload of the serving snapshot.

import (
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"tcam/internal/index"
	"tcam/internal/rescache"
)

// Default per-endpoint in-flight budgets. The single-query endpoint is
// microseconds of TA work, so its budget is mostly a safety valve; a
// batch pins every CPU for its whole duration, so its budget is small.
const (
	DefaultMaxInflight      = 1024
	DefaultMaxInflightBatch = 64
)

// Server routes recommendation traffic onto the current serving
// snapshot. It is safe for concurrent use, including concurrent
// Reload.
type Server struct {
	snap       atomic.Pointer[snapshot]
	draining   atomic.Bool
	recLimit   inflightLimiter
	batchLimit inflightLimiter

	// itemLo/itemHi is the shard item window; both zero means the full
	// catalog (monolithic mode). Immutable after New, so reloads keep
	// serving the same partition.
	itemLo, itemHi int

	// ingestStat is the attached Updater's view for /healthz; nil until
	// an updater attaches (updater.go).
	ingestStat atomic.Pointer[ingestStatus]

	// cache is the epoch-versioned result cache (cache.go); nil unless
	// WithCache enabled it. hot tracks request frequency per user for
	// publish-time precomputation; it is non-nil exactly when cache is.
	cache          *rescache.Cache[cachedTopK]
	hot            *rescache.HotTracker
	precomputeHot  int           // hottest users warmed per publish
	hotPrecomputed atomic.Uint64 // users actually warmed by the latest publish

	reloadMu sync.Mutex // serializes Reload/ReloadFromSource
	reload   func() (*index.Bundle, error)
	logger   *log.Logger

	mux *http.ServeMux
}

// Option configures the lifecycle layer at construction.
type Option func(*Server)

// WithLimits bounds concurrent in-flight requests per endpoint:
// recommend for /recommend, batch for /recommend/batch. Requests over
// budget are shed with 429 + Retry-After instead of queueing. A
// non-positive value means unlimited.
func WithLimits(recommend, batch int) Option {
	return func(s *Server) {
		s.recLimit.max = int64(recommend)
		s.batchLimit.max = int64(batch)
	}
}

// WithReloader installs the bundle source /admin/reload and
// ReloadFromSource pull from — typically a closure re-reading the
// bundle path the server booted with.
func WithReloader(load func() (*index.Bundle, error)) Option {
	return func(s *Server) { s.reload = load }
}

// WithLogger directs lifecycle logging (recovered panics, reloads).
// Without it the server is silent.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithItemRange puts the server in shard mode: the TA index covers only
// catalog items in [lo, hi), while vocabularies stay global so queries
// and responses speak global item names and indices. /shard/query
// serves the partial top-k a coordinator merges, /healthz reports the
// window, and hot reloads rebuild the same window. New rejects a window
// that is empty or outside the bundle's catalog.
func WithItemRange(lo, hi int) Option {
	return func(s *Server) {
		s.itemLo = lo
		s.itemHi = hi
	}
}

// validateWindow checks the configured shard window against a bundle's
// catalog. The zero window (monolithic mode) is always valid.
func (s *Server) validateWindow(b *index.Bundle) error {
	if s.itemLo == 0 && s.itemHi == 0 {
		return nil
	}
	if s.itemLo < 0 || s.itemHi <= s.itemLo || s.itemHi > len(b.Items) {
		return fmt.Errorf("server: item window [%d,%d) invalid for a %d-item catalog",
			s.itemLo, s.itemHi, len(b.Items))
	}
	return nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// ServeHTTP implements http.Handler: panic containment around the
// routed handler. A panicking handler produces one logged 500 (when
// nothing has been written yet) and never takes the process down.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &containedWriter{ResponseWriter: w}
	defer func() {
		if v := recover(); v != nil {
			s.logf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			if !cw.wrote {
				httpError(cw, http.StatusInternalServerError, "internal error")
			}
		}
	}()
	s.mux.ServeHTTP(cw, r)
}

// containedWriter tracks whether a handler wrote anything, so panic
// recovery knows if a 500 can still be delivered on the connection.
type containedWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *containedWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *containedWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// inflightLimiter bounds concurrent requests with a plain counter — no
// queue, by design: under overload the cheapest correct behavior is an
// immediate shed the client can back off from (429 + Retry-After), not
// an unbounded queue that converts overload into latency for everyone.
type inflightLimiter struct {
	max int64
	cur atomic.Int64
}

// tryAcquire claims an in-flight slot, reporting false when the budget
// is exhausted. Pair with release. On the recommend fast path, so it
// must stay allocation-free.
//
//tcam:hotpath
func (l *inflightLimiter) tryAcquire() bool {
	if l.max <= 0 {
		return true
	}
	if l.cur.Add(1) > l.max {
		l.cur.Add(-1)
		return false
	}
	return true
}

// release returns a slot claimed by a successful tryAcquire.
//
//tcam:hotpath
func (l *inflightLimiter) release() {
	if l.max > 0 {
		l.cur.Add(-1)
	}
}

// StartDrain flips the server to draining: /readyz starts answering 503
// so load balancers stop sending traffic, while /healthz stays 200 and
// in-flight (and even newly arriving) requests are still served. Call
// it before http.Server.Shutdown so the fleet deregisters the instance
// ahead of the listener closing.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// readyResponse is the /readyz payload.
type readyResponse struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
}

// handleReady is the readiness probe: 200 while serving, 503 once
// draining. Liveness (/healthz) deliberately stays 200 during drain —
// the process is healthy, it just no longer wants new traffic.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	resp := readyResponse{Status: "ready", Version: s.snapshot().version}
	if s.draining.Load() {
		resp.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// Reload atomically swaps in a new bundle: the TA index and
// vocabularies are rebuilt off to the side and published in one atomic
// pointer store, so queries in flight finish on the old snapshot and
// the next request sees the new one. Retraining therefore never
// requires downtime. The new index is built from the serving one, which
// makes a fold-in publish cost what the stream changed; the result is
// the same index a fresh build gives.
func (s *Server) Reload(b *index.Bundle) (uint64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if err := s.validateWindow(b); err != nil {
		return 0, err // new catalog no longer covers this shard's window
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	cur := s.snap.Load()
	sn := newSnapshot(b, cur.version+1, s.itemLo, s.itemHi, cur.idx)
	// Warm the new epoch before it goes live: a request can only name
	// this version once the store below publishes it, so hot users find
	// their answers already cached on their first post-publish hit.
	s.precompute(sn)
	s.snap.Store(sn)
	s.logf("reloaded bundle: version %d, %d users, %d items", sn.version, len(b.Users), len(b.Items))
	return sn.version, nil
}

// ReloadFromSource pulls a fresh bundle from the WithReloader source
// and swaps it in. The SIGHUP handler and /admin/reload both land
// here; a load or validation failure leaves the current snapshot
// serving untouched.
func (s *Server) ReloadFromSource() (uint64, error) {
	if s.reload == nil {
		return 0, errNoReloader
	}
	b, err := s.reload()
	if err != nil {
		s.logf("reload failed, keeping current bundle: %v", err)
		return 0, err
	}
	return s.Reload(b)
}

// errNoReloader distinguishes "reload unsupported" (501) from a failed
// reload (500).
var errNoReloader = errNoReloaderType{}

type errNoReloaderType struct{}

func (errNoReloaderType) Error() string { return "server: no reload source configured" }

// reloadResponse is the /admin/reload payload.
type reloadResponse struct {
	Status  string `json:"status"`
	Version uint64 `json:"version"`
}

// handleAdminReload hot-swaps the bundle from the configured source.
// POST-only: reloading is a mutation. Failures keep the old bundle and
// report 500 (or 501 when no source is configured).
func (s *Server) handleAdminReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	version, err := s.ReloadFromSource()
	if err == errNoReloader {
		httpError(w, http.StatusNotImplemented, err.Error())
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{Status: "reloaded", Version: version})
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tcam/internal/index"
	"tcam/internal/ingest"
	"tcam/internal/server"
)

// mono is the monolithic server a workload serves from, reused by the
// traced run's handler and loopback rungs.
type mono struct {
	srv *server.Server
	url string
}

// startMono builds the workload's monolithic server and puts it on a
// listener.
func (e *env) startMono(cached bool) (mono, error) {
	srv, newS, err := e.newServer(cached)
	if err != nil {
		return mono{}, err
	}
	e.set("server.new_s", newS)
	u, err := e.serve(srv)
	return mono{srv: srv, url: u}, err
}

// cacheCounters reads the result-cache counters from /healthz.
type cacheCounters struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	HotPrecomputed uint64 `json:"hot_precomputed"`
}

func cacheOf(c *conn, base string) (cacheCounters, error) {
	status, body, err := c.get(base + "/healthz")
	if err != nil || status != 200 {
		return cacheCounters{}, fmt.Errorf("healthz: status %d, %v", status, err)
	}
	var h struct {
		Cache *cacheCounters `json:"cache"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return cacheCounters{}, err
	}
	if h.Cache == nil {
		return cacheCounters{}, nil
	}
	return *h.Cache, nil
}

// setCache records hit ratio and hot precomputes between two readings.
func (e *env) setCache(before, after cacheCounters) {
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	e.set("rescache.hit_ratio", ratio)
	e.set("rescache.hot_precomputed", float64(after.HotPrecomputed-before.HotPrecomputed))
}

// setLatency records the workload's headline latency pair.
func (e *env) setLatency(p50, p90, late float64) {
	e.set("p50_ms", p50)
	e.set("p90_ms", p90)
	e.set("traced.p50_ms", p50)
	e.set("traced.p90_ms", p90)
	e.set("loadgen.late_ms_p99", late)
}

func (e *env) hotRead() error {
	m, err := e.startMono(true)
	if err != nil {
		return err
	}
	e.mono = m
	e.setupDone()
	qs, err := e.hotQueries(1<<16, 1)
	if err != nil {
		return err
	}
	// Warm up as after a deploy: traffic fills the hot-user sketch, a
	// publish precomputes the hot users into a new epoch, and more
	// traffic fills that epoch, so the measured phase sees the steady
	// hit ratio rather than the first request of every user.
	cs := newConns(e.wl.conns)
	defer func() {
		for _, c := range cs {
			c.close()
		}
	}()
	urls := e.urls(m.url, qs)
	closedLoop("warmup", e.dur(0.5), e.wl.conns, e.getOp(cs, urls, nil), nil)
	before, err := cacheOf(cs[0], m.url)
	if err != nil {
		return err
	}
	if _, err := m.srv.Reload(e.w.boot); err != nil {
		return err
	}
	closedLoop("warmup", e.dur(1), e.wl.conns, e.getOp(cs, urls, nil), nil)
	chk := newChecker(16)
	p := closedLoop("hot-read.closed", e.dur(6), e.wl.conns, e.getOp(cs, urls, chk), e.tr)
	e.verify(&p, chk, qs, e.or.bruteForce)
	e.addPhase(p)
	e.setLatency(p.P50ms, p.P90ms, p.LateP99)
	e.set("rate_per_s", float64(p.OK)/p.Seconds)
	c := newConn()
	defer c.close()
	after, err := cacheOf(c, m.url)
	if err != nil {
		return err
	}
	e.setCache(before, after)
	return nil
}

// probeUser is a user absent from every generated world (whose users are
// named u%05d); the ingest producer gives it one event, so the run can
// assert that a user first seen in the stream is served.
const probeUser = "stream-probe-user"

func (e *env) ingestRead() error {
	m, err := e.startMono(true)
	if err != nil {
		return err
	}
	e.mono = m
	in, err := e.openIngest(m.srv, "ingest")
	if err != nil {
		return err
	}
	e.setupDone()
	qs, err := e.hotQueries(1<<16, 1)
	if err != nil {
		return err
	}
	urls := e.urls(m.url, qs)
	reader := newConns(e.wl.conns)
	defer reader[0].close()
	openLoop(e.pace, "warmup", e.rng(2), e.wl.rate, e.dur(0.5), e.wl.conns, e.getOp(reader, urls, nil), nil)
	before, err := cacheOf(reader[0], m.url)
	if err != nil {
		return err
	}
	d := e.dur(12)
	if e.opts.trace {
		d = e.dur(4)
	}
	var reads phase
	fresh, genPerS, err := in.run(e, d, func() {
		reads = openLoop(e.pace, "ingest-read.reads", e.rng(3), e.wl.rate, d, e.wl.conns, e.getOp(reader, urls, nil), e.tr)
	})
	if err != nil {
		return err
	}
	e.addPhase(reads)
	after, err := cacheOf(reader[0], m.url)
	if err != nil {
		return err
	}
	e.setCache(before, after)
	e.set("rate_per_s", genPerS)
	e.setLatency(quantile(fresh, 0.5), quantile(fresh, 0.9), reads.LateP99)

	// The served state must cover the whole log, and the stream's new
	// user must be served.
	off, end := in.up.Offset(), in.producer.End()
	e.assert(off == end, "published offset %d != log end %d", off, end)
	status, body, err := reader[0].get(fmt.Sprintf("%s/recommend?user=%s&time=%d&k=%d", m.url, probeUser, e.w.stream[0].Time, e.wl.k))
	var a answer
	if err == nil && status == 200 {
		err = json.Unmarshal(body, &a)
	}
	e.assert(err == nil && status == 200 && len(a.Recommendations) == e.wl.k,
		"new stream user: status %d, %d items, %v", status, len(a.Recommendations), err)
	return nil
}

// ingester is a producer appending the held-back stream and an updater
// stepping back to back, both on one server.
type ingester struct {
	producer *ingest.Log
	up       *server.Updater
}

// openIngest creates a fresh log under the work directory and attaches
// an updater to srv. The updater tails its own handle, as a server
// tails a log another process appends to.
func (e *env) openIngest(srv *server.Server, name string) (*ingester, error) {
	dir := filepath.Join(e.opts.workDir, fmt.Sprintf("%s-%d-%d", name, os.Getpid(), e.opts.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	e.onClose(func() error { return os.RemoveAll(dir) })
	producer, err := ingest.Open(dir)
	if err != nil {
		return nil, err
	}
	tail, err := ingest.Open(dir)
	if err != nil {
		return nil, err
	}
	up, err := server.NewUpdater(srv, tail, e.w.boot, server.UpdaterConfig{Advance: index.DefaultAdvanceConfig()})
	if err != nil {
		return nil, err
	}
	return &ingester{producer: producer, up: up}, nil
}

// run appends the stream at the workload's event rate for d while the
// updater steps back to back and reads runs alongside; it then lets the
// updater catch up with the log end. It records the ingest layers and
// returns each batch's freshness (from its durable Append to the end of
// the first Step whose offset covers it, in ms) and the generations
// published per second.
func (in *ingester) run(e *env, d time.Duration, reads func()) ([]float64, float64, error) {
	type appended struct {
		end     int64
		durable time.Time
		ms      float64
	}
	type step struct {
		end    time.Time
		offset int64
		ms     float64
		events int64
	}
	var (
		apps      []appended
		steps     []step
		stopped   atomic.Bool
		finalEnd  atomic.Int64
		wg        sync.WaitGroup
		appendBad int
		stepBad   int
	)
	const b, rate = batchEvents, eventRate
	pc, err := newPacer()
	if err != nil {
		return nil, 0, err
	}
	defer pc.close()
	start := time.Now()
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		defer stopped.Store(true)
		for j := 0; (j+1)*b <= len(e.w.stream); j++ {
			due := start.Add(time.Duration(float64(j*b) / rate * float64(time.Second)))
			if due.Sub(start) >= d {
				break
			}
			pc.until(due)
			recs := e.w.stream[j*b : (j+1)*b]
			if j == 0 {
				first := recs[0]
				first.User = probeUser
				recs = append(append([]ingest.Record(nil), recs...), first)
			}
			sp := e.tr.start("ingest.Append", int64(j+1))
			t0 := time.Now()
			end, err := in.producer.Append(recs...)
			t1 := time.Now()
			sp.end()
			if err != nil {
				appendBad++
				e.problem("append batch %d: %v", j, err)
				continue
			}
			finalEnd.Store(end)
			apps = append(apps, appended{end: end, durable: t1, ms: ms(t1.Sub(t0))})
		}
	}()
	go func() { // updater, Step back to back
		defer wg.Done()
		for {
			done := stopped.Load()
			if done && in.up.Offset() >= finalEnd.Load() {
				return
			}
			prev := in.up.Offset()
			sp := e.tr.start("server.Updater.Step", 0)
			t0 := time.Now()
			published, err := in.up.Step()
			t1 := time.Now()
			sp.end()
			if err != nil {
				stepBad++
				e.problem("updater step: %v", err)
				if stepBad > 3 {
					return
				}
				continue
			}
			if published {
				steps = append(steps, step{end: t1, offset: in.up.Offset(), ms: ms(t1.Sub(t0)), events: in.up.Offset() - prev})
			}
		}
	}()
	if reads != nil {
		reads()
	}
	wg.Wait()

	e.phases = append(e.phases, phase{Name: "ingest.append", Sent: len(apps) + appendBad, OK: len(apps), Failed: appendBad + stepBad})
	var fresh, appMS, stepMS []float64
	var events int64
	si := 0
	for _, a := range apps {
		appMS = append(appMS, a.ms)
		for si < len(steps) && steps[si].offset < a.end {
			si++
		}
		if si == len(steps) {
			break
		}
		fresh = append(fresh, ms(steps[si].end.Sub(a.durable)))
	}
	for _, s := range steps {
		stepMS = append(stepMS, s.ms)
		events += s.events
	}
	e.set("ingest.append_ms_p50", quantile(appMS, 0.5))
	e.set("ingest.append_ms_p99", quantile(appMS, 0.99))
	e.set("server.updater_step_ms_p50", quantile(stepMS, 0.5))
	e.set("server.updater_step_ms_max", maxOf(stepMS))
	e.set("server.updater_steps", float64(len(steps)))
	e.set("server.updater_events_per_step", float64(events)/float64(max(len(steps), 1)))
	dec := max(len(stepMS)/10, 1)
	growth := 0.0
	if len(stepMS) > 0 {
		growth = mean(stepMS[len(stepMS)-dec:]) / mean(stepMS[:dec])
	}
	e.set("server.updater_step_growth", growth)
	e.logf("ingest: %d batches of %d events at %d events/s, %d steps (p50 %.0f ms, max %.0f ms), freshness p50 %.0f ms p90 %.0f ms p99 %.0f ms over %d batches",
		len(apps), b, rate, len(steps), quantile(stepMS, 0.5), maxOf(stepMS), quantile(fresh, 0.5), quantile(fresh, 0.9), quantile(fresh, 0.99), len(fresh))
	genPerS := 0.0
	if len(steps) > 0 {
		genPerS = float64(len(steps)) / steps[len(steps)-1].end.Sub(start).Seconds()
	}
	return fresh, genPerS, nil
}

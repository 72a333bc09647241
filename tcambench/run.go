package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tcam/internal/datagen"
	"tcam/internal/server"
	"tcam/internal/shard"
	"tcam/internal/topk"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool      // tiny world, for the self-test
	workDir  string    // ingest logs and span files
	start    time.Time // the setup_s clock origin
	corrupt  bool      // self-test hook: perturb one sampled answer
	out      io.Writer // the human-readable report
}

// workload fixes one traffic mix. Rates are constants, also recorded in
// BENCHMARK.json's why lines.
type workload struct {
	name  string
	conns int     // load connections, at most nproc on the reference host
	rate  float64 // ingest-read: offered reads/s of the open loop
	k     int
}

var workloads = []workload{
	{name: "hot-read", conns: 2, k: 10},
	{name: "ingest-read", conns: 1, rate: 500, k: 10},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	cacheEntries = 64 << 10
	hotUsers     = 256
	numShards    = 2
	eventRate    = 1000 // ingest producer: events/s appended
	batchEvents  = 8    // events per Append: 125 appends/s
)

// env is the state of one run.
type env struct {
	opts options
	wl   workload
	w    *world
	or   *oracle
	tr   *tracer
	pace *pacer // the open loops' dispatcher clock
	vals map[string]float64

	mono mono // the workload's monolithic server

	phases               []phase
	mu                   sync.Mutex // guards problems
	problems             []string
	checks, checksFailed int // end-of-run assertions

	steal0, total0 uint64 // /proc/stat ticks at the start

	closers []func() error
}

func (e *env) set(name string, v float64) { e.vals[name] = v }

// problem records a failure for the report; the first few are kept.
func (e *env) problem(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.problems) < 20 {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.opts.out, format+"\n", args...) }

// assert records one end-of-run check; a failed one counts as a failed
// operation and is reported.
func (e *env) assert(ok bool, format string, args ...any) {
	e.checks++
	if !ok {
		e.checksFailed++
		e.problem(format, args...)
	}
}

// rng derives an independent, seeded stream for one purpose.
func (e *env) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(e.opts.seed*1_000_003 + purpose))
}

// dur scales a phase length (in seconds at --seconds 10) to this run.
func (e *env) dur(secondsAt10 float64) time.Duration {
	return time.Duration(secondsAt10 * e.opts.seconds / 10 * float64(time.Second))
}

func (e *env) onClose(f func() error) { e.closers = append(e.closers, f) }

func (e *env) closeAll() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		if err := e.closers[i](); err != nil {
			e.problem("shutdown: %v", err)
		}
	}
	e.closers = nil
}

// run executes one workload and returns its result line.
func run(opts options) (res result, err error) {
	wl, ok := workloadByName(opts.workload)
	if !ok {
		return res, fmt.Errorf("unknown workload %q", opts.workload)
	}
	e := &env{opts: opts, wl: wl, vals: map[string]float64{}}
	e.steal0, e.total0 = cpuTicks()
	if opts.trace {
		e.tr = newTracer()
	}
	defer e.closeAll()
	if e.pace, err = newPacer(); err != nil {
		return res, err
	}
	e.onClose(e.pace.close)

	shape := doubanShape
	if opts.short {
		shape = tinyShape
	}
	if e.w, err = buildWorld(shape, opts.seed, e.tr); err != nil {
		return res, fmt.Errorf("build world: %w", err)
	}
	e.or = newOracle(e.w)
	e.recordSetupLayers()

	switch wl.name {
	case "hot-read":
		err = e.hotRead()
	case "ingest-read":
		err = e.ingestRead()
	}
	if err != nil {
		return res, err
	}
	if opts.trace {
		if err := e.layerLadder(); err != nil {
			return res, err
		}
	}
	e.closeAll()
	e.set("peak_rss_mb", peakRSSMB())

	res.Correct = true
	for _, p := range e.phases {
		res.Attempted += p.Sent
		res.Failed += p.Failed + p.Wrong
	}
	res.Attempted += e.checks
	res.Failed += e.checksFailed
	if res.Failed > 0 {
		res.Correct = false
	}
	e.report(res)
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	if res.Metrics, err = collect(defs, e.vals); err != nil {
		return res, err
	}
	if opts.trace {
		spans := filepath.Join(opts.workDir, fmt.Sprintf("spans-%s-seed%d.json", wl.name, opts.seed))
		if err := e.tr.write(spans); err != nil {
			return res, err
		}
		e.logf("spans: %s", spans)
	}
	return res, nil
}

// recordSetupLayers stores the world's per-layer set-up costs.
func (e *env) recordSetupLayers() {
	w := e.w
	e.set("datagen.generate_s", w.generateS)
	e.set("dataset.grid_s", w.gridS)
	e.set("weighting.weight_s", w.weightS)
	e.set("train.em_s", w.emS)
	e.set("topk.build_index_s", w.buildIndexS)
	var es, mst []float64
	for _, it := range w.stats.Iters {
		es = append(es, ms(it.EStep))
		mst = append(mst, ms(it.MStep))
	}
	e.set("train.estep_ms_p50", quantile(es, 0.5))
	e.set("train.mstep_ms_p50", quantile(mst, 0.5))
	e.set("train.cells_per_s", float64(w.cells*len(w.stats.Iters))/w.emS)
}

// setupDone marks the end of set-up: the first request may be admitted.
func (e *env) setupDone() {
	e.set("setup_s", time.Since(e.opts.start).Seconds())
	e.set("runtime.heap_live_mb", heapLiveMB())
}

// newServer builds a monolithic server; cached servers also precompute
// the hot users on every publish.
func (e *env) newServer(cached bool) (*server.Server, float64, error) {
	var opts []server.Option
	if cached {
		opts = append(opts, server.WithCache(cacheEntries), server.WithHotPrecompute(hotUsers))
	}
	sp := e.tr.start("server.New", 0)
	t0 := time.Now()
	srv, err := server.New(e.w.boot, opts...)
	sp.end()
	return srv, time.Since(t0).Seconds(), err
}

// serve puts h on a loopback listener closed with the run.
func (e *env) serve(h http.Handler) (string, error) {
	l, err := listen(h)
	if err != nil {
		return "", err
	}
	e.onClose(l.close)
	return l.url, nil
}

// fleet is numShards item-range servers behind a coordinator.
type fleet struct {
	shards []*server.Server
	ranges []shard.Range
	urls   []string
	coord  *shard.Coordinator
	url    string
	newS   float64
}

func (e *env) newFleet() (*fleet, error) {
	f := &fleet{ranges: shard.Partition(len(e.w.boot.Items), numShards)}
	for _, r := range f.ranges {
		sp := e.tr.start("server.New", 0)
		t0 := time.Now()
		srv, err := server.New(e.w.boot, server.WithItemRange(r.Lo, r.Hi))
		f.newS += time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return nil, err
		}
		u, err := e.serve(srv)
		if err != nil {
			return nil, err
		}
		f.shards = append(f.shards, srv)
		f.urls = append(f.urls, u)
	}
	coord, err := shard.New(shard.Config{Shards: shard.FleetConfigs(len(e.w.boot.Items), f.urls)})
	if err != nil {
		return nil, err
	}
	f.coord = coord
	if f.url, err = e.serve(coord); err != nil {
		return nil, err
	}
	return f, nil
}

// Query streams. Users index the boot vocabulary; times are days.

// zipfQueries draws users Zipf(s) with times uniform in [tmin, tmax].
func (e *env) zipfQueries(n int, s float64, tmin, tmax int64, purpose int64) ([]query, error) {
	gen, err := datagen.GenerateQueries(datagen.QueryLoadConfig{
		Queries: n, Users: len(e.w.boot.Users),
		UserExponent: s, TimeMin: tmin, TimeMax: tmax, K: e.wl.k,
		Seed: e.opts.seed*1_000_003 + purpose,
	})
	if err != nil {
		return nil, err
	}
	qs := make([]query, n)
	for i, g := range gen {
		qs[i] = query{user: g.User, when: g.Time, k: g.K}
	}
	return qs, nil
}

// hotQueries: Zipf s=1.2 users, times in the last boot interval.
func (e *env) hotQueries(n int, purpose int64) ([]query, error) {
	g := e.w.boot.Grid
	lo := g.Origin + int64(g.Num-1)*g.Length
	return e.zipfQueries(n, 1.2, lo, lo+g.Length-1, purpose)
}

func (e *env) urls(base string, qs []query) []string {
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = e.w.recommendURL(base, q)
	}
	return out
}

func newConns(n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = newConn()
	}
	return cs
}

// getOp sends GET urls[i] on connection c, keeping sampled bodies.
func (e *env) getOp(cs []*conn, urls []string, chk *checker) op {
	return func(c, i int) outcome {
		status, body, err := cs[c].get(urls[i%len(urls)])
		if err != nil || status != 200 {
			e.problem("GET %s: status %d, %v", urls[i%len(urls)], status, err)
			return failedOutcome
		}
		chk.keep(i, body)
		return okOutcome
	}
}

// verify checks a phase's sampled answers against ref; mismatches move
// from succeeded to wrong.
func (e *env) verify(p *phase, chk *checker, qs []query, ref func(query) []topk.Result) {
	idx := make([]int, 0, len(chk.samples))
	for i := range chk.samples {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for n, i := range idx {
		q := qs[i%len(qs)]
		if err := e.or.check(q, chk.samples[i], ref(q), e.opts.corrupt && n == 0); err != nil {
			p.Wrong++
			p.OK--
			e.problem("%s request %d: %v", p.Name, i, err)
		}
	}
	chk.samples = map[int][]byte{}
}

// addPhase records a measured phase in the report and the totals.
func (e *env) addPhase(p phase) {
	e.phases = append(e.phases, p)
	e.logf("phase %-22s offered=%8.1f/s sent=%7d ok=%7d failed=%d wrong=%d p50=%.3fms p90=%.3fms p99=%.3fms late_p99=%.3fms",
		p.Name, p.Rate, p.Sent, p.OK, p.Failed, p.Wrong, p.P50ms, p.P90ms, p.P99ms, p.LateP99)
}

// cpuTicks reads the host's steal and total CPU ticks from /proc/stat;
// their growth over a run is the share of CPU time the hypervisor gave
// to other guests, which the report records to explain noisy runs.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v uint64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

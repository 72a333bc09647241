package main

// The traced run's per-layer ladder: the workload's own queries are
// replayed one rung at a time — TA core, in-process handler, loopback
// HTTP, in-process coordinator, coordinator over HTTP — so each layer's
// self time is the difference between adjacent rungs. The set-up and
// ingest ladders come from the same run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"tcam/internal/shard"
	"tcam/internal/topk"
)

// ladderQueries is the number of queries each read rung replays: ten
// batches of 64, or one on the tiny world.
func (e *env) ladderQueries() int {
	if e.opts.short {
		return 64
	}
	return 640
}

// timed runs f once per query under a span and returns durations in µs.
func (e *env) timed(name string, qs []query, f func(i int, q query)) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		sp := e.tr.start(name, int64(i+1))
		t0 := time.Now()
		f(i, q)
		out[i] = us(time.Since(t0))
		sp.end()
	}
	return out
}

type rung struct {
	name     string
	p50, p99 float64 // µs
}

func (e *env) layerLadder() error {
	qs, err := e.hotQueries(e.ladderQueries(), 1) // the workload's own query stream
	if err != nil {
		return err
	}
	w := e.w
	var rungs []rung
	add := func(name, metric string, d []float64) {
		r := rung{name: name, p50: quantile(d, 0.5), p99: quantile(d, 0.99)}
		rungs = append(rungs, r)
		if metric != "" {
			e.set(metric+"_us_p50", r.p50)
		}
	}

	// Rung 1: the TA core on the monolithic index.
	var examined, pops, screened, returned float64
	d := e.timed("topk.Index.Query", qs, func(_ int, q query) {
		res, st := w.idx.Query(w.model, q.user, w.boot.Grid.IntervalOf(q.when), q.k, nil)
		examined += float64(st.ItemsExamined)
		pops += float64(st.ListPops)
		screened += float64(st.ScreenedOut)
		returned += float64(len(res))
	})
	add("topk.Index.Query", "topk.query", d)
	e.set("topk.query_us_p99", quantile(d, 0.99))
	n := float64(len(qs))
	e.set("topk.items_examined_mean", examined/n)
	e.set("topk.list_pops_mean", pops/n)
	e.set("topk.screened_out_mean", screened/n)
	e.set("topk.useful_ratio", returned/examined)

	// Batched TA and the batch handler, 64 queries at a time.
	const bs = 64
	var batchUS, batchMS []float64
	dw := &discardWriter{}
	for lo := 0; lo < len(qs); lo += bs {
		chunk := qs[lo:min(lo+bs, len(qs))]
		bq := make([]topk.BatchQuery, len(chunk))
		for i, q := range chunk {
			bq[i] = topk.BatchQuery{U: q.user, T: w.boot.Grid.IntervalOf(q.when), K: q.k}
		}
		sp := e.tr.start("topk.Index.QueryBatch", 0)
		t0 := time.Now()
		w.idx.QueryBatch(w.model, bq, 0)
		batchUS = append(batchUS, us(time.Since(t0))/float64(len(chunk)))
		sp.end()

		body := w.batchBody(chunk)
		req, _ := http.NewRequest(http.MethodPost, "/recommend/batch", bytes.NewReader(body))
		dw.reset()
		sp = e.tr.start("server.ServeHTTP.batch", 0)
		t0 = time.Now()
		e.mono.srv.ServeHTTP(dw, req)
		batchMS = append(batchMS, ms(time.Since(t0)))
		sp.end()
		if dw.status != 200 {
			return fmt.Errorf("batch handler: status %d: %s", dw.status, dw.body.String())
		}
	}
	e.set("topk.batch_us_per_query", quantile(batchUS, 0.5))
	e.set("server.batch_handler_ms_p50", quantile(batchMS, 0.5))

	// Rung 2: the in-process handler on the workload's server.
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		reqs[i], _ = http.NewRequest(http.MethodGet, w.recommendURL("", q), nil)
	}
	d = e.timed("server.ServeHTTP", qs, func(i int, _ query) {
		dw.reset()
		e.mono.srv.ServeHTTP(dw, reqs[i])
	})
	if dw.status != 200 {
		return fmt.Errorf("handler: status %d: %s", dw.status, dw.body.String())
	}
	add("server.ServeHTTP", "server.handler", d)
	e.set("server.handler_us_p99", quantile(d, 0.99))

	// Rung 3: loopback HTTP, one connection, no queueing.
	c := newConn()
	defer c.close()
	d = e.timed("http.GET", qs, func(_ int, q query) {
		if status, _, err := c.get(w.recommendURL(e.mono.url, q)); err != nil || status != 200 {
			e.problem("ladder GET: status %d, %v", status, err)
		}
	})
	add("loopback HTTP", "server.http", d)

	// The shard tier: range index, /shard/query, then the coordinator.
	f, err := e.newFleet()
	if err != nil {
		return err
	}
	r0 := f.ranges[0]
	sp := e.tr.start("topk.BuildIndexRange", 0)
	ri := topk.BuildIndexRange(w.model, r0.Lo, r0.Hi)
	sp.end()
	d = e.timed("topk.Index.Query.range", qs, func(_ int, q query) {
		ri.Query(w.model, q.user, w.boot.Grid.IntervalOf(q.when), q.k, nil)
	})
	e.set("topk.range_query_us_p50", quantile(d, 0.5))
	shardBodies := make([][]byte, len(qs))
	for i, q := range qs {
		shardBodies[i], _ = json.Marshal(struct {
			User string `json:"user"`
			Time int64  `json:"time"`
			K    int    `json:"k"`
		}{w.boot.Users[q.user], q.when, q.k})
	}
	d = e.timed("server.ServeHTTP.shard", qs, func(i int, _ query) {
		req, _ := http.NewRequest(http.MethodPost, "/shard/query", bytes.NewReader(shardBodies[i]))
		dw.reset()
		f.shards[0].ServeHTTP(dw, req)
	})
	if dw.status != 200 {
		return fmt.Errorf("shard query: status %d: %s", dw.status, dw.body.String())
	}
	e.set("server.shard_query_us_p50", quantile(d, 0.5))

	// The coordinator's merged answers must equal the monolithic TA
	// index's; they are compared after the rung, off the timed path.
	var shardExamined, degraded float64
	merged := make([]*shard.Response, len(qs))
	ctx := context.Background()
	d = e.timed("shard.Coordinator.Recommend", qs, func(i int, q query) {
		resp, err := f.coord.Recommend(ctx, w.boot.Users[q.user], q.when, q.k, nil)
		if err != nil {
			e.problem("coordinator: %v", err)
			return
		}
		merged[i] = resp
	})
	add("shard.Coordinator.Recommend", "shard.recommend", d)
	check := phase{Name: "ladder.coordinator-vs-monolith", Sent: len(qs)}
	for i, resp := range merged {
		if resp == nil {
			check.Failed++
			degraded++
			continue
		}
		shardExamined += float64(resp.ItemsExamined)
		if resp.Degraded {
			degraded++
		}
		if err := e.or.compare(qs[i], coordinatorAnswer(resp, e.opts.corrupt && i == 0), e.or.monolith(qs[i])); err != nil {
			check.Wrong++
			e.problem("%s query %d: %v", check.Name, i, err)
			continue
		}
		check.OK++
	}
	e.phases = append(e.phases, check)
	e.set("shard.recommend_us_p99", quantile(d, 0.99))
	e.set("shard.items_examined_mean", shardExamined/n)
	e.set("shard.degraded_ratio", degraded/n)

	d = e.timed("http.GET.coordinator", qs, func(_ int, q query) {
		if status, _, err := c.get(w.recommendURL(f.url, q)); err != nil || status != 200 {
			e.problem("ladder coordinator GET: status %d, %v", status, err)
		}
	})
	add("coordinator over HTTP", "shard.http", d)

	// Publish floor: Reload of the boot bundle on a cached twin, which
	// then carries the ingest rung for workloads without one.
	twin, _, err := e.newServer(true)
	if err != nil {
		return err
	}
	var reloads []float64
	for i := 0; i < 3; i++ {
		sp := e.tr.start("server.Reload", 0)
		t0 := time.Now()
		if _, err := twin.Reload(w.boot); err != nil {
			return err
		}
		reloads = append(reloads, ms(time.Since(t0)))
		sp.end()
	}
	e.set("server.reload_ms", quantile(reloads, 0.5))
	if e.wl.name != "ingest-read" {
		in, err := e.openIngest(twin, "ladder-ingest")
		if err != nil {
			return err
		}
		if _, _, err := in.run(e, e.dur(3), nil); err != nil {
			return err
		}
	}

	e.renderLadder(rungs)
	e.renderSpans()
	return nil
}

// coordinatorAnswer converts a merged response for the oracle; corrupt
// perturbs it, as the self-test's proof that mismatches surface.
func coordinatorAnswer(resp *shard.Response, corrupt bool) *answer {
	a := &answer{Degraded: resp.Degraded}
	for _, r := range resp.Recommendations {
		a.Recommendations = append(a.Recommendations, struct {
			Item  string  `json:"item"`
			Score float64 `json:"score"`
		}{r.Item, r.Score})
	}
	if corrupt && len(a.Recommendations) > 0 {
		a.Recommendations[0].Score *= 1 + 1e-12
	}
	return a
}

// renderLadder prints the per-layer delta tables.
func (e *env) renderLadder(rungs []rung) {
	tw := tabwriter.NewWriter(e.opts.out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "read ladder\tp50 µs\tΔ p50 µs\tp99 µs\t")
	prev := 0.0
	for _, r := range rungs {
		fmt.Fprintf(tw, "%s\t%.1f\t%+.1f\t%.1f\t\n", r.name, r.p50, r.p50-prev, r.p99)
		prev = r.p50
	}
	v := e.vals
	iters := float64(len(e.w.stats.Iters))
	var iterMS []float64
	for _, it := range e.w.stats.Iters {
		iterMS = append(iterMS, ms(it.Wall))
	}
	iter := quantile(iterMS, 0.5)
	fmt.Fprintln(tw, "training ladder\tseconds\tΔ s\t\t")
	fmt.Fprintf(tw, "EM iteration p50 × %.0f\t%.3f\t%+.3f\t\t\n", iters, iter*iters/1000, iter*iters/1000)
	fmt.Fprintf(tw, "ttcam.Train\t%.3f\t%+.3f\t\t\n", v["train.em_s"], v["train.em_s"]-iter*iters/1000)
	fmt.Fprintf(tw, "setup_s\t%.3f\t%+.3f\t\t\n", v["setup_s"], v["setup_s"]-v["train.em_s"])
	fmt.Fprintln(tw, "ingest ladder\tp50 ms\tΔ ms\t\t")
	fmt.Fprintf(tw, "ingest.Log.Append\t%.3f\t%+.3f\t\t\n", v["ingest.append_ms_p50"], v["ingest.append_ms_p50"])
	fmt.Fprintf(tw, "server.Updater.Step\t%.3f\t%+.3f\t\t\n", v["server.updater_step_ms_p50"], v["server.updater_step_ms_p50"]-v["ingest.append_ms_p50"])
	if e.wl.name == "ingest-read" {
		fmt.Fprintf(tw, "covered offset (freshness)\t%.3f\t%+.3f\t\t\n", v["traced.p50_ms"], v["traced.p50_ms"]-v["server.updater_step_ms_p50"])
	}
	if err := tw.Flush(); err != nil {
		e.problem("render ladder: %v", err)
	}
}

// renderSpans prints each span name's count, total and self time: its
// duration minus the part its children cover.
func (e *env) renderSpans() {
	t := e.tr
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		dur := time.Duration(s.End - s.Start)
		a.total += dur
		a.self += dur - covered(s, children[s.ID])
	}
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(e.opts.out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "span\tcount\ttotal ms\tself ms\t")
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t\n", name, a.n, ms(a.total), ms(a.self))
	}
	if err := tw.Flush(); err != nil {
		e.problem("render spans: %v", err)
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	curS, curE = -1, -1
	for _, k := range kids {
		s, en := max(k.Start, parent.Start), min(k.End, parent.End)
		if en <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, en
			continue
		}
		curE = max(curE, en)
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// stealPct is the host's steal share since the run started.
func (e *env) stealPct() float64 {
	steal, total := cpuTicks()
	if total <= e.total0 {
		return 0
	}
	return 100 * float64(steal-e.steal0) / float64(total-e.total0)
}

// report prints phases, problems and the environment record.
func (e *env) report(res result) {
	w := e.w
	env := map[string]any{
		"workload":   e.wl.name,
		"seed":       e.opts.seed,
		"seconds":    e.opts.seconds,
		"trace":      e.opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"world": map[string]any{
			"profile": "douban", "shape": w.shape.Name,
			"users": len(w.boot.Users), "items": len(w.boot.Items), "intervals": w.boot.Grid.Num,
			"boot_events": w.events, "cells": w.cells, "stream_events": len(w.stream),
			"k1": w.shape.K1, "k2": w.shape.K2, "em_iters": len(w.stats.Iters),
		},
		"rates": map[string]any{
			"reads_per_s": e.wl.rate, "k": e.wl.k,
			"connections":  e.wl.conns,
			"events_per_s": eventRate, "events_per_append": batchEvents,
		},
		"host_steal_pct": e.stealPct(),
		"attempted":      res.Attempted, "failed": res.Failed,
		"fail_ratio": float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	b, err := json.Marshal(env)
	if err != nil {
		e.problem("encode env: %v", err)
	}
	for _, p := range e.problems {
		e.logf("problem: %s", p)
	}
	e.logf("env %s", b)
}

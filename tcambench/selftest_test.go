package main

// The benchmark's self-test: every workload runs on the tiny world for
// about a second, untraced and traced, and must emit every metric of
// its mode with its unit; the oracle must flag a corrupted answer; and
// BENCHMARK.json must list the same workloads and metrics.
//
//	cd tcambench && go test ./...

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func shortRun(t *testing.T, workload string, trace, corrupt bool) result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: 7, seconds: 1, trace: trace, short: true,
		workDir: t.TempDir(), start: time.Now(), corrupt: corrupt, out: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return res
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			res := shortRun(t, wl.name, trace, false)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a finite value in %s", wl.name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, name := range []string{"setup_s", "peak_rss_mb", "p50_ms", "p90_ms", "rate_per_s"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", wl.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

func TestOracleFlagsCorruptedAnswer(t *testing.T) {
	// hot-read checks served answers against brute force; every traced
	// run checks the coordinator against the monolith.
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"hot-read", false}, {"ingest-read", true}} {
		res := shortRun(t, c.workload, c.trace, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s trace=%v: corrupted answer not flagged: correct=%v failed=%d", c.workload, c.trace, res.Correct, res.Failed)
		}
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command   []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q, want %q on one line", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in the catalogue", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

package main

// The metric catalogue. BENCHMARK.json lists the same names and units;
// the self-test checks that the two agree and that every run emits
// every metric of its mode.

import (
	"fmt"
	"sort"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, emitted with
// tracing off. p50_ms/p90_ms and rate_per_s mean the workload's own
// unit of work; see README.md. The tail is p90, not p99: on the
// reference host a sub-millisecond p99 tracks the CPU time other guests
// steal, not the program.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// perLayer are the traced run's metrics, grouped by the end-to-end
// metric each should move.
var perLayer = []metricDef{
	// Set-up: setup_s and peak_rss_mb on every workload.
	{"datagen.generate_s", "s"},
	{"dataset.grid_s", "s"},
	{"weighting.weight_s", "s"},
	{"train.em_s", "s"},
	{"train.estep_ms_p50", "ms"},
	{"train.mstep_ms_p50", "ms"},
	{"train.cells_per_s", "1/s"},
	{"topk.build_index_s", "s"},
	{"server.new_s", "s"},
	{"runtime.heap_live_mb", "MB"},
	// Read ladder: p50_ms, p90_ms and rate_per_s.
	{"topk.query_us_p50", "us"},
	{"topk.query_us_p99", "us"},
	{"topk.items_examined_mean", "count"},
	{"topk.list_pops_mean", "count"},
	{"topk.screened_out_mean", "count"},
	{"topk.useful_ratio", "ratio"},
	{"topk.batch_us_per_query", "us"},
	{"topk.range_query_us_p50", "us"},
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.http_us_p50", "us"},
	{"server.batch_handler_ms_p50", "ms"},
	{"server.shard_query_us_p50", "us"},
	{"shard.recommend_us_p50", "us"},
	{"shard.recommend_us_p99", "us"},
	{"shard.http_us_p50", "us"},
	{"shard.items_examined_mean", "count"},
	{"shard.degraded_ratio", "ratio"},
	{"rescache.hit_ratio", "ratio"},
	{"rescache.hot_precomputed", "count"},
	{"loadgen.late_ms_p99", "ms"},
	// Ingest ladder: ingest-read's p50_ms and p90_ms (freshness).
	{"ingest.append_ms_p50", "ms"},
	{"ingest.append_ms_p99", "ms"},
	{"server.updater_step_ms_p50", "ms"},
	{"server.updater_step_ms_max", "ms"},
	{"server.updater_steps", "count"},
	{"server.updater_events_per_step", "count"},
	{"server.updater_step_growth", "ratio"},
	{"server.reload_ms", "ms"},
	// The workload's own phase with tracing on; minus the untraced
	// p50_ms/p90_ms it is the tracing overhead.
	{"traced.p50_ms", "ms"},
	{"traced.p90_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect picks the mode's metrics out of the measured values and fails
// when one was not measured.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}

// Command tcambench is the repository's end-to-end benchmark. It builds
// one seeded Douban-scale world, serves it the way tcamserver and
// tcamshard do, drives one named workload from this process, checks the
// answers and prints every metric by name with its unit. The last line
// of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 1 the run records spans, replays the workload's inputs
// one layer at a time and prints the per-layer metrics instead.
//
// Usage (from the repository root):
//
//	bash tcambench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// processStart is the setup_s clock origin.
var processStart = time.Now()

func main() {
	var (
		wl      = flag.String("workload", "", "hot-read | ingest-read")
		seed    = flag.Int64("seed", 1, "seed of the world and of every query and event stream")
		seconds = flag.Float64("seconds", 10, "measured length of one run")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		short   = flag.Bool("short", false, "tiny world, for a quick check of the pipeline")
	)
	flag.Parse()
	// Ingest logs and span files stay inside the checkout, next to the
	// build output run.sh leaves there.
	work := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tcambench:", err)
		os.Exit(1)
	}
	res, err := run(options{
		workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short,
		workDir: work, start: processStart, out: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcambench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tcambench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// commit is the VCS revision stamped into the binary, when the source
// tree was a git checkout at build time.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

#!/bin/sh
# Benchmark allocation smoke gates, shared by scripts/check.sh and the
# CI workflow:
#
#   1. the pooled TA searcher must report 0 allocs/op at steady state on
#      the exact path, the eps-budgeted approximate path and under
#      parallel pool churn;
#   2. the serial EM iteration benchmarks must stay allocation-free for
#      both TCAM variants (scripts/bench_train.sh -smoke);
#   3. the sharded-parallel EM benchmark must still run, so a refactor
#      cannot silently break the GOMAXPROCS sweep between full bench
#      runs;
#   4. the streaming-ingestion benchmarks (scripts/bench_ingest.sh)
#      must still run;
#   5. the result cache's hit path must report 0 allocs/op — a cached
#      answer that allocates is a regression of the DESIGN.md §16
#      contract;
#   6. the index rebuild benchmark (fresh vs built from the previous
#      generation) must still run.
#
# Usage: scripts/bench_smoke.sh
set -eu
cd "$(dirname "$0")/.."

bench_out=$(go test ./internal/topk -run - \
    -bench 'BenchmarkTAQuery$|BenchmarkTAQueryApprox$|BenchmarkTAQueryParallel$' \
    -benchmem -benchtime 200x -count=1)
echo "$bench_out"
if ! echo "$bench_out" | awk '
    /^Benchmark/ { if ($(NF-1) + 0 != 0) bad = 1 }
    END { exit bad }'; then
    echo "bench_smoke.sh: pooled-searcher benchmark allocates (want 0 allocs/op)" >&2
    exit 1
fi

cache_out=$(go test ./internal/rescache -run - \
    -bench 'BenchmarkCacheHit$|BenchmarkHotObserve$' \
    -benchmem -benchtime 200x -count=1)
echo "$cache_out"
if ! echo "$cache_out" | awk '
    /^Benchmark/ { if ($(NF-1) + 0 != 0) bad = 1 }
    END { exit bad }'; then
    echo "bench_smoke.sh: result-cache hit path allocates (want 0 allocs/op)" >&2
    exit 1
fi

scripts/bench_train.sh -smoke

go test -run '^$' -bench 'BenchmarkEMIterationParallel$' -benchtime 1x \
    ./internal/model/itcam/ ./internal/model/ttcam/ >/dev/null

# The streaming-ingestion benchmarks must still run (full numbers come
# from scripts/bench_ingest.sh, which also snapshots BENCH_ingest.json;
# this is the does-it-still-build gate, so it writes nothing).
go test -run '^$' -bench 'BenchmarkAppend$|BenchmarkReplay$' -benchtime 1x \
    ./internal/ingest/ >/dev/null
go test -run '^$' -bench 'BenchmarkUpdaterStep$|BenchmarkSnapshotPublish$' -benchtime 1x \
    ./internal/server/ >/dev/null
go test -run '^$' -bench 'BenchmarkIndexRebuild$' -benchtime 1x ./internal/topk/ >/dev/null
echo "bench_smoke.sh: OK"

#!/bin/sh
# check.sh — the repository's CI gate. Chains every static and dynamic
# verification, in cheapest-first order:
#
#   gofmt -l      formatting
#   go vet        stock correctness vet
#   go build      compilation
#   spvet         invariant analysis (internal/lint): maprange, wallclock,
#                 goroutine, floatorder, exhaustive, noalloc, obspure,
#                 poolescape, allow — run against the checked-in baseline
#                 (.spvet-baseline.json, which must stay empty for sim
#                 packages), plus a -json smoke asserting zero new errors
#   noalloc gate  the //spcoh:noalloc annotation set must stay consistent
#                 with the AllocsPerRun ceilings the unit tests enforce
#                 (TestNoallocAnnotationConsistency)
#   go test       full unit/integration suite, including the runtime
#                 determinism harness (TestDeterministicReplay)
#   go test -race race detector on the packages exercising concurrency-safe
#                 surfaces (the simulator itself is single-threaded by
#                 design; spvet's goroutine check enforces that statically)
#   spsweep smoke quick-scale sweep end to end: run, resume (must recall
#                 every cell from the store), byte-compare the merged
#                 outputs, status must report all cells complete
#   spsweep interrupt smoke  SIGINT to a local run after its first
#                 progress line: non-zero exit, empty stdout, status exits
#                 0 (cut cells pending, not failed), and resume's output is
#                 byte-identical to an uninterrupted run of the same matrix
#   spscen smoke  scenario layer end to end: the embedded profile specs
#                 validate and build, a 50-seed generator fuzz sweep
#                 (validity + determinism + buildability), and a generated
#                 spec piped through spsim -spec twice must render
#                 byte-identically
#   spsim bad-input smoke  an unknown -pred and an unsupported -threads
#                 must each exit non-zero and print no result rows
#   spsweep bad-input smoke  an unknown -format and an unsupported
#                 -threads must each exit non-zero, print nothing on
#                 stdout and create no store
#   spstat smoke  metrics pipeline end to end: a small instrumented run
#                 twice (series must be byte-identical), spstat -validate
#                 (epochs monotone/contiguous), JSON decode, and the
#                 collector-overhead benchmark into a temp copy of
#                 results/BENCH_metrics.json (the tracked file is not
#                 rewritten)
#   bench smoke   every testing.B benchmark compiled and run once
#                 (-benchtime=1x) so benchmark code cannot rot, then
#                 spbench -core-bench appends to a temp copy of
#                 results/BENCH_core.json (so the tracked history still
#                 feeds the baseline, but is not rewritten) with
#                 -core-gate 50: the run fails only when aggregate
#                 cycles/s falls >50% below the rolling baseline (median
#                 of recent history) — generous enough that wall noise on
#                 shared boxes cannot trip it, tight enough to catch a
#                 real engine regression; allocation regressions are gated
#                 by the AllocsPerRun ceilings inside go test (DESIGN.md §11)
#   scale smoke   spbench -scale-bench over the mesh axis (4x4, 8x8,
#                 16x16) into a temp record, which must include 16x16
#
# Any gate failing exits non-zero.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

sweepdir=$(mktemp -d)
trap 'rm -rf "$sweepdir"' EXIT

echo "== spvet (invariant analysis, baseline-gated)"
go run ./cmd/spvet -baseline .spvet-baseline.json ./...
go run ./cmd/spvet -baseline .spvet-baseline.json -json ./... > "$sweepdir/spvet.json"
grep -q '"new_errors": 0' "$sweepdir/spvet.json" || {
    echo "spvet: -json report has new errors:" >&2
    cat "$sweepdir/spvet.json" >&2
    exit 1
}

echo "== noalloc annotation consistency"
go test -run TestNoallocAnnotationConsistency -count=1 ./internal/lint

echo "== go test"
go test ./...

echo "== go test -race"
go test -race ./internal/event ./internal/lint ./internal/sim \
    ./internal/stats ./internal/trace ./internal/workload
go test -race -short ./internal/experiments ./internal/sweep

echo "== spsweep smoke (run / resume / status)"
go build -o "$sweepdir/spsweep" ./cmd/spsweep
"$sweepdir/spsweep" run -bench x264,streamcluster -kinds dir,sp \
    -scales 0.05 -jobs 2 -dir "$sweepdir/store" \
    -summary "$sweepdir/summary.json" -format json \
    > "$sweepdir/run1.json" 2> "$sweepdir/run1.log"
"$sweepdir/spsweep" resume -jobs 4 -dir "$sweepdir/store" \
    -summary "" -format json \
    > "$sweepdir/run2.json" 2> "$sweepdir/run2.log"
cmp "$sweepdir/run1.json" "$sweepdir/run2.json" || {
    echo "spsweep: resumed output differs from first run" >&2
    exit 1
}
grep -q "4 cached, 0 executed, 0 failed" "$sweepdir/run2.log" || {
    echo "spsweep: resume re-executed completed jobs:" >&2
    cat "$sweepdir/run2.log" >&2
    exit 1
}
"$sweepdir/spsweep" status -dir "$sweepdir/store" | grep -q "4/4 complete, 0 pending" || {
    echo "spsweep: status does not report a complete store" >&2
    exit 1
}

echo "== spsweep interrupt smoke (SIGINT / status / resume == uninterrupted run)"
intmatrix="-bench ocean,fluidanimate,radiosity -kinds dir,sp -scales 0.3"
# $intmatrix is deliberately unquoted: it holds flags and their values.
"$sweepdir/spsweep" run $intmatrix -jobs 2 -dir "$sweepdir/fullstore" \
    -summary "" -format json > "$sweepdir/full.json" 2> "$sweepdir/full.log"
"$sweepdir/spsweep" run $intmatrix -jobs 1 -dir "$sweepdir/intstore" \
    -summary "$sweepdir/intsummary.json" -format json \
    > "$sweepdir/int.json" 2> "$sweepdir/int.log" &
intrun=$!
i=0
while ! grep -q '\[1/6\]' "$sweepdir/int.log" && [ "$i" -lt 600 ]; do sleep 0.05; i=$((i+1)); done
kill -INT "$intrun"
if wait "$intrun"; then
    echo "spsweep: interrupted run exited 0:" >&2
    cat "$sweepdir/int.log" >&2
    exit 1
fi
if [ -s "$sweepdir/int.json" ] || [ -e "$sweepdir/intsummary.json" ]; then
    echo "spsweep: interrupted run wrote merged output or a summary:" >&2
    cat "$sweepdir/int.json" "$sweepdir/int.log" >&2
    exit 1
fi
"$sweepdir/spsweep" status -dir "$sweepdir/intstore" > "$sweepdir/intstatus.txt" || {
    echo "spsweep: status fails after an interrupt (cut cells reached the failure ledger):" >&2
    cat "$sweepdir/intstatus.txt" >&2
    exit 1
}
"$sweepdir/spsweep" resume -jobs 2 -dir "$sweepdir/intstore" -summary "" -format json \
    > "$sweepdir/resumed.json" 2> "$sweepdir/resumed.log"
cmp "$sweepdir/resumed.json" "$sweepdir/full.json" || {
    echo "spsweep: resumed output differs from an uninterrupted run" >&2
    exit 1
}

echo "== spscen smoke (builtin specs / generator fuzz / spec replay determinism)"
go build -o "$sweepdir/spscen" ./cmd/spscen
go build -o "$sweepdir/spsim" ./cmd/spsim
"$sweepdir/spscen" validate -builtin
"$sweepdir/spscen" fuzz -n 50 -seed 1
"$sweepdir/spscen" gen -seed 7 > "$sweepdir/fuzz7.json"
"$sweepdir/spsim" -spec "$sweepdir/fuzz7.json" -pred sp > "$sweepdir/spec1.txt"
"$sweepdir/spscen" gen -seed 7 | "$sweepdir/spsim" -spec - -pred sp > "$sweepdir/spec2.txt"
cmp "$sweepdir/spec1.txt" "$sweepdir/spec2.txt" || {
    echo "spscen: generated-spec replay is not deterministic" >&2
    exit 1
}

echo "== spsim bad-input smoke (unknown -pred / unsupported -threads)"
for args in "-pred bogus" "-threads 17"; do
    # $args is deliberately unquoted: it holds a flag and its value.
    if "$sweepdir/spsim" -bench x264 -scale 0.05 $args > "$sweepdir/bad.txt" 2> "$sweepdir/bad.log"; then
        echo "spsim: $args exited 0" >&2
        exit 1
    fi
    if [ -s "$sweepdir/bad.txt" ]; then
        echo "spsim: $args printed result rows:" >&2
        cat "$sweepdir/bad.txt" >&2
        exit 1
    fi
done

echo "== spsweep bad-input smoke (unknown -format / unsupported -threads)"
for args in "-format bogus" "-threads 17"; do
    # $args is deliberately unquoted: it holds a flag and its value.
    if "$sweepdir/spsweep" run -bench x264 -kinds dir -scales 0.05 -summary "" \
        -dir "$sweepdir/badstore" $args > "$sweepdir/bad.txt" 2> "$sweepdir/bad.log"; then
        echo "spsweep: $args exited 0" >&2
        exit 1
    fi
    if [ -s "$sweepdir/bad.txt" ] || [ -e "$sweepdir/badstore" ]; then
        echo "spsweep: $args printed output or created the store:" >&2
        cat "$sweepdir/bad.txt" "$sweepdir/bad.log" >&2
        exit 1
    fi
done

echo "== spstat smoke (metrics series determinism / validate / overhead)"
go build -o "$sweepdir/spstat" ./cmd/spstat
"$sweepdir/spsim" -bench x264 -pred sp -scale 0.05 \
    -metrics-epoch 2000 -metrics-out "$sweepdir/series1.json" \
    > /dev/null 2> "$sweepdir/sim1.log"
"$sweepdir/spsim" -bench x264 -pred sp -scale 0.05 \
    -metrics-epoch 2000 -metrics-out "$sweepdir/series2.json" \
    > /dev/null 2> "$sweepdir/sim2.log"
cmp "$sweepdir/series1.json" "$sweepdir/series2.json" || {
    echo "spstat: same-seed metrics series differ" >&2
    exit 1
}
"$sweepdir/spstat" -validate "$sweepdir/series1.json" | grep -q "valid series" || {
    echo "spstat: series failed validation" >&2
    exit 1
}
"$sweepdir/spstat" -format json "$sweepdir/series1.json" > /dev/null || {
    echo "spstat: series JSON re-emit failed" >&2
    exit 1
}
cp results/BENCH_metrics.json "$sweepdir/BENCH_metrics.json"
"$sweepdir/spstat" -bench -bench-scale 0.05 -bench-out "$sweepdir/BENCH_metrics.json" || {
    echo "spstat: overhead benchmark failed" >&2
    exit 1
}

echo "== bench smoke (compile + run every benchmark once)"
go test -bench=. -benchtime=1x -run='^$' ./... > "$sweepdir/bench.log" 2>&1 || {
    echo "bench smoke failed:" >&2
    cat "$sweepdir/bench.log" >&2
    exit 1
}

echo "== spbench core benchmark (temp copy of results/BENCH_core.json, rolling-baseline gate)"
go build -o "$sweepdir/spbench" ./cmd/spbench
cp results/BENCH_core.json "$sweepdir/BENCH_core.json"
"$sweepdir/spbench" -core-bench -core-out "$sweepdir/BENCH_core.json" -core-gate 50 || {
    echo "spbench: core benchmark failed (or regressed past the rolling-baseline gate)" >&2
    exit 1
}

echo "== spbench scale matrix smoke (mesh record, throwaway path)"
# A fast pass over the mesh matrix proves the mode works; the curated
# results/BENCH_scale.json is refreshed deliberately, not here.
"$sweepdir/spbench" -scale-bench -scale-runs 1 -scale-scale 0.005 \
    -scale-out "$sweepdir/scale.json" 2> "$sweepdir/scale.log" || {
    echo "spbench: scale matrix smoke failed:" >&2
    cat "$sweepdir/scale.log" >&2
    exit 1
}
grep -q '"mesh": "16x16"' "$sweepdir/scale.json" || {
    echo "spbench: scale matrix record is missing the 16x16 mesh:" >&2
    cat "$sweepdir/scale.json" >&2
    exit 1
}

echo "check.sh: all gates passed"

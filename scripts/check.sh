#!/usr/bin/env bash
# Tier-1 verify plus sanitizer passes: the whole suite under ThreadSanitizer
# and under AddressSanitizer+UndefinedBehaviorSanitizer, a flight-recorder trace
# round-trip smoke test, a profiler-enabled smoke run, and a telemetry smoke
# leg (sampled run -> trace_summarize queries -> report_html). `--bench` adds the opt-in benchmark
# regression leg (scripts/bench_regress.sh against BENCH_seed.json).
# Usage: scripts/check.sh [--tsan-only | --asan-only | --no-sanitizers | --bench]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
RUN_TIER1=1
RUN_TSAN=1
RUN_ASAN=1
RUN_BENCH=0
case "${1:-}" in
  --tsan-only) RUN_TIER1=0; RUN_ASAN=0 ;;
  --asan-only) RUN_TIER1=0; RUN_TSAN=0 ;;
  --no-tsan) RUN_TSAN=0 ;;
  --no-sanitizers) RUN_TSAN=0; RUN_ASAN=0 ;;
  --bench) RUN_BENCH=1 ;;
  "") ;;
  *) echo "usage: $0 [--tsan-only | --asan-only | --no-tsan | --no-sanitizers | --bench]" >&2; exit 2 ;;
esac

if [[ "$RUN_TIER1" == 1 ]]; then
  echo "== tier-1: build + full test suite =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  (cd build && ctest --output-on-failure -j "$JOBS")

  echo "== tier-1 (scalar kernels): full suite with LIBRA_SIMD=off =="
  # Pins kernel dispatch to the scalar fallback so the pre-SIMD code paths
  # (and their bitwise-reproducibility promises) stay exercised everywhere.
  (cd build && LIBRA_SIMD=off ctest --output-on-failure -j "$JOBS")

  echo "== trace round-trip: record a run, summarize it offline =="
  # The recorded per-ACK stream must reproduce the run's own summary; a
  # truncated or empty trace makes trace_summarize exit non-zero.
  TRACE_DIR="$(mktemp -d)"
  trap 'rm -rf "$TRACE_DIR"' EXIT
  ./build/tools/record_run --out="$TRACE_DIR/smoke.jsonl" --duration=2 \
    > "$TRACE_DIR/summary.json"
  SUMMARY="$(./build/tools/trace_summarize --warmup=1 "$TRACE_DIR/smoke.jsonl")"
  echo "$SUMMARY" | grep -q "rtt p99" || {
    echo "trace round-trip: missing percentile table" >&2; exit 1; }
  echo "$SUMMARY" | grep -q "total: throughput" || {
    echo "trace round-trip: missing totals line" >&2; exit 1; }
  grep -q '"link_utilization"' "$TRACE_DIR/summary.json" || {
    echo "trace round-trip: record_run emitted no JSON summary" >&2; exit 1; }
  # Bad input must fail with a message and exit 2: never run a default in
  # its place, never abort on an uncaught exception.
  for bad in "--rate=abc" "--rate=-5" "--duration=-1" "--duration=abc" \
             "--duration=1" "--duration=1e300" "--seed=xyz" "--sample-ms=0" \
             "--sample-ms=abc"; do
    rc=0
    ./build/tools/record_run --no-trace --telemetry="$TRACE_DIR/bad.jsonl" \
      "$bad" >/dev/null 2>&1 || rc=$?
    [[ "$rc" == 2 ]] || {
      echo "trace round-trip: record_run $bad exited $rc, want 2" >&2; exit 1; }
  done
  echo "trace round-trip: ok"

  echo "== profiler smoke: profiled run + validated JSON artifacts =="
  # A profiler-enabled run must still produce a valid trace (with the --meta
  # speed line parsed by trace_summarize) and print a call tree containing
  # the event-dispatch span; every JSON artifact must parse.
  ./build/tools/record_run --out="$TRACE_DIR/prof.jsonl" --duration=2 \
    --meta --profile > "$TRACE_DIR/prof_summary.json" 2> "$TRACE_DIR/prof.err"
  grep -q "sim.event" "$TRACE_DIR/prof.err" || {
    echo "profiler smoke: report missing sim.event span" >&2; exit 1; }
  ./build/tools/trace_summarize --warmup=1 "$TRACE_DIR/prof.jsonl" \
    | grep -q "x real time" || {
    echo "profiler smoke: trace meta speed line missing" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/prof_summary.json"
  ./build/tools/json_check --jsonl "$TRACE_DIR/prof.jsonl"
  echo "profiler smoke: ok"

  echo "== telemetry smoke: sampled run -> query engine -> HTML report =="
  # Record a short 2-flow run with the 1 ms sampler, query the trace through
  # trace_summarize's filter flags, and render the columnar dump to HTML.
  ./build/tools/record_run --out="$TRACE_DIR/tel.jsonl" --duration=2 --flows=2 \
    --telemetry="$TRACE_DIR/tel_cols.jsonl" \
    --telemetry-bin="$TRACE_DIR/tel_cols.bin" --sample-ms=1 \
    > "$TRACE_DIR/tel_summary.json"
  ./build/tools/json_check --jsonl "$TRACE_DIR/tel_cols.jsonl"
  # Query round-trip: per-flow filtering and the event grep must agree with
  # the trace (flow 1 exists, acks exist in the window).
  ./build/tools/trace_summarize --flow=1 "$TRACE_DIR/tel.jsonl" \
    | grep -q "rtt p99" || {
    echo "telemetry smoke: --flow query lost the percentile table" >&2; exit 1; }
  ./build/tools/trace_summarize --warmup=0.5 "$TRACE_DIR/tel.jsonl" \
    | grep -q "queue p99" || {
    echo "telemetry smoke: queueing-delay breakdown missing" >&2; exit 1; }
  ACKS="$(./build/tools/trace_summarize --event=ack --since=0.5 --until=1.5 \
    "$TRACE_DIR/tel.jsonl" | wc -l)"
  [[ "$ACKS" -gt 0 ]] || {
    echo "telemetry smoke: --event=ack query returned nothing" >&2; exit 1; }
  # Unknown flags must fail fast with usage, not be silently ignored.
  if ./build/tools/trace_summarize --bogus-flag "$TRACE_DIR/tel.jsonl" \
    2>/dev/null; then
    echo "telemetry smoke: unknown flag did not exit non-zero" >&2; exit 1
  fi
  ./build/tools/report_html --out="$TRACE_DIR/tel.html" \
    "$TRACE_DIR/tel_cols.jsonl"
  # Trivial tag-balance assertion: every <svg> closes and the document closes.
  OPEN_SVG="$(grep -o "<svg" "$TRACE_DIR/tel.html" | wc -l)"
  CLOSE_SVG="$(grep -o "</svg>" "$TRACE_DIR/tel.html" | wc -l)"
  [[ "$OPEN_SVG" -gt 0 && "$OPEN_SVG" -eq "$CLOSE_SVG" ]] || {
    echo "telemetry smoke: report_html SVG tags unbalanced" >&2; exit 1; }
  grep -q "</html>" "$TRACE_DIR/tel.html" || {
    echo "telemetry smoke: report_html document not closed" >&2; exit 1; }
  echo "telemetry smoke: ok"

  echo "== fleet smoke: sharded engine must match serial bitwise =="
  # The fleet engine's determinism promise: the sharded run emits a JSON
  # summary byte-identical to the serial run at any thread count. Exercise
  # the 100-flow incast with two worker threads — the config the ISSUE names.
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 \
    --mode=serial > "$TRACE_DIR/fleet_serial.json" 2>/dev/null
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 \
    --mode=sharded --threads=2 > "$TRACE_DIR/fleet_sharded.json" 2>/dev/null
  diff "$TRACE_DIR/fleet_serial.json" "$TRACE_DIR/fleet_sharded.json" || {
    echo "fleet smoke: sharded summary diverged from serial" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/fleet_serial.json"
  # Bad input must fail with a message and exit 2: never run a default in
  # its place, never abort on an uncaught exception.
  for bad in "--duration=-1" "--topo=parking_lot --hops=0" "--flows=abc" \
             "--rate=0" "--rate=abc"; do
    rc=0
    # shellcheck disable=SC2086  # $bad holds one or two flags
    ./build/tools/fleet_run $bad >/dev/null 2>&1 || rc=$?
    [[ "$rc" == 2 ]] || {
      echo "fleet smoke: fleet_run $bad exited $rc, want 2" >&2; exit 1; }
  done
  echo "fleet smoke: ok"

  echo "== fleet health smoke: windowed timeline + incidents, mode-invariant =="
  # --health adds the streaming health object (windowed fleet timeline +
  # severity-ranked anomaly incidents) to the summary; it must parse and be
  # byte-identical serial vs. sharded like everything else on stdout, and
  # report_html must render it as a fleet-health page.
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 --health \
    --mode=serial > "$TRACE_DIR/fleet_health_serial.json" 2>/dev/null
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 --health \
    --mode=sharded --threads=2 > "$TRACE_DIR/fleet_health_sharded.json" \
    2>/dev/null
  diff "$TRACE_DIR/fleet_health_serial.json" \
    "$TRACE_DIR/fleet_health_sharded.json" || {
    echo "fleet health smoke: sharded health report diverged from serial" >&2
    exit 1; }
  grep -q '"health"' "$TRACE_DIR/fleet_health_serial.json" || {
    echo "fleet health smoke: summary missing the health object" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/fleet_health_serial.json"
  ./build/tools/report_html --out="$TRACE_DIR/fleet_health.html" \
    "$TRACE_DIR/fleet_health_serial.json"
  grep -q "fleet health" "$TRACE_DIR/fleet_health.html" || {
    echo "fleet health smoke: report_html did not render the health page" >&2
    exit 1; }
  echo "fleet health smoke: ok"

  echo "== datacenter smoke: DCTCP/ECN incast, mode-invariant =="
  # The ECN path end to end: switch marks at the threshold, the CE echo rides
  # the ACK back, DCTCP scales cwnd by alpha — and none of it may perturb the
  # serial==sharded byte-identity promise. Same for the token-bucket policer.
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 \
    --cca=dctcp --ecn=45000 --mode=serial \
    > "$TRACE_DIR/dc_serial.json" 2>/dev/null
  ./build/tools/fleet_run --topo=incast --flows=100 --duration=3 \
    --cca=dctcp --ecn=45000 --mode=sharded --threads=2 \
    > "$TRACE_DIR/dc_sharded.json" 2>/dev/null
  diff "$TRACE_DIR/dc_serial.json" "$TRACE_DIR/dc_sharded.json" || {
    echo "datacenter smoke: DCTCP/ECN sharded summary diverged" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/dc_serial.json"
  grep -q '"cca":"dctcp"' "$TRACE_DIR/dc_serial.json" || {
    echo "datacenter smoke: summary is not a dctcp run" >&2; exit 1; }
  ./build/tools/fleet_run --topo=parking_lot --hops=3 --duration=3 \
    --cca=bbr --policer-rate=12 --policer-start=1 --mode=serial \
    > "$TRACE_DIR/policed_serial.json" 2>/dev/null
  ./build/tools/fleet_run --topo=parking_lot --hops=3 --duration=3 \
    --cca=bbr --policer-rate=12 --policer-start=1 --mode=sharded --threads=2 \
    > "$TRACE_DIR/policed_sharded.json" 2>/dev/null
  diff "$TRACE_DIR/policed_serial.json" "$TRACE_DIR/policed_sharded.json" || {
    echo "datacenter smoke: policed sharded summary diverged" >&2; exit 1; }
  ./build/tools/json_check "$TRACE_DIR/policed_serial.json"
  echo "datacenter smoke: ok"
fi

if [[ "$RUN_TSAN" == 1 ]]; then
  echo "== TSan: full suite must be race-free =="
  # Mirrors CI's tsan job. alloc_test is excluded, as under ASan: it
  # replaces global operator new, which conflicts with the sanitizer's
  # interceptors.
  cmake -B build-tsan -S . -DLIBRA_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -LE alloc_test)
  # The pool's exception paths, repeated: a helper task that drops the last
  # reference to a chunked loop must not release the exception the caller
  # is still handling.
  ./build-tsan/tests/parallel_test \
    --gtest_filter='ParallelForChunked.*:ThreadPool.*' --gtest_repeat=25
fi

if [[ "$RUN_ASAN" == 1 ]]; then
  echo "== ASan+UBSan: full suite, both kernel dispatch modes =="
  # Mirrors CI's simd-sanitize job. LIBRA_SANITIZE adds
  # -fno-sanitize-recover=all, so any finding fails its test. alloc_test is
  # excluded: it replaces global operator new, which conflicts with ASan's
  # interceptors.
  cmake -B build-sanitize -S . -DLIBRA_SANITIZE=address,undefined >/dev/null
  cmake --build build-sanitize -j "$JOBS"
  (cd build-sanitize && ctest --output-on-failure -j "$JOBS" -LE alloc_test)
  (cd build-sanitize && LIBRA_SIMD=off ctest --output-on-failure -j "$JOBS" -LE alloc_test)
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  echo "== bench regression: compare against committed baseline =="
  scripts/bench_regress.sh compare
fi

echo "check.sh: all green"

#!/usr/bin/env bash
# Repo verification: the tier-1 build + test sweep (with -Werror and the
# plan linter's catalog gate), a clang-tidy static-analysis pass over the
# compile-commands database, the observability overhead guard, a
# ThreadSanitizer pass over the concurrency-heavy tests (parallel runtime,
# sharded obs counters), an AddressSanitizer pass over the allocation-heavy
# tests, a light_server/light_client smoke (deadline kill, overload
# rejection, clean drain on SIGTERM), and a UBSan leg that runs the
# edge-case-heavy tests plus a 60-second differential fuzz smoke (which
# also soaks the plan linter on every generated plan) under
# -fsanitize=undefined. A scalar leg builds with -DLIGHT_ENABLE_AVX2=OFF
# and runs the kernel, bitmap, facade and engine tests, so the portable
# fallbacks (the Hybrid default, the non-SIMD dispatch arms) run somewhere.
#
# A clang thread-safety-analysis leg (-Wthread-safety -Werror) compiles the
# annotated serving stack when clang++ is available, proving the
# guarded_by/requires/excludes contracts statically; the debug lock-rank
# checker (LIGHT_LOCK_RANKS=ON on the sanitizer legs) is the runtime
# complement, aborting on any out-of-order or re-entrant acquisition.
#
# Usage: ci/verify.sh [--skip-tsan] [--skip-ubsan] [--skip-asan]
#                     [--skip-tidy] [--skip-bench] [--skip-tsa]
#                     [--skip-scalar]

set -euo pipefail
cd "$(dirname "$0")/.."

skip_tsan=0
skip_ubsan=0
skip_asan=0
skip_tidy=0
skip_bench=0
skip_tsa=0
skip_scalar=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) skip_tsan=1 ;;
    --skip-ubsan) skip_ubsan=1 ;;
    --skip-asan) skip_asan=1 ;;
    --skip-tidy) skip_tidy=1 ;;
    --skip-bench) skip_bench=1 ;;
    --skip-tsa) skip_tsa=1 ;;
    --skip-scalar) skip_scalar=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "==> tier-1: build (-Werror) + ctest"
cmake -B build -S . -DLIGHT_WERROR=ON >/dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j "$(nproc)")

echo "==> plan linter: catalog sweep (strict)"
./build/tools/plan_lint --all --strict
./build/tools/plan_lint --all --strict --algo se

if [[ "$skip_tsa" -eq 0 ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    echo "==> thread-safety analysis: clang -Wthread-safety -Werror"
    # Static verification of the mutex contracts (guarded_by / requires /
    # excludes) across the annotated serving stack. Werror=thread-safety:
    # any unprotected guarded-field access fails the build.
    cmake -B build-tsa -S . \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DLIGHT_THREAD_SAFETY_ANALYSIS=ON \
      -DLIGHT_BUILD_BENCHMARKS=OFF \
      -DLIGHT_BUILD_EXAMPLES=OFF >/dev/null
    cmake --build build-tsa -j "$(nproc)" \
      --target light_common light_obs light_storage light_parallel \
      light_facade light_net
  else
    echo "==> clang++ not installed; skipping thread-safety-analysis leg" >&2
  fi
fi

if [[ "$skip_tidy" -eq 0 ]]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> clang-tidy over src/ tools/ bench/ (compile-commands database)"
    # The tier-1 configure above exported build/compile_commands.json
    # (CMAKE_EXPORT_COMPILE_COMMANDS is on unconditionally). Tests are
    # excluded: gtest macros expand to code tidy dislikes.
    mapfile -t tidy_sources < <(ls src/*/*.cc src/*.cc tools/*.cc bench/*.cc \
                                  2>/dev/null)
    clang-tidy -p build --quiet "${tidy_sources[@]}"
  else
    echo "==> clang-tidy not installed; skipping tidy leg" >&2
  fi
fi

if [[ "$skip_bench" -eq 0 ]]; then
  # ci/snapshot.sh runs the five CI-gated benches (each enforcing its own
  # acceptance gate: obs overhead < 3% with lifecycle armed, bitmap >= 1.3x,
  # session batch >= 1.15x, IEP counting >= 3x on two dense workloads, warm
  # mmap enumeration within 1.10x of heap with bit-identical counts) plus
  # the light_server/light_client load-gen leg, consolidates their JSON into
  # one snapshot, and fails on >10% regression of any dimensionless metric
  # vs the committed baseline. Regenerate the baseline with:
  # ci/snapshot.sh --out BENCH_PR10.json
  echo "==> perf snapshot: CI-gated benches vs committed baseline"
  ci/snapshot.sh --out build/bench_snapshot.json --compare BENCH_PR10.json

  echo "==> session report: --batch emits a parseable light.session_report.v1"
  printf 'triangle\nP1\nP2\ntriangle\nP1\n' > build/verify_batch.txt
  ./build/tools/light_cli --dataset yt_s --scale 0.1 \
    --batch build/verify_batch.txt \
    --session-report build/verify_session_report.json
  python3 - build/verify_session_report.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    report = json.load(f)
assert report["schema"] == "light.session_report.v1", report.get("schema")
queries = report["queries"]
assert len(queries) == 5, f"expected 5 query records, got {len(queries)}"
for q in queries:
    assert q["total_ns"] > 0, q
    assert q["execute_ns"] > 0, q
# Pool-level breakdown: every completed query contributed one sample to the
# queue-wait and execute histograms.
for key in ("latency_ns", "queue_wait_ns", "execute_ns", "plan_ns"):
    assert report[key]["count"] == 5, (key, report[key])
assert report["latency_ns"]["p99"] >= report["latency_ns"]["p50"] > 0
assert report["pool"]["plan_cache_hits"] >= 2  # triangle + P1 resubmitted
print("session report OK: 5 lifecycle records, nonzero queue-wait/execute "
      "histograms, plan-cache hits visible")
EOF
fi

echo "==> server smoke: deadline + overload + clean shutdown over loopback"
# The server runs from a spilled .lcsr2 snapshot opened mmap, so the smoke
# covers the full store workflow: light_cli --save-store (no query) ->
# light_server --graph-store.
./build/tools/light_cli --dataset yt_s --scale 0.02 \
  --save-store build/verify_store.lcsr2
# The user-space paged store mode was removed: asking for it must be a
# usage error (exit 1 with a message), never a crash or a silent fallback.
for tool_args in "light_cli --pattern triangle" "light_server --port 0"; do
  read -r tool extra <<<"$tool_args"
  rc=0
  # shellcheck disable=SC2086
  timeout 20 ./build/tools/"$tool" --graph-store build/verify_store.lcsr2 \
    --store-mode paged $extra >/dev/null 2>build/verify_paged.err || rc=$?
  if [[ "$rc" -ne 1 ]] || ! grep -q "unknown --store-mode" build/verify_paged.err; then
    echo "==> $tool --store-mode paged: expected a usage error, got exit $rc" >&2
    cat build/verify_paged.err >&2
    exit 1
  fi
done
echo "store-mode smoke OK: --store-mode paged rejected by light_cli and light_server"
# Likewise a deleted kernel: naming one is an unknown kernel.
removed_kernel=hybrid_avx512
rc=0
./build/tools/light_cli --graph-store build/verify_store.lcsr2 \
  --pattern triangle --kernel "$removed_kernel" \
  >/dev/null 2>build/verify_kernel.err || rc=$?
if [[ "$rc" -ne 1 ]] || ! grep -q "unknown kernel" build/verify_kernel.err; then
  echo "==> light_cli --kernel $removed_kernel: expected a usage error, got exit $rc" >&2
  cat build/verify_kernel.err >&2
  exit 1
fi
echo "kernel smoke OK: --kernel $removed_kernel rejected as an unknown kernel"
# And a deleted flag: --restriction is gone, so it is an unknown flag rather
# than silently ignored.
rc=0
./build/tools/light_cli --graph-store build/verify_store.lcsr2 \
  --pattern triangle --restriction auto \
  >/dev/null 2>build/verify_flag.err || rc=$?
if [[ "$rc" -ne 1 ]] || ! grep -q "error: unknown flag --restriction" build/verify_flag.err; then
  echo "==> light_cli --restriction auto: expected a usage error, got exit $rc" >&2
  cat build/verify_flag.err >&2
  exit 1
fi
echo "flag smoke OK: --restriction rejected as an unknown flag"
# The 4-cycle closes its last vertex by counting wedges: the printed plan
# must carry the twin closure.
./build/tools/light_cli --graph-store build/verify_store.lcsr2 \
  --pattern P1 --show-plan >build/verify_plan.txt
if ! grep -q "^twin closure: u1<u3 -> u2$" build/verify_plan.txt; then
  echo "==> light_cli --pattern P1 --show-plan printed no twin closure" >&2
  cat build/verify_plan.txt >&2
  exit 1
fi
echo "plan smoke OK: P1 prints its twin closure"
# The book's pages end sigma as twins: P5 counts them by one binomial.
./build/tools/light_cli --graph-store build/verify_store.lcsr2 \
  --pattern P5 --show-plan >build/verify_plan.txt
if ! grep -q "^twin closure: u2<u3<u4<u5$" build/verify_plan.txt; then
  echo "==> light_cli --pattern P5 --show-plan printed no twin leaf" >&2
  cat build/verify_plan.txt >&2
  exit 1
fi
echo "plan smoke OK: P5 prints its twin leaf"
# A misspelt bench flag is a usage error at once, not a silent full sweep.
rc=0
timeout 10 ./build/bench/bench_fig4_redundancy --bogus \
  >/dev/null 2>build/verify_bench_flag.err || rc=$?
if [[ "$rc" -ne 1 ]] || ! grep -q "unknown flag --bogus" build/verify_bench_flag.err; then
  echo "==> bench_fig4_redundancy --bogus: expected a usage error, got exit $rc" >&2
  cat build/verify_bench_flag.err >&2
  exit 1
fi
echo "bench flag smoke OK: bench_fig4_redundancy --bogus rejected"
server_log="build/verify_server.log"
./build/tools/light_server --graph-store build/verify_store.lcsr2 \
  --store-mode mmap --threads 4 \
  --max-pending 1 --port 0 >"$server_log" 2>build/verify_server.err &
server_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on \([0-9]*\)$/\1/p' "$server_log")"
  [[ -n "$port" ]] && break
  sleep 0.1
done
if [[ -z "$port" ]]; then
  echo "==> light_server did not start:" >&2
  cat build/verify_server.err >&2
  kill "$server_pid" 2>/dev/null || true
  exit 1
fi
# 50 queries closed-loop, one with a microsecond deadline it cannot make.
{
  for _ in $(seq 1 16); do printf 'triangle\nsquare\nP3\n'; done
  printf 'P3 deadline=0.000001\n'
  printf 'triangle\n'
} > build/verify_trace.txt
rm -f build/verify_client.jsonl
./build/tools/light_client --port "$port" --trace build/verify_trace.txt \
  --quiet --json build/verify_client.jsonl
# Saturate the 1-deep admission queue: rejections must come back as
# structured overload_rejected responses, not connection errors.
printf 'triangle\nsquare\nP3\n' > build/verify_sat_trace.txt
./build/tools/light_client --port "$port" --trace build/verify_sat_trace.txt \
  --mode saturate --window 8 --duration 1 --quiet \
  --json build/verify_client.jsonl
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "==> light_server exited nonzero (leaked queries?):" >&2
  cat "$server_log" build/verify_server.err >&2
  exit 1
fi
python3 - build/verify_client.jsonl "$server_log" <<'EOF'
import json, sys

records = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
fixed = [r for r in records if r["mode"] == "fixed"][-1]
sat = [r for r in records if r["mode"] == "saturate"][-1]
assert fixed["queries"] == 50, fixed
assert fixed["deadline_exceeded"] >= 1, fixed
assert fixed["errors"] == 0 and fixed["cancelled"] == 0, fixed
assert fixed["ok"] + fixed["deadline_exceeded"] == fixed["queries"], fixed
assert sat["overload_rejected"] >= 1, sat
assert sat["errors"] == 0, sat
log = open(sys.argv[2]).read()
assert "open_queries=0" in log, log
print(f"server smoke OK: {fixed['queries']} fixed queries "
      f"({fixed['deadline_exceeded']} deadline-killed), "
      f"{sat['overload_rejected']} overload-rejected under saturation, "
      f"clean shutdown with zero leaked queries")
EOF

if [[ "$skip_scalar" -eq 0 ]]; then
  echo "==> scalar: AVX2 off (kernel, bitmap, facade, engine tests)"
  cmake -B build-scalar -S . \
    -DLIGHT_ENABLE_AVX2=OFF \
    -DLIGHT_BUILD_BENCHMARKS=OFF \
    -DLIGHT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-scalar -j "$(nproc)" \
    --target intersect_test bitmap_test facade_test engine_test
  ./build-scalar/tests/intersect_test
  ./build-scalar/tests/bitmap_test
  ./build-scalar/tests/facade_test
  ./build-scalar/tests/engine_test
fi

if [[ "$skip_tsan" -eq 0 ]]; then
  echo "==> TSan: parallel + obs + session + facade + net + concurrency tests"
  # LIGHT_LOCK_RANKS=ON arms the lock-rank checker under TSan too, so the
  # sweep validates both data-race freedom and acquisition order.
  cmake -B build-tsan -S . \
    -DLIGHT_SANITIZE=thread \
    -DLIGHT_LOCK_RANKS=ON \
    -DLIGHT_BUILD_BENCHMARKS=OFF \
    -DLIGHT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-tsan -j "$(nproc)" \
    --target parallel_test obs_test session_test facade_test net_test \
    concurrency_test storage_test light_server light_client
  ./build-tsan/tests/parallel_test
  ./build-tsan/tests/obs_test
  ./build-tsan/tests/session_test
  # Parallel IEP: the term plans of one query run as concurrent pool parts.
  ./build-tsan/tests/facade_test
  ./build-tsan/tests/net_test
  ./build-tsan/tests/concurrency_test
  # Multi-threaded ParallelCount over one shared mmap store, and two
  # Sessions sharing one store's bitmap cache (GraphStore::bitmap_mutex_).
  ./build-tsan/tests/storage_test

  echo "==> TSan: light_server/light_client loopback soak"
  # The full serving path (event loop, session callbacks, pool workers,
  # session timer thread) under ThreadSanitizer: saturate over
  # loopback for ~2s, then SIGTERM and require a clean zero-leak exit.
  tsan_server_log="build-tsan/soak_server.log"
  ./build-tsan/tools/light_server --dataset yt_s --scale 0.02 --threads 4 \
    --port 0 >"$tsan_server_log" 2>build-tsan/soak_server.err &
  tsan_server_pid=$!
  tsan_port=""
  for _ in $(seq 1 200); do
    tsan_port="$(sed -n 's/^listening on \([0-9]*\)$/\1/p' "$tsan_server_log")"
    [[ -n "$tsan_port" ]] && break
    sleep 0.1
  done
  if [[ -z "$tsan_port" ]]; then
    echo "==> TSan light_server did not start:" >&2
    cat build-tsan/soak_server.err >&2
    kill "$tsan_server_pid" 2>/dev/null || true
    exit 1
  fi
  printf 'triangle\nsquare\nP3 deadline=0.000001\n' > build-tsan/soak_trace.txt
  ./build-tsan/tools/light_client --port "$tsan_port" \
    --trace build-tsan/soak_trace.txt \
    --mode saturate --window 8 --duration 2 --quiet \
    --json build-tsan/soak_client.jsonl
  kill -TERM "$tsan_server_pid"
  if ! wait "$tsan_server_pid"; then
    echo "==> TSan light_server exited nonzero (race or leaked query):" >&2
    cat "$tsan_server_log" build-tsan/soak_server.err >&2
    exit 1
  fi
  grep -q "open_queries=0" "$tsan_server_log" || {
    echo "==> TSan soak: server shut down with leaked queries" >&2
    exit 1
  }
  echo "TSan soak OK: saturating loopback traffic, clean drain on SIGTERM"
fi

if [[ "$skip_asan" -eq 0 ]]; then
  echo "==> ASan: allocation-heavy tests (engine, planner, estimator, analysis, facade)"
  cmake -B build-asan -S . \
    -DLIGHT_SANITIZE=address \
    -DLIGHT_BUILD_BENCHMARKS=OFF \
    -DLIGHT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-asan -j "$(nproc)" \
    --target engine_test plan_test estimator_test analysis_test facade_test \
    storage_test
  export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
  ./build-asan/tests/engine_test
  ./build-asan/tests/plan_test
  # The sampling estimator walks its sample population and MaxDegree-sized
  # intersection buffers through raw pointers.
  ./build-asan/tests/estimator_test
  ./build-asan/tests/analysis_test
  ./build-asan/tests/facade_test
  # mmap lifetime + header parsing on hostile files: the leg most likely to
  # catch an out-of-bounds section read or a leaked mapping.
  ./build-asan/tests/storage_test
fi

if [[ "$skip_ubsan" -eq 0 ]]; then
  echo "==> UBSan: edge-case tests + fuzz smoke"
  cmake -B build-ubsan -S . \
    -DLIGHT_SANITIZE=undefined \
    -DLIGHT_LOCK_RANKS=ON \
    -DLIGHT_BUILD_BENCHMARKS=OFF \
    -DLIGHT_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-ubsan -j "$(nproc)" \
    --target intersect_test parallel_test fuzz_test light_fuzz
  export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
  ./build-ubsan/tests/intersect_test
  ./build-ubsan/tests/parallel_test
  ./build-ubsan/tests/fuzz_test
  # Differential fuzz: LIGHT (serial + parallel) vs the baseline engines on
  # random graphs/patterns/configs for ~60s. Divergences shrink to minimal
  # repro artifacts; keep them for the failure report.
  artifact_dir="build-ubsan/fuzz-artifacts"
  mkdir -p "$artifact_dir"
  fuzz_log="build-ubsan/fuzz-smoke.log"
  if ! ./build-ubsan/tools/light_fuzz --smoke --artifact-dir "$artifact_dir" \
      | tee "$fuzz_log"; then
    echo "==> fuzz smoke FAILED; divergence artifacts:" >&2
    for f in "$artifact_dir"/*.txt; do
      [[ -e "$f" ]] || continue
      echo "--- $f ---" >&2
      cat "$f" >&2
    done
    exit 1
  fi
  # The hybrid oracles must have actually routed intersections through the
  # bitmap kernels (bitmap_cases counts cases with >= 1 bitmap-routed
  # intersection); a zero here means the bitmap path silently went dark.
  bitmap_cases="$(sed -n 's/.*bitmap_cases=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$bitmap_cases" || "$bitmap_cases" -lt 1 ]]; then
    echo "==> fuzz smoke exercised no bitmap-routed cases" >&2
    exit 1
  fi
  # Every plan the oracles executed was also run through the static plan
  # linter; any violation is a planner bug or a linter false positive.
  lint_violations="$(sed -n 's/.*lint_violations=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$lint_violations" || "$lint_violations" -ne 0 ]]; then
    echo "==> fuzz smoke reported plan-lint violations" >&2
    exit 1
  fi
  # The session oracle (shared Session, interleaved queries, plan-cache
  # reuse) must have run; zero means the multi-query path went untested.
  session_cases="$(sed -n 's/.*session_cases=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$session_cases" || "$session_cases" -lt 1 ]]; then
    echo "==> fuzz smoke exercised no session-oracle cases" >&2
    exit 1
  fi
  # The session oracle also records per-case query latency; the quantile
  # summary line going missing means the lifecycle plumbing went dark.
  if ! grep -q "session_latency p50=" "$fuzz_log"; then
    echo "==> fuzz smoke printed no session-latency quantiles" >&2
    exit 1
  fi
  # The inclusion-exclusion counting oracle (IEP decomposition
  # linted for exactness, term-combined count vs direct enumeration).
  iep_cases="$(sed -n 's/.*iep_cases=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$iep_cases" || "$iep_cases" -lt 1 ]]; then
    echo "==> fuzz smoke exercised no IEP-counting cases" >&2
    exit 1
  fi
  # COMP windows (symmetry-breaking bounds applied before intersecting)
  # must appear in the swept plans; zero means the windowed candidate
  # computation went untested.
  comp_window_cases="$(sed -n 's/.*comp_window_cases=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$comp_window_cases" || "$comp_window_cases" -lt 1 ]]; then
    echo "==> fuzz smoke exercised no COMP-window cases" >&2
    exit 1
  fi
  # Twin closures (the last vertex counted by one scatter over the twins'
  # candidates) and twin leaves (twins ending sigma, counted by one
  # binomial) must appear in the swept LIGHT plans; zero means that count
  # went unchecked against the other engines.
  twin_closure_cases="$(sed -n 's/.*twin_closure_cases=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$twin_closure_cases" || "$twin_closure_cases" -lt 1 ]]; then
    echo "==> fuzz smoke exercised no twin-closure cases" >&2
    exit 1
  fi
  twin_leaf_cases="$(sed -n 's/.*twin_leaf_cases=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$twin_leaf_cases" || "$twin_leaf_cases" -lt 1 ]]; then
    echo "==> fuzz smoke exercised no twin-leaf cases" >&2
    exit 1
  fi
  # The store-parity oracle (every case spilled to .lcsr2, re-opened mmap,
  # counts cross-checked against the heap engines)
  # must have run; zero means the storage leg silently went dark.
  store_cases="$(sed -n 's/.*store_cases=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$store_cases" || "$store_cases" -lt 1 ]]; then
    echo "==> fuzz smoke exercised no store-parity cases" >&2
    exit 1
  fi
  # Labeled cases are the differential oracle for label filtering in COMP
  # and MAT (the MAT loop trusts COMP's filtered candidate sets); zero
  # means the labeled leg went dark.
  labeled_cases="$(sed -n 's/.*labeled_cases=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$labeled_cases" || "$labeled_cases" -lt 1 ]]; then
    echo "==> fuzz smoke exercised no labeled cases" >&2
    exit 1
  fi
  # This build arms the lock-rank checker (LIGHT_LOCK_RANKS=ON above); a
  # zero counter means the checker silently went dark and the whole sweep
  # proved nothing about acquisition order.
  rank_checks="$(sed -n 's/.*rank_checks=\([0-9]*\).*/\1/p' "$fuzz_log")"
  if [[ -z "$rank_checks" || "$rank_checks" -lt 1 ]]; then
    echo "==> fuzz smoke performed no lock-rank checks (checker dark?)" >&2
    exit 1
  fi
fi

echo "==> verify OK"

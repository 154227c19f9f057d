#!/usr/bin/env bash
# Perf-snapshot harness: runs the CI-gated benches (bench_obs_overhead,
# bench_bitmap, bench_session, bench_iep, bench_store) and the
# light_server/light_client load-gen leg with --json, consolidates their
# records into one light.bench_snapshot.v1 document, and — in comparison
# mode — fails when a dimensionless metric regressed more than the
# tolerance against a committed baseline (BENCH_PR10.json).
#
# Only RATIOS and SPEEDUPS are compared, never absolute seconds: snapshots
# are taken on different machines, and wall-clock times do not transfer.
# See EXPERIMENTS.md "Perf snapshots" for the methodology.
#
# Usage: ci/snapshot.sh [--out PATH]            # default build/bench_snapshot.json
#                       [--compare BASELINE]    # fail on >tolerance regressions
#                       [--tolerance PCT]       # default 10 (percent)
#                       [--build-dir DIR]       # default build

set -euo pipefail
cd "$(dirname "$0")/.."

out="build/bench_snapshot.json"
baseline=""
tolerance=10
build_dir="build"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out) out="$2"; shift 2 ;;
    --compare) baseline="$2"; shift 2 ;;
    --tolerance) tolerance="$2"; shift 2 ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [[ ! -x "$build_dir/bench/bench_obs_overhead" || \
      ! -x "$build_dir/tools/light_server" ]]; then
  echo "==> benches missing; building $build_dir"
  cmake -B "$build_dir" -S . >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" \
    --target bench_obs_overhead bench_bitmap bench_session bench_iep \
             bench_store light_server light_client
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Each bench enforces its own acceptance gate (non-zero exit on failure),
# so the snapshot run doubles as the CI bench leg.
echo "==> bench_obs_overhead (armed overhead < 3%, incl. session lifecycle)"
"$build_dir/bench/bench_obs_overhead" --check --json "$tmp/obs.jsonl"

echo "==> bench_bitmap (both-bitmap intersections >= 1.3x array)"
"$build_dir/bench/bench_bitmap" --check 1.3 --json "$tmp/bitmap.jsonl"

echo "==> bench_session (batch amortization >= 1.15x, single-query parity)"
"$build_dir/bench/bench_session" --check --json "$tmp/session.jsonl"

# Counting leg: the count-only leaf must beat a walk of the same plan >= 3x
# on at least two dense workloads (stars on hub-heavy graphs). Scale 0.25
# lets the star4 walk finish (counts cross-checked); the star5 walk cannot
# finish at any scale, so its speedup is a time-limit floor and the
# snapshot metric below uses the SECOND-best workload speedup, which comes
# from a fully measured leg.
echo "==> bench_iep (count-only leaf >= 3x its walk on two workloads)"
"$build_dir/bench/bench_iep" --check 3 --scale 0.25 --time-limit 20 \
  --json "$tmp/iep.jsonl"

# Storage-engine leg: one .lcsr2 snapshot opened heap and mmap. The gate
# requires warm mmap enumeration within 1.10x of the heap store and
# bit-identical counts in both modes; cold-open speedup (full heap load vs
# mmap header validation) is the snapshot's second store metric.
echo "==> bench_store (warm mmap <= 1.10x heap, counts identical)"
"$build_dir/bench/bench_store" --check --json "$tmp/store.jsonl"

# Serving load-gen: light_client against a live light_server, once closed
# loop (one request outstanding) and once saturating with a deep window.
# The snapshot metric is the dimensionless ratio of the two throughputs —
# how much concurrency the serving stack actually extracts — so it
# transfers across machines like the other ratios.
echo "==> light_client load-gen (closed-loop vs saturation throughput)"
"$build_dir/tools/light_server" --dataset yt_s --scale 0.02 --threads 4 \
  --port 0 >"$tmp/server.log" 2>"$tmp/server.err" &
server_pid=$!
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on \([0-9]*\)$/\1/p' "$tmp/server.log")"
  [[ -n "$port" ]] && break
  sleep 0.1
done
if [[ -z "$port" ]]; then
  echo "light_server did not start:" >&2
  cat "$tmp/server.err" >&2
  kill "$server_pid" 2>/dev/null || true
  exit 1
fi
# threads=1 pins each query to one worker so the closed-loop leg cannot
# hide queueing by fanning one query across the pool. Each mode runs twice
# and the consolidation keeps the best throughput per mode (the repo's
# min-of-reps idiom) — single qps samples are too noisy to gate on.
printf 'triangle threads=1\nsquare threads=1\nP3 threads=1\n' \
  > "$tmp/serve_trace.txt"
for _ in 1 2; do
  "$build_dir/tools/light_client" --port "$port" \
    --trace "$tmp/serve_trace.txt" \
    --repeat 100 --quiet --json "$tmp/client.jsonl"
  "$build_dir/tools/light_client" --port "$port" \
    --trace "$tmp/serve_trace.txt" \
    --mode saturate --window 16 --duration 3 --quiet \
    --json "$tmp/client.jsonl"
done
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "light_server exited nonzero after load-gen:" >&2
  cat "$tmp/server.log" "$tmp/server.err" >&2
  exit 1
fi

echo "==> consolidating -> $out"
python3 - "$tmp" "$out" <<'EOF'
import json, sys

tmp, out = sys.argv[1], sys.argv[2]

def jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]

# bench_obs_overhead: one record with the measured ratios (lower = better).
obs = jsonl(f"{tmp}/obs.jsonl")[-1]

# bench_bitmap: per-family micro_array/micro_bitmap rows; speedup is
# array/bitmap per family (higher = better).
micro = {}
for row in jsonl(f"{tmp}/bitmap.jsonl"):
    if row["variant"] in ("micro_array", "micro_bitmap"):
        micro.setdefault(row["dataset"], {})[row["variant"]] = row["seconds"]
speedups = [v["micro_array"] / v["micro_bitmap"]
            for v in micro.values()
            if v.get("micro_bitmap") and v.get("micro_array")]

# bench_session: one record with batch_speedup (higher = better) and
# single_ratio (lower = better).
session = jsonl(f"{tmp}/session.jsonl")[-1]

# bench_iep: walk/leaf rows per (dataset, pattern) workload; speedup is
# walk/leaf seconds (higher = better). OOT walk legs are floors, so the
# gated metric is the second-best workload speedup — star5's floor always
# ranks first, leaving a fully measured ratio as the metric.
leaf_runs = {}
for row in jsonl(f"{tmp}/iep.jsonl"):
    key = f'{row["dataset"]}/{row["pattern"]}'
    leaf_runs.setdefault(key, {})[row["variant"]] = row
leaf_speedups = {k: v["walk"]["seconds"] / v["leaf"]["seconds"]
                 for k, v in leaf_runs.items()
                 if v.get("walk") and v.get("leaf")
                 and v["leaf"]["seconds"] > 0}
leaf_second_best = sorted(leaf_speedups.values(), reverse=True)[1]

# bench_store: per-dataset summary records carrying the warm mmap/heap
# enumeration ratio (lower = better, gated at 1.10 by the bench itself) and
# the cold-open speedup (higher = better). Gate on the worst warm ratio but
# the BEST cold-open speedup: open times are microseconds, and the largest
# dataset's ratio is the least timer-noisy sample.
store_rows = [r for r in jsonl(f"{tmp}/store.jsonl")
              if r.get("variant") == "summary"]
store_warm_ratio = max(r["mmap_warm_ratio"] for r in store_rows)
store_cold_speedup = max(r["cold_open_speedup"] for r in store_rows)

# light_client: two fixed (closed-loop) and two saturate records; the
# dimensionless saturation speedup is the ratio of the best throughput per
# mode. It measures how much the serving stack gains from pipelining +
# cross-query concurrency; on a single-core machine that is bounded by the
# round-trip overhead the closed loop pays per query (~1.0-1.1x), on a
# multicore machine it grows with the pool. Throughput samples are noisy,
# so the committed baseline carries a widened per-metric tolerance.
client = jsonl(f"{tmp}/client.jsonl")
for r in client:
    assert r["errors"] == 0, r
fixed_runs = [r for r in client if r["mode"] == "fixed"]
saturate_runs = [r for r in client if r["mode"] == "saturate"]
fixed = max(fixed_runs, key=lambda r: r["throughput_qps"])
saturate = max(saturate_runs, key=lambda r: r["throughput_qps"])
saturation_speedup = saturate["throughput_qps"] / fixed["throughput_qps"]

metrics = {
    "obs.metrics_ratio": {"value": obs["metrics_ratio"], "better": "lower"},
    "obs.session_ratio": {"value": obs["session_ratio"], "better": "lower"},
    "obs.tracing_ratio": {"value": obs["tracing_ratio"], "better": "lower"},
    "bitmap.best_speedup": {"value": max(speedups), "better": "higher"},
    "session.batch_speedup": {"value": session["batch_speedup"],
                              "better": "higher"},
    "session.single_ratio": {"value": session["single_ratio"],
                             "better": "lower"},
    # qps ratios wobble more than the pure compute ratios; the baseline
    # entry's own tolerance (read by the compare pass) absorbs that.
    "server.saturation_speedup": {"value": saturation_speedup,
                                  "better": "higher", "tolerance": 20},
    # The leaf finishes in milliseconds while the walk runs seconds, so the
    # ratio is huge and its denominator timer-noisy; widen the band.
    "count.leaf_speedup": {"value": leaf_second_best,
                           "better": "higher", "tolerance": 40},
    # Warm mmap vs heap enumeration over the same .lcsr2 snapshot; the
    # bench hard-gates this at 1.10, the snapshot band is just drift watch.
    "store.mmap_parity": {"value": store_warm_ratio, "better": "lower"},
    # Microsecond-scale open timings make this the noisiest ratio in the
    # snapshot; the wide band only catches order-of-magnitude collapses
    # (e.g. mmap open silently degrading to a full file read).
    "store.cold_open_speedup": {"value": store_cold_speedup,
                                "better": "higher", "tolerance": 60},
}
snapshot = {
    "schema": "light.bench_snapshot.v1",
    "metrics": metrics,
    "benches": {
        "bench_obs_overhead": obs,
        "bench_bitmap": {"family_speedups": {k: v["micro_array"] / v["micro_bitmap"]
                                             for k, v in micro.items()},
                         "best_speedup": max(speedups)},
        "bench_session": session,
        "bench_iep": {"workload_speedups": leaf_speedups,
                      "second_best_speedup": leaf_second_best},
        "bench_store": {"summaries": {r["dataset"]: r for r in store_rows},
                        "warm_ratio": store_warm_ratio,
                        "cold_open_speedup": store_cold_speedup},
        "light_client": {"fixed": fixed, "saturate": saturate,
                         "saturation_speedup": saturation_speedup},
    },
}
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}")
EOF

if [[ -n "$baseline" ]]; then
  echo "==> comparing against $baseline (tolerance ${tolerance}%)"
  python3 - "$out" "$baseline" "$tolerance" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    current = json.load(f)
with open(sys.argv[2]) as f:
    base = json.load(f)
tol = float(sys.argv[3]) / 100.0

failed = []
for name, entry in sorted(base.get("metrics", {}).items()):
    cur = current.get("metrics", {}).get(name)
    if cur is None:
        failed.append(f"{name}: missing from current snapshot")
        continue
    b, c = entry["value"], cur["value"]
    # A baseline entry may widen its own band (noisier metrics, e.g. the
    # qps-derived server ratio); otherwise the global tolerance applies.
    mtol = float(entry.get("tolerance", tol * 100.0)) / 100.0
    if entry["better"] == "lower":
        # A ratio creeping UP is the regression.
        regressed = c > b * (1.0 + mtol)
    else:
        regressed = c < b * (1.0 - mtol)
    marker = "REGRESSED" if regressed else "ok"
    print(f"  {name:26s} baseline={b:8.3f} current={c:8.3f}  {marker}")
    if regressed:
        failed.append(f"{name}: {b:.3f} -> {c:.3f} ({entry['better']} is better)")
if failed:
    print("\nFAIL: regressions beyond tolerance:")
    for f_ in failed:
        print(f"  {f_}")
    sys.exit(1)
print("\nOK: no metric regressed beyond tolerance")
EOF
fi

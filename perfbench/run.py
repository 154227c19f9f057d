#!/usr/bin/env python3
"""Repository benchmark: builds the program from source, generates the
workload's inputs from --seed, runs the measuring program (perf_driver),
checks every answer, and prints the metrics.

    python3 perfbench/run.py --workload census|serve_hot|serve_cold \
        --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 the per-layer ones.
Everything is built and written under $CARGO_TARGET_DIR (default
.bench_build) inside the checkout. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]); None when empty."""
    v = sorted(values)
    if not v:
        return None
    pos = q * (len(v) - 1)
    lo = int(pos)
    if pos == lo:
        return v[lo]
    return v[lo] + (v[lo + 1] - v[lo]) * (pos - lo)


def cpu_ticks():
    """The aggregate cpu line of /proc/stat (empty where unavailable)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def median(values):
    return statistics.median(values) if values else None


# ---------------------------------------------------------------------------
# Build and inputs.
# ---------------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; nothing to measure")
    bdir = os.path.join(out_dir, "perfbench")
    log_path = os.path.join(out_dir, "build.log")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                      "perf_driver", "light_server"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (see %s)" % log_path)
    return (os.path.join(bdir, "perf_driver"),
            os.path.join(bdir, "light", "tools", "light_server"))


def make_inputs(driver, work, workload, seed):
    d = os.path.join(work, "inputs")
    os.makedirs(d, exist_ok=True)
    if subprocess.call([driver, "gen", "--workload", workload, "--seed",
                        str(seed), "--out", d]) != 0:
        fail("input generation failed", 1)
    return d


# ---------------------------------------------------------------------------
# End-to-end metrics of one pass.
# ---------------------------------------------------------------------------

E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MiB", "census_s": "s",
    "p50_ms.low": "ms", "p99_ms.low": "ms", "p50_ms.mid": "ms",
    "p99_ms.mid": "ms", "sat_qps": "1/s",
}


def serve_phase_latencies(p, phase):
    """Open-loop latencies from due time; a failed request misses every
    latency limit, so it counts as +inf."""
    return [lat if ok else float("inf")
            for lat, ok in zip(p[phase + ".lat_ms"], p[phase + ".ok"])]


def per_query_medians(ms, query):
    """The median latency of each census query over the run's rounds."""
    by_query = {}
    for q, v in zip(query, ms):
        by_query.setdefault(int(q), []).append(v)
    return [statistics.median(v) for v in by_query.values()]


def e2e_metrics(workload, p):
    """name -> (value, samples)."""
    m = {"setup_s": (median(p["setup_s"]), len(p["setup_s"])),
         "peak_rss_mb": (p["peak_rss_mb"], 1)}
    if workload == "census":
        m["census_s"] = (median(p["census_s"]), len(p["census_s"]))
        m["sat_qps"] = (p["mid_completions"] / p["mid_seconds"],
                        int(p["mid_completions"]))
        # The census list holds eight different queries, so a percentile
        # over raw samples would jump between queries from run to run. The
        # percentiles are taken over each query's median latency instead.
        for name in ("low", "mid"):
            per_query = per_query_medians(p[name + "_ms"], p[name + "_query"])
            n = len(p[name + "_ms"])
            m["p50_ms." + name] = (quantile(per_query, 0.5), n)
            m["p99_ms." + name] = (quantile(per_query, 0.99), n)
        return m
    m["census_s"] = (p["census_s"], len(p["sat.lat_ms"]))
    m["sat_qps"] = (p["sat_completions"] / p["sat_seconds"],
                    int(p["sat_completions"]))
    for name in ("low", "mid"):
        v = serve_phase_latencies(p, name)
        m["p50_ms." + name] = (quantile(v, 0.5), len(v))
        m["p99_ms." + name] = (quantile(v, 0.99), len(v))
    return m


def serve_validity(cfg, limits, p):
    """Returns a list of reasons the pass left the workload's valid range."""
    bad = []
    timed = ("low", "mid", "sat")
    hits = sum(sum(p[ph + ".hit"]) for ph in timed)
    n = sum(len(p[ph + ".hit"]) for ph in timed)
    ratio = hits / max(1, n)
    if "hit_ratio_min" in cfg and ratio < cfg["hit_ratio_min"]:
        bad.append("plan-cache hit ratio %.3f < %.2f" %
                   (ratio, cfg["hit_ratio_min"]))
    if "hit_ratio_max" in cfg and ratio >= cfg["hit_ratio_max"]:
        bad.append("plan-cache hit ratio %.3f >= %.2f" %
                   (ratio, cfg["hit_ratio_max"]))
    server = [t for ph in timed for t in p[ph + ".total_ms"]]
    if median(server) < limits["server_side_p50_ms_min"]:
        bad.append("median server-side time %.2f ms < %s ms" %
                   (median(server), limits["server_side_p50_ms_min"]))
    for ph in ("low", "mid"):
        late = quantile(p[ph + ".late_ms"], 0.99)
        if late > limits["generator_late_p99_ms_max"]:
            bad.append("%s phase: generator p99 lateness %.2f ms" % (ph, late))
        first, last = p[ph + ".inflight_first"], p[ph + ".inflight_last"]
        if last > limits["backlog_growth_factor"] * first + \
                limits["backlog_growth_slack"]:
            bad.append("%s phase: backlog grew (in flight %.1f -> %.1f, %d "
                       "at the end)" % (ph, first, last, p[ph + ".backlog_end"]))
    if not p["clean_exit"]:
        bad.append("light_server did not exit cleanly")
    return bad, ratio


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run.
# ---------------------------------------------------------------------------

SHARE_LAYERS = ("net", "facade", "plan", "parallel", "engine")


def span_shares(spans, roots):
    """Self time per layer (the span name's prefix) over the request-path
    trees rooted at spans named in `roots`, as a share of the roots' time."""
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(int(s["parent"]), []).append(i)
    self_ns = {}
    root_ns = 0

    def walk(i):
        s = spans[i]
        dur = max(0, s["end_ns"] - s["start_ns"])
        covered = 0
        for c in children.get(i, []):
            cs = spans[c]
            lo, hi = max(cs["start_ns"], s["start_ns"]), min(cs["end_ns"],
                                                             s["end_ns"])
            covered += max(0, hi - lo)
            walk(c)
        layer = s["name"].split(".")[0]
        self_ns[layer] = self_ns.get(layer, 0) + max(0, dur - covered)

    for i, s in enumerate(spans):
        if int(s["parent"]) == -1 and s["name"] in roots:
            root_ns += max(0, s["end_ns"] - s["start_ns"])
            walk(i)
    return {k: self_ns.get(k, 0) / max(1, root_ns) for k in SHARE_LAYERS}


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(workload, raw, spans, untraced_e2e, traced_e2e):
    L = raw["layers"]
    traced = raw["passes"][1]
    m = {
        "storage.open_ms": median(L["storage.open_ms"]),
        "storage.minflt_per_query": traced["minflt_per_query"],
        "graph.stats_ms": median(L["graph.stats_ms"]),
        "graph.bitmap_build_ms": median(L["graph.bitmap_build_ms"]),
        "plan.build_ms.p50": quantile(L["plan.build_ms"], 0.5),
        "plan.build_ms.p99": quantile(L["plan.build_ms"], 0.99),
        "plan.lint_ms": median(L["plan.lint_ms"]),
        "intersect.ns_per_elem": median(L["intersect.ns_per_elem"]),
        "net.codec_us": median(L["net.codec_us"]),
    }
    if workload == "census":
        qs = traced["queries"]
        nq = len(raw["serial_ms"])
        one_pass = qs[:nq]
        m.update({
            "plan.resolve_ms.hit": 0.0,
            "plan.cache_hit_ratio": 0.0,
            "facade.run_overhead_ms": median(
                [q["wall_ms"] - q["execute_ns"] / 1e6 for q in qs]),
            "facade.handoff_ms": median(
                [(q["total_ns"] - q["plan_ns"] - q["queue_wait_ns"]
                  - q["execute_ns"]) / 1e6 for q in qs]),
            "parallel.queue_wait_ms.p50":
                quantile([q["queue_wait_ns"] / 1e6 for q in qs], 0.5),
            "parallel.queue_wait_ms.p99":
                quantile([q["queue_wait_ns"] / 1e6 for q in qs], 0.99),
            "parallel.busy_share": ratio(
                sum(q["busy_ns"] for q in qs),
                sum(q["execute_ns"] * q["threads"] for q in qs)),
            "parallel.park_ms": statistics.mean(q["park_ns"] for q in qs) / 1e6,
            "parallel.steals": statistics.mean(q["steals"] for q in qs),
            "parallel.load_imbalance":
                statistics.mean(q["load_imbalance"] for q in qs),
            "parallel.speedup": sum(raw["serial_ms"]) / 1e3 /
                untraced_e2e["census_s"][0],
            "engine.execute_ms": median([q["execute_ns"] / 1e6 for q in qs]),
            "engine.partial_results": sum(q["partial_results"] for q in one_pass),
            "engine.comp_calls": sum(q["comp_calls"] for q in one_pass),
            "engine.mat_calls": sum(q["mat_calls"] for q in one_pass),
            "intersect.calls": sum(q["intersections"] for q in one_pass),
            "net.rtt_minus_server_ms.p50": 0.0,
            "net.rtt_minus_server_ms.p99": 0.0,
        })
        counters = qs
        roots = ("census.pass",)
    else:
        timed = ("low", "mid", "sat")
        hit_plan = [pl for ph in timed
                    for pl, h in zip(traced[ph + ".plan_ms"], traced[ph + ".hit"])
                    if h]
        hits = sum(sum(traced[ph + ".hit"]) for ph in timed)
        n = sum(len(traced[ph + ".hit"]) for ph in timed)
        handoff = [t - pl - qw - ex for ph in timed
                   for t, pl, qw, ex in zip(traced[ph + ".total_ms"],
                                            traced[ph + ".plan_ms"],
                                            traced[ph + ".queue_ms"],
                                            traced[ph + ".exec_ms"])]
        with open(raw["session_report"]) as f:
            report = json.load(f)["queries"]
        rep = raw["replay"]
        net = [r - t for r, t in zip(traced["low.rtt_ms"],
                                     traced["low.total_ms"])]
        low_total_s = statistics.mean(traced["low.total_ms"]) / 1e3
        m.update({
            "plan.resolve_ms.hit": median(hit_plan) if hit_plan else 0.0,
            "plan.cache_hit_ratio": ratio(hits, n),
            "facade.run_overhead_ms": median(
                [q["wall_ms"] - q["execute_ns"] / 1e6 for q in rep]),
            "facade.handoff_ms": median(handoff),
            "parallel.queue_wait_ms.p50": quantile(traced["mid.queue_ms"], 0.5),
            "parallel.queue_wait_ms.p99": quantile(traced["mid.queue_ms"], 0.99),
            "parallel.busy_share": ratio(sum(q["busy_ns"] for q in report),
                                         sum(q["execute_ns"] for q in report)),
            "parallel.park_ms":
                statistics.mean(q["park_ns"] for q in report) / 1e6,
            "parallel.steals": statistics.mean(q["steals"] for q in report),
            "parallel.load_imbalance":
                statistics.mean(q["load_imbalance"] for q in rep),
            # Effective parallelism: saturated throughput over the
            # one-at-a-time rate implied by the low-load server time.
            "parallel.speedup": untraced_e2e["sat_qps"][0] * low_total_s,
            "engine.execute_ms": median(traced["low.exec_ms"]),
            "engine.partial_results":
                statistics.mean(q["partial_results"] for q in rep),
            "engine.comp_calls": statistics.mean(q["comp_calls"] for q in rep),
            "engine.mat_calls": statistics.mean(q["mat_calls"] for q in rep),
            "intersect.calls": statistics.mean(q["intersections"] for q in rep),
            "net.rtt_minus_server_ms.p50": quantile(net, 0.5),
            "net.rtt_minus_server_ms.p99": quantile(net, 0.99),
        })
        counters = rep
        roots = ("net.request",)
    m["engine.ns_per_partial"] = ratio(
        sum(q["execute_ns"] for q in counters),
        sum(q["partial_results"] for q in counters))
    inter = sum(q["intersections"] for q in counters)
    m["intersect.galloping_share"] = ratio(
        sum(q["galloping"] for q in counters), inter)
    m["intersect.bitmap_share"] = ratio(sum(q["bitmap"] for q in counters),
                                        inter)
    for layer, share in span_shares(spans, roots).items():
        m["share." + layer] = share
    # The latency percentiles, from the untraced half. They are kept out of
    # the end-to-end gate: on a shared host their spread over seeds exceeds
    # the largest bound the gate allows (see README, Steadiness).
    for name in ("p50_ms.low", "p99_ms.low", "p50_ms.mid", "p99_ms.mid"):
        m["lat." + name] = untraced_e2e[name][0]
    # Tracing overhead: how much worse each end-to-end metric read with
    # tracing on than in the untraced half of the same run, in percent.
    for name in E2E_UNITS:
        base, seen = untraced_e2e[name][0], traced_e2e[name][0]
        if name == "sat_qps":
            base, seen = seen, base  # higher is better
        m["trace.overhead." + name] = (seen / base - 1) * 100 if base else 0.0
    return m


# ---------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in config or args.workload == "limits":
        fail("unknown workload %r" % args.workload)
    cfg, limits = config[args.workload], config["limits"]

    out_dir = build_dir()
    driver, server = build(out_dir)
    work = os.path.join(out_dir, "runs", "%s-%d-%d" %
                        (args.workload, args.seed, args.trace))
    inputs = make_inputs(driver, work, args.workload, args.seed)
    raw_path = os.path.join(work, "raw.json")
    spans_path = os.path.join(work, "spans.json")
    for stale in (raw_path, spans_path, os.path.join(work, "server.log")):
        if os.path.exists(stale):
            os.remove(stale)

    common = ["--dir", inputs, "--seconds", str(args.seconds), "--trace",
              str(args.trace), "--out", raw_path, "--spans", spans_path]
    if cfg["kind"] == "census":
        cmd = [driver, "census", "--seed", str(args.seed)] + common
    else:
        cmd = [driver, "serve", "--workload", args.workload, "--server", server,
               "--work", work, "--low-qps", str(cfg["low_qps"]), "--mid-qps",
               str(cfg["mid_qps"]), "--window", str(cfg["window"]),
               "--sat-requests", str(cfg["sat_requests"]), "--replay",
               str(cfg["replay"])] + common
    cpu_before = cpu_ticks()
    try:
        rc = subprocess.call(cmd, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perf_driver did not finish within %d s" % DRIVER_TIMEOUT_S, 1)
    if rc != 0 or not os.path.exists(raw_path):
        fail("perf_driver failed (exit %d)" % rc, 1)
    with open(raw_path) as f:
        raw = json.load(f)
    cpu_after = cpu_ticks()
    if cpu_before and cpu_after:
        total = sum(cpu_after) - sum(cpu_before)
        # Field 8 of /proc/stat's cpu line: time the hypervisor ran others.
        print("host: %.1f%% of CPU time stolen by the hypervisor during the "
              "run" % (100.0 * (cpu_after[7] - cpu_before[7]) / max(1, total)))

    passes = [e2e_metrics(args.workload, p) for p in raw["passes"]]
    invalid = []
    if cfg["kind"] == "serve":
        for p in raw["passes"]:
            bad, hit_ratio = serve_validity(cfg, limits, p)
            invalid += bad
            print("validity: plan-cache hit ratio %.4f, generator p99 late "
                  "low/mid %.2f/%.2f ms, backlog at end low/mid %d/%d" % (
                      hit_ratio, quantile(p["low.late_ms"], 0.99),
                      quantile(p["mid.late_ms"], 0.99), p["low.backlog_end"],
                      p["mid.backlog_end"]))
    correct = raw["wrong"] == 0 and raw["failed"] == 0 and not invalid
    for reason in invalid:
        print("invalid: " + reason, file=sys.stderr)

    print("%-34s %14s  %-6s %s" % ("metric (%s, seed %d)" % (args.workload,
                                                          args.seed),
                                   "value", "unit", "samples"))
    labels = ["untraced", "traced"] if args.trace else [""]
    for label, m in zip(labels, passes):
        for name in E2E_UNITS:
            value, n = m[name]
            print("%-34s %14.4f  %-6s %d %s" % (name, value, E2E_UNITS[name],
                                                n, label))

    # The result line carries exactly the metrics BENCHMARK.json lists.
    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)
        values = layer_metrics(args.workload, raw, spans, passes[0], passes[1])
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name in units:
            print("%-34s %14.4f  %s" % (name, values[name], units[name]))
    else:
        values = {k: v[0] for k, v in passes[0].items()}
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    # A latency percentile that lands on a failed request is +inf; JSON has
    # no infinity, so it is written as the largest double.
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": values[k] if math.isfinite(values[k])
                        else sys.float_info.max, "unit": units[k]}
                    for k in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

// census: analytic counting, one query at a time, through one-shot
// light::Run over heap-loaded snapshots of a web and a social graph.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "inputs.h"
#include "light.h"
#include "pattern/catalog.h"
#include "probes.h"
#include "util.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Snapshot loads per round (each is about a millisecond; the median over
// every round of the run is reported).
constexpr int kSetupRepsPerRound = 20;
// Low passes per round. The low pass (all cores on one query) is the most
// sensitive to machine noise, so it gets the most samples.
constexpr int kLowPassesPerRound = 2;
// Copies of the query list in one mid-load block: enough that the block's
// time is set by its total work, not by its longest query.
constexpr int kMidCopies = 3;

using StorePtr = std::shared_ptr<const light::GraphStore>;

struct CensusInputs {
  std::string web_path, social_path;
  std::vector<light::Pattern> patterns;  // parallel to CensusList()
};

// Opens both snapshots in heap mode; returns the wall time in seconds.
double LoadBoth(const CensusInputs& in, StorePtr* web, StorePtr* social,
                SpanRecorder* spans, int64_t parent) {
  light::GraphStore::OpenOptions opts;
  opts.mode = light::GraphStore::Mode::kHeap;
  const uint64_t t0 = NowNs();
  for (auto [path, out] : {std::pair{&in.web_path, web},
                           std::pair{&in.social_path, social}}) {
    ScopedSpan span(spans, "storage.open", parent);
    if (light::Status s = light::GraphStore::Open(*path, opts, out); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

struct PassTotals {
  int attempted = 0;
  int failed = 0;
  int wrong = 0;
};

// Runs one query, checks it against the reference count, and returns the
// wall time in ms. With a recorder, adds the Run span and spans derived
// from the lifecycle fields Run reports.
double RunOne(const light::Graph& graph, const light::Pattern& pattern,
              int threads, uint64_t expected, PassTotals* totals,
              SpanRecorder* spans, int64_t parent, int64_t request,
              std::string* record) {
  light::RunOptions opts;
  opts.threads = threads;
  light::obs::RunReport report;
  if (record != nullptr) opts.report = &report;
  const uint64_t t0 = NowNs();
  const light::RunResult r = light::Run(graph, pattern, opts);
  const uint64_t t1 = NowNs();
  ++totals->attempted;
  if (!r.ok() || r.timed_out) {
    ++totals->failed;
    std::fprintf(stderr, "census query failed: %s\n", r.error.c_str());
  } else if (r.num_matches != expected) {
    ++totals->failed;
    ++totals->wrong;
    std::fprintf(stderr, "census wrong count: got %llu want %llu\n",
                 static_cast<unsigned long long>(r.num_matches),
                 static_cast<unsigned long long>(expected));
  }
  if (spans->enabled()) {
    const int64_t run = spans->Add("facade.run", t0, t1, parent, request);
    const light::obs::QueryStats& q = r.query_stats;
    uint64_t at = t0;
    for (auto [name, ns] : {std::pair{"plan.resolve", q.plan_ns},
                            std::pair{"parallel.queue_wait", q.queue_wait_ns},
                            std::pair{"engine.execute", q.execute_ns}}) {
      spans->Add(name, at, at + ns, run, request);
      at += ns;
    }
  }
  const double wall_ms = Ms(t1 - t0);
  if (record != nullptr) {
    *record = QueryRecordJson(r, &report, wall_ms, threads);
  }
  return wall_ms;
}

}  // namespace

int RunCensus(const Flags& flags) {
  const std::string dir = flags.Get("dir");
  const double seconds = flags.Need("seconds");
  const bool trace = flags.Need("trace") != 0;
  const auto seed = static_cast<uint64_t>(flags.Need("seed"));
  const int nproc = HardwareThreads();

  CensusInputs in;
  in.web_path = dir + "/web.lcsr2";
  in.social_path = dir + "/social.lcsr2";
  for (const CensusQuery& q : CensusList()) {
    light::Pattern p;
    if (!light::FindPattern(q.pattern, &p).ok()) return 1;
    in.patterns.push_back(p);
  }
  const size_t nq = in.patterns.size();
  const auto graph_of = [&](size_t i, const StorePtr& web,
                            const StorePtr& social) -> const light::Graph& {
    return CensusList()[i].graph == "web" ? *web->graph() : *social->graph();
  };

  // Reference counts: a threads=1 run of every query, outside the timed
  // phases. Its wall times give the serial baseline of parallel.speedup.
  std::vector<uint64_t> expected(nq);
  std::vector<double> serial_ms(nq);
  {
    StorePtr web, social;
    SpanRecorder off(false);
    LoadBoth(in, &web, &social, &off, -1);
    for (size_t i = 0; i < nq; ++i) {
      light::RunOptions opts;
      opts.threads = 1;
      const uint64_t t0 = NowNs();
      const light::RunResult r =
          light::Run(graph_of(i, web, social), in.patterns[i], opts);
      serial_ms[i] = Ms(NowNs() - t0);
      if (!r.ok() || r.timed_out) {
        std::fprintf(stderr, "reference run failed: %s\n", r.error.c_str());
        return 1;
      }
      expected[i] = r.num_matches;
    }
  }

  // The mid-load blocks hand out the longest reference query first, so
  // the callers finish together and the block's tail holds short queries.
  std::vector<size_t> mid_block;
  for (int copy = 0; copy < kMidCopies; ++copy) {
    for (size_t i = 0; i < nq; ++i) mid_block.push_back(i);
  }
  std::stable_sort(
      mid_block.begin(), mid_block.end(),
      [&](size_t a, size_t b) { return serial_ms[a] > serial_ms[b]; });

  PassTotals totals;
  SpanRecorder spans(trace);
  std::vector<std::string> pass_json;
  const int npasses = trace ? 2 : 1;
  for (int pass = 0; pass < npasses; ++pass) {
    const bool traced = trace && pass == 1;
    SpanRecorder off(false);
    SpanRecorder* rec = traced ? &spans : &off;
    const double budget = seconds / npasses;

    StorePtr web, social;
    LoadBoth(in, &web, &social, &off, -1);

    // One untimed low pass: first-touch faults, allocator and frequency
    // warm-up stay out of the timed phases.
    {
      PassTotals warm;
      SpanRecorder none(false);
      for (size_t i = 0; i < nq; ++i) {
        RunOne(graph_of(i, web, social), in.patterns[i], nproc, expected[i],
               &warm, &none, -1, -1, nullptr);
      }
      totals.attempted += warm.attempted;
      totals.failed += warm.failed;
      totals.wrong += warm.wrong;
    }

    // Rounds of set-up, low and mid load, so each phase samples the whole
    // run rather than one stretch of machine noise.
    std::vector<double> setup_s, census_s, low_ms, low_query, mid_ms,
        mid_query;
    std::vector<std::string> records;
    double mid_seconds = 0;
    int mid_completions = 0;
    uint64_t faults = 0;
    int low_queries = 0;
    int64_t request = 0;
    const uint64_t start = NowNs();
    double round_s = 0;
    for (int round = 0;
         round < 2 || Seconds(NowNs() - start) + round_s <= budget; ++round) {
      const uint64_t round_t0 = NowNs();

      // Set-up: load both snapshots; the median over all rounds is reported.
      for (int rep = 0; rep < kSetupRepsPerRound; ++rep) {
        ScopedSpan span(rec, "setup");
        StorePtr w, s;
        setup_s.push_back(LoadBoth(in, &w, &s, rec, span.index()));
      }

      // Low load: one query in flight, all cores on it, in a seeded order.
      for (int lp = 0; lp < kLowPassesPerRound; ++lp) {
        std::vector<size_t> order(nq);
        for (size_t i = 0; i < nq; ++i) order[i] = i;
        light::Rng rng(
            Mix(seed * 977 + static_cast<uint64_t>(census_s.size())));
        for (size_t i = nq; i > 1; --i) {
          std::swap(order[i - 1], order[rng.NextBounded(i)]);
        }
        const uint64_t f0 = MinorFaults();
        ScopedSpan root(rec, "census.pass");
        const uint64_t t0 = NowNs();
        for (size_t i : order) {
          std::string record;
          low_query.push_back(static_cast<double>(i));
          low_ms.push_back(RunOne(graph_of(i, web, social), in.patterns[i],
                                  nproc, expected[i], &totals, rec,
                                  root.index(), request++,
                                  traced ? &record : nullptr));
          if (traced) records.push_back(record);
        }
        census_s.push_back(Seconds(NowNs() - t0));
        faults += MinorFaults() - f0;
        low_queries += static_cast<int>(nq);
      }

      // Mid load: a closed loop of nproc one-shot callers, one core each,
      // over kMidCopies copies of the list.
      std::atomic<size_t> next{0};
      std::vector<PassTotals> per_thread(static_cast<size_t>(nproc));
      std::vector<std::vector<std::pair<size_t, double>>> walls(
          static_cast<size_t>(nproc));
      const uint64_t t0 = NowNs();
      {
        std::vector<std::thread> callers;
        for (int t = 0; t < nproc; ++t) {
          callers.emplace_back([&, t] {
            const auto slot = static_cast<size_t>(t);
            for (size_t k = next++; k < mid_block.size(); k = next++) {
              const size_t i = mid_block[k];
              walls[slot].emplace_back(
                  i, RunOne(graph_of(i, web, social), in.patterns[i], 1,
                            expected[i], &per_thread[slot], rec, -1, -1,
                            nullptr));
            }
          });
        }
        for (std::thread& c : callers) c.join();
      }
      mid_seconds += Seconds(NowNs() - t0);
      mid_completions += static_cast<int>(mid_block.size());
      for (int t = 0; t < nproc; ++t) {
        const PassTotals& p = per_thread[static_cast<size_t>(t)];
        totals.attempted += p.attempted;
        totals.failed += p.failed;
        totals.wrong += p.wrong;
        for (auto [i, w] : walls[static_cast<size_t>(t)]) {
          mid_query.push_back(static_cast<double>(i));
          mid_ms.push_back(w);
        }
      }
      round_s = Seconds(NowNs() - round_t0);
    }

    Json j;
    j.Num("traced", traced ? 1 : 0);
    j.Arr("setup_s", setup_s);
    j.Arr("census_s", census_s);
    j.Arr("low_ms", low_ms);
    j.Arr("low_query", low_query);
    j.Arr("mid_ms", mid_ms);
    j.Arr("mid_query", mid_query);
    j.Num("mid_seconds", mid_seconds);
    j.Num("mid_completions", mid_completions);
    j.Num("peak_rss_mb", PeakRssMb());
    j.Num("minflt_per_query",
          static_cast<double>(faults) / std::max(1, low_queries));
    std::string recs = "[";
    for (size_t i = 0; i < records.size(); ++i) {
      recs += (i > 0 ? "," : "") + records[i];
    }
    j.Raw("queries", recs + "]");
    pass_json.push_back(j.Done());
  }

  Json out;
  out.Str("workload", "census");
  out.Num("threads", nproc);
  out.Num("attempted", totals.attempted);
  out.Num("failed", totals.failed);
  out.Num("wrong", totals.wrong);
  out.Arr("serial_ms", serial_ms);
  std::string passes = "[";
  for (size_t i = 0; i < pass_json.size(); ++i) {
    passes += (i > 0 ? "," : "") + pass_json[i];
  }
  out.Raw("passes", passes + "]");
  if (trace) {
    std::vector<ProbeQuery> queries;
    for (const light::Pattern& p : in.patterns) queries.push_back({p});
    out.Raw("layers",
            RunLayerProbes({in.web_path, in.social_path},
                           light::GraphStore::Mode::kHeap, queries, &spans));
    if (!WriteFile(flags.Get("spans"), Json::SpansJson(spans.Take()))) {
      return 1;
    }
  }
  return WriteFile(flags.Get("out"), out.Done()) ? 0 : 1;
}

}  // namespace perfbench

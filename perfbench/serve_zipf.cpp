// serve_zipf: open-loop replay through serve::replay_trace with the SAGE-mean
// model (hidden 64, fanouts {10, 10}) at 4 threads. Coalescing is on (2 ms
// admission window, at most 64 requests per batch) with a 4096-row
// FeatureCache in front of the gather.
//
// Traffic: each request has 1-4 distinct seeds; each seed comes from a hot
// set of 1% of the vertices with probability 1/2, else uniformly. Arrivals
// are Poisson at a fixed offered rate, generated from the trace seed. The
// replay runs a simulated arrival clock with real service times, so the
// generator is never late and each request is timed from its due time.
//
// Why: the only workload that exercises the coalescer, the feature cache
// and per-request latency. It drives the same sample / gather / block-SpMM
// layers as minibatch_infer, but on batches of a few dozen seeds instead of
// 512, so a change tuned for big blocks that costs small ones shows here.
//
// End-to-end metrics (tracing off):
//   time_ms         p50 request latency at 2000 q/s offered, 4 threads
//   time_1t_ms      p50 request latency at 2000 q/s offered, 1 thread
//   time_alt_ms     p99 request latency at 2000 q/s offered, 4 threads
//                   (median over the run's replays)
//   rate_per_s      requests served per second with 20,000 q/s offered
//                   (median over the run's replays)
//   rate_alt_per_s  highest offered rate on a fixed ladder that keeps p99
//                   within 10 ms without a growing backlog, interpolated
//                   between the last passing and the first failing rung
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "harness.hpp"
#include "minidgl/train.hpp"
#include "obs/trace.hpp"
#include "sample/neighbor_sampler.hpp"
#include "sample/pipeline.hpp"
#include "serve/feature_cache.hpp"
#include "serve/server.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using fg::graph::vid_t;
using fg::minidgl::ClassificationData;
using fg::minidgl::Model;
using fg::minidgl::Trainer;
using fg::serve::percentile;
using fg::serve::TraceRequest;
using fg::serve::TraceResult;

constexpr double kLightRate = 2000.0;     // q/s, the latency operating point
constexpr int kLightRequests = 1000;      // per replay
constexpr double kOverloadRate = 20000.0; // q/s, the capacity probe
constexpr int kOverloadRequests = 3000;
constexpr int kLadderRequests = 1000;     // per ladder rung and round
constexpr double kSloS = 10e-3;           // p99 latency limit of the ladder
// Up to 12,000 q/s, past the capacity, so some rung always fails.
constexpr double kLadder[] = {2000, 3000, 4000, 5000,  6000,
                              7000, 8000, 9000, 10000, 12000};
constexpr double kWindowS = 2e-3;
constexpr int kMaxRequestsPerBatch = 64;
constexpr std::int64_t kCacheRows = 4096;
constexpr int kSoloChecksPerReplay = 32;

struct Setup {
  Setup(ClassificationData graph, const Args& args)
      : data(std::move(graph)),
        sage(data,
             Model("sage-mean", kFeatDim, kHidden, kClasses, args.model_seed),
             cpu_context(kThreads)),
        sage_1t(data,
                Model("sage-mean", kFeatDim, kHidden, kClasses,
                      args.model_seed),
                cpu_context(1)),
        sampler(data.graph.in_csr(), sampler_config(args.sampler_seed)) {
    // Hot set: 1% of the vertices, drawn from the trace seed.
    fg::support::Rng rng(args.trace_seed, 0);
    std::vector<char> taken(static_cast<std::size_t>(kVertices), 0);
    while (hot.size() < static_cast<std::size_t>(kVertices / 100)) {
      const auto v = static_cast<vid_t>(rng.uniform(kVertices));
      if (!taken[static_cast<std::size_t>(v)]) {
        taken[static_cast<std::size_t>(v)] = 1;
        hot.push_back(v);
      }
    }
  }

  ClassificationData data;
  Trainer sage;
  Trainer sage_1t;
  fg::sample::NeighborSampler sampler;
  std::vector<vid_t> hot;
};

/// One serving engine with its own feature and schedule caches — fresh for
/// every replay, so replays are independent of each other.
struct Engine {
  Engine(Setup& s, Trainer& trainer, int threads, bool coalesce,
         std::int64_t cache_rows)
      : cache(cache_rows, kFeatDim),
        engine(s.sampler, s.data.features,
               trainer.make_serve_compute(&schedules, false),
               options(threads, coalesce), cache_rows > 0 ? &cache : nullptr) {}

  static fg::serve::ServeOptions options(int threads, bool coalesce) {
    fg::serve::ServeOptions o;
    o.latency_bound_s = coalesce ? kWindowS : 0.0;
    o.max_requests_per_batch = coalesce ? kMaxRequestsPerBatch : 1;
    o.num_threads = threads;
    return o;
  }

  fg::serve::FeatureCache cache;
  fg::sample::BlockScheduleCache schedules;
  fg::serve::ServingEngine engine;
};

/// Open-loop trace at `rate` q/s: Poisson arrivals, 1-4 distinct seeds per
/// request, half of the seeds from the hot set. A pure function of
/// (trace_seed, stream, rate, n).
std::vector<TraceRequest> make_trace(const Setup& s, std::uint64_t trace_seed,
                                     std::uint64_t stream, double rate, int n) {
  fg::support::Rng rng(trace_seed, stream + 1);
  std::vector<TraceRequest> trace(static_cast<std::size_t>(n));
  double t = 0.0;
  for (int r = 0; r < n; ++r) {
    TraceRequest& req = trace[static_cast<std::size_t>(r)];
    req.request.id = r;
    const int size = 1 + static_cast<int>(rng.uniform(4));
    while (static_cast<int>(req.request.seeds.size()) < size) {
      const vid_t v =
          rng.uniform(2) == 0
              ? s.hot[static_cast<std::size_t>(rng.uniform(s.hot.size()))]
              : static_cast<vid_t>(rng.uniform(kVertices));
      auto& seeds = req.request.seeds;
      if (std::find(seeds.begin(), seeds.end(), v) == seeds.end())
        seeds.push_back(v);
    }
    t += -std::log(1.0 - rng.uniform_real()) / rate;
    req.arrival_s = t;
  }
  return trace;
}

/// Counts every request of the replay; fails a request whose output has the
/// wrong shape, or — for a seeded sample of requests — differs from serving
/// it alone (no coalescing, no cache) bit for bit.
void check_replay(Report& report, Setup& s, Trainer& trainer,
                  const std::vector<TraceRequest>& trace,
                  const TraceResult& res, std::uint64_t check_seed) {
  std::int64_t failed = 0;
  for (std::size_t r = 0; r < trace.size(); ++r) {
    const auto& out = res.outputs[r];
    const auto seeds = static_cast<std::int64_t>(trace[r].request.seeds.size());
    if (out.rows() != seeds || out.row_size() != kClasses)
      ++failed;
  }
  Engine solo(s, trainer, kThreads, /*coalesce=*/false, /*cache_rows=*/0);
  fg::support::Rng rng(check_seed, 0x5010);
  for (int k = 0; k < kSoloChecksPerReplay; ++k) {
    const auto r = static_cast<std::size_t>(rng.uniform(trace.size()));
    const auto outs = solo.engine.serve_batch({trace[r].request});
    if (!bit_equal(outs[0], res.outputs[r])) ++failed;
  }
  report.count(static_cast<std::int64_t>(trace.size()), failed);
  if (failed > 0)
    report.note("check FAILED: " + std::to_string(failed) +
                " served requests differ from solo serving");
}

/// One ladder rung's replays over the run's rounds: p99 latency and the
/// end-of-trace backlog (makespan - last arrival) of each replay.
struct Rung {
  std::vector<double> p99_s;
  std::vector<double> backlog_s;
};

/// Runs every ladder rung once (a fresh trace per rung and round).
void run_ladder(Setup& s, std::uint64_t trace_seed, std::uint64_t round,
                std::vector<Rung>& rungs, Report& report) {
  rungs.resize(std::size(kLadder));
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    const auto trace = make_trace(s, trace_seed, 1000 * round + 100 + i,
                                  kLadder[i], kLadderRequests);
    Engine e(s, s.sage, kThreads, true, kCacheRows);
    const TraceResult res = fg::serve::replay_trace(e.engine, trace);
    rungs[i].p99_s.push_back(percentile(res.latency_s, 99));
    rungs[i].backlog_s.push_back(res.makespan_s - trace.back().arrival_s);
    report.count(static_cast<std::int64_t>(trace.size()), 0);
  }
}

/// Highest ladder rate whose p99 stays within the SLO without a growing
/// backlog, linearly interpolated on p99 between the last passing and the
/// first failing rung. A rung's p99 and backlog are medians over its
/// replays: a host stall inflates the tail of the one replay it hits, not
/// the rung.
double ladder_max_rate(const std::vector<Rung>& rungs, Report& report) {
  double pass_rate = 0.0, pass_p99 = 0.0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const std::string rung =
        "ladder " + std::to_string(static_cast<int>(kLadder[i])) + " q/s ";
    const double p99 = report.timing(rung + "p99", rungs[i].p99_s, "s").median;
    const double backlog =
        report.timing(rung + "backlog", rungs[i].backlog_s, "s").median;
    if (p99 > kSloS || backlog > kSloS) {
      if (i == 0) return kLadder[0] * std::min(1.0, kSloS / p99);
      if (p99 <= kSloS) return pass_rate;  // failed on backlog alone
      return pass_rate +
             (kLadder[i] - pass_rate) * (kSloS - pass_p99) / (p99 - pass_p99);
    }
    pass_rate = kLadder[i];
    pass_p99 = p99;
  }
  return pass_rate;
}

/// Per-request admission wait (latency minus its batch's service time),
/// recovered from the replay's own admission rule: a batch starts when the
/// lane is free and its window has closed (oldest member's arrival + bound)
/// or its request cap filled (the arrival that filled it). Batches are the
/// runs of requests sharing one completion time.
std::vector<double> queue_waits(const std::vector<TraceRequest>& trace,
                                const TraceResult& res, bool* consistent) {
  std::vector<double> waits;
  double lane_free = 0.0;
  std::int64_t batches = 0;
  std::size_t i = 0;
  while (i < trace.size()) {
    const double done = trace[i].arrival_s + res.latency_s[i];
    std::size_t j = i + 1;
    while (j < trace.size() &&
           std::abs(trace[j].arrival_s + res.latency_s[j] - done) < 1e-9)
      ++j;
    const bool capped = static_cast<int>(j - i) >= kMaxRequestsPerBatch;
    const double start =
        std::max(lane_free, capped ? trace[j - 1].arrival_s
                                   : trace[i].arrival_s + kWindowS);
    for (std::size_t k = i; k < j; ++k)
      waits.push_back(start - trace[k].arrival_s);
    lane_free = done;
    ++batches;
    i = j;
  }
  *consistent = batches == res.batches;
  return waits;
}

void run_timed(const Args& args, Report& report, Setup& s) {
  std::vector<double> light, light_1t, light_p99, capacity;
  std::vector<Rung> rungs;
  Budget budget(args.seconds, 3);
  while (budget.next()) {
    const std::uint64_t round = static_cast<std::uint64_t>(budget.rounds());
    // Four 4-thread latency replays, two 1-thread ones and two capacity
    // replays per round, each on its own trace: the tail and the capacity
    // are medians over replays.
    for (std::uint64_t k = 0; k < 4; ++k) {
      const std::uint64_t stream = 1000 * round + 10 * k;
      const auto trace =
          make_trace(s, args.trace_seed, stream, kLightRate, kLightRequests);
      {
        Engine e(s, s.sage, kThreads, true, kCacheRows);
        const TraceResult res = fg::serve::replay_trace(e.engine, trace);
        light.insert(light.end(), res.latency_s.begin(), res.latency_s.end());
        light_p99.push_back(percentile(res.latency_s, 99));
        check_replay(report, s, s.sage, trace, res, args.trace_seed + stream);
      }
      if (k >= 2) continue;
      {
        Engine e(s, s.sage_1t, 1, true, kCacheRows);
        const TraceResult res = fg::serve::replay_trace(e.engine, trace);
        light_1t.insert(light_1t.end(), res.latency_s.begin(),
                        res.latency_s.end());
        report.count(static_cast<std::int64_t>(trace.size()), 0);
      }
      const auto burst = make_trace(s, args.trace_seed, stream + 1,
                                    kOverloadRate, kOverloadRequests);
      Engine e(s, s.sage, kThreads, true, kCacheRows);
      const TraceResult res = fg::serve::replay_trace(e.engine, burst);
      capacity.push_back(res.queries_per_second);
      report.count(static_cast<std::int64_t>(burst.size()), 0);
    }
    run_ladder(s, args.trace_seed, round, rungs, report);
  }
  report.timing("latency at 2000 q/s 4t", light, "s");
  report.metric("time_ms", percentile(light, 50) * 1e3);
  report.metric("time_1t_ms", percentile(light_1t, 50) * 1e3);
  report.note("latency at 2000 q/s, pooled over replays: 4t p50 " +
              std::to_string(percentile(light, 50) * 1e3) + " ms p99 " +
              std::to_string(percentile(light, 99) * 1e3) + " ms; 1t p50 " +
              std::to_string(percentile(light_1t, 50) * 1e3) + " ms p99 " +
              std::to_string(percentile(light_1t, 99) * 1e3) + " ms (n=" +
              std::to_string(light.size()) + ")");
  // The tail is the median of the replays' p99s (each over 1000 requests,
  // 10 beyond the p99): a host stall delays every request queued behind it
  // and would otherwise decide the pooled p99 of the whole run on its own.
  // Short replays keep most of them free of stalls.
  report.metric("time_alt_ms",
                report.timing("p99 latency at 2000 q/s 4t", light_p99, "s")
                        .median *
                    1e3);
  report.metric("rate_per_s",
                report.timing("served q/s at 20000 offered", capacity, "1/s")
                    .median);
  report.metric("rate_alt_per_s", ladder_max_rate(rungs, report));
}

void run_traced(const Args& args, Report& report, Setup& s) {
  std::vector<LayerFold> units;
  std::vector<double> traced_s, untraced_s, waits, batch_req, dedup, hit,
      saved_mb, sample_s, gather_s, compute_s, sched_hit, peak;
  bool consistent = true;
  Budget budget(0.5 * args.seconds, 3);
  while (budget.next()) {
    const std::uint64_t round = static_cast<std::uint64_t>(budget.rounds());
    const auto trace = make_trace(s, args.trace_seed, 1000 * round,
                                  kLightRate, kLightRequests);
    {
      Engine e(s, s.sage, kThreads, true, kCacheRows);
      std::vector<fg::obs::SpanRecord> spans;
      TraceResult res;
      {
        fg::obs::TraceSession session;
        traced_s.push_back(time_s([&] {
          FG_TRACE_SCOPE("bench.replay");
          res = fg::serve::replay_trace(e.engine, trace);
        }));
        spans = fg::obs::collect_spans();
      }
      check_replay(report, s, s.sage, trace, res, args.trace_seed + round);
      const auto folds = fold_spans(spans, "bench.replay");
      if (report.check(folds.size() == 1, "traced replay spans"))
        units.push_back(folds[0]);
    }
    // Serving-layer statistics from the same trace, untraced.
    Engine e(s, s.sage, kThreads, true, kCacheRows);
    s.sage.context().reset_accounting();
    TraceResult res;
    untraced_s.push_back(
        time_s([&] { res = fg::serve::replay_trace(e.engine, trace); }));
    report.count(static_cast<std::int64_t>(trace.size()), 0);
    bool ok = true;
    const auto w = queue_waits(trace, res, &ok);
    consistent = consistent && ok;
    waits.insert(waits.end(), w.begin(), w.end());
    const auto st = e.engine.stats();
    const auto cs = e.cache.stats();
    batch_req.push_back(static_cast<double>(st.requests) / st.batches);
    dedup.push_back(1.0 - static_cast<double>(st.merged_rows) / st.seed_rows);
    hit.push_back(static_cast<double>(cs.hits) / (cs.hits + cs.misses));
    saved_mb.push_back(static_cast<double>(cs.bytes_saved) / 1e6);
    sample_s.push_back(st.sample_seconds);
    gather_s.push_back(st.gather_seconds);
    compute_s.push_back(st.compute_seconds);
    const double lookups =
        static_cast<double>(e.schedules.hits() + e.schedules.misses());
    sched_hit.push_back(lookups > 0 ? e.schedules.hits() / lookups : 0.0);
    peak.push_back(s.sage.context().peak_bytes / 1e6);
  }
  report_folds(report, units);
  const double traced = report.timing("traced replay", traced_s, "s").median;
  const double untraced =
      report.timing("untraced replay", untraced_s, "s").median;
  report.metric("obs.trace_overhead_frac", traced / untraced - 1.0);
  report.check(consistent, "queue-wait reconstruction matches the batch count");
  report.timing("queue wait", waits, "s");
  report.metric("serve.queue_wait_ms_p50", percentile(waits, 50) * 1e3);
  report.metric("serve.queue_wait_ms_p99", percentile(waits, 99) * 1e3);
  report.metric("serve.batch_requests_mean",
                report.timing("requests per batch", batch_req, "count").median);
  report.metric("serve.dedup_frac",
                report.timing("dedup share", dedup, "fraction").median);
  report.metric(
      "serve.cache_hit_frac",
      report.timing("feature cache hit share", hit, "fraction").median);
  report.metric("serve.cache_saved_mb",
                report.timing("feature cache saved", saved_mb, "MB").median);
  report.metric("serve.sample_s",
                report.timing("serve sample per replay", sample_s, "s").median);
  report.metric("serve.gather_s",
                report.timing("serve gather per replay", gather_s, "s").median);
  report.metric(
      "serve.compute_s",
      report.timing("serve compute per replay", compute_s, "s").median);
  report.metric("core.schedule_cache_hit_frac", summarize(sched_hit).median);
  report.metric("minidgl.peak_mb", summarize(peak).median);

  // Capacity at 1 and 4 threads under overload, and the cache hit share
  // there.
  std::vector<double> cap4, cap1, hit_overload;
  Budget scaling(0.3 * args.seconds, 2);
  while (scaling.next()) {
    const auto burst =
        make_trace(s, args.trace_seed, 1000 * scaling.rounds() + 1,
                   kOverloadRate, kOverloadRequests);
    Engine e4(s, s.sage, kThreads, true, kCacheRows);
    cap4.push_back(
        fg::serve::replay_trace(e4.engine, burst).queries_per_second);
    const auto cs = e4.cache.stats();
    hit_overload.push_back(static_cast<double>(cs.hits) /
                           static_cast<double>(cs.hits + cs.misses));
    Engine e1(s, s.sage_1t, 1, true, kCacheRows);
    cap1.push_back(
        fg::serve::replay_trace(e1.engine, burst).queries_per_second);
    report.count(2 * static_cast<std::int64_t>(burst.size()), 0);
  }
  report.timing("feature cache hit share at 20000 q/s", hit_overload,
                "fraction");
  const double four = report.timing("served q/s 4t", cap4, "1/s").median;
  const double one = report.timing("served q/s 1t", cap1, "1/s").median;
  report.metric("parallel.scaling_eff", four / (kThreads * one));

  replay_layers(report, s.data, args.sampler_seed, 0.2 * args.seconds);
}

}  // namespace

void run_serve_zipf(const Args& args, Report& report) {
  // Warm-up: a short replay at each thread count.
  const auto s = timed_setups<Setup>(args, report, [&](Setup& setup) {
    const auto warm =
        make_trace(setup, args.trace_seed, 999999, kLightRate, 256);
    Engine e4(setup, setup.sage, kThreads, true, kCacheRows);
    fg::serve::replay_trace(e4.engine, warm);
    Engine e1(setup, setup.sage_1t, 1, true, kCacheRows);
    fg::serve::replay_trace(e1.engine, warm);
  });
  if (args.trace) {
    run_traced(args, report, *s);
  } else {
    run_timed(args, report, *s);
  }
}

}  // namespace perfbench

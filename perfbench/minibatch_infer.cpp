// minibatch_infer: Trainer::infer_minibatch over every vertex as a seed —
// SAGE-mean, hidden 64, fanouts {10, 10}, batch 512, pipelined, 4 threads.
//
// Why: neighbor sampling, gather_rows, the 2-lane pipeline and the
// block-schedule cache do most of the work, on many mid-sized blocks.
// Backward, attention and the feature cache never run here.
//
// End-to-end metrics (tracing off):
//   time_ms         median pipelined epoch, 4 threads
//   time_1t_ms      median pipelined epoch, 1 thread
//   time_alt_ms     median serial (pipelined = false) epoch, 4 threads
//   rate_per_s      seeds per second of the pipelined epoch (65,536 / time)
//   rate_alt_per_s  seeds per second of the serial epoch
#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "harness.hpp"
#include "minidgl/train.hpp"
#include "obs/trace.hpp"
#include "sample/feature_loader.hpp"
#include "sample/neighbor_sampler.hpp"
#include "sample/pipeline.hpp"

namespace perfbench {

namespace {

using fg::minidgl::ClassificationData;
using fg::minidgl::ExecContext;
using fg::minidgl::MinibatchInferOptions;
using fg::minidgl::MinibatchInferResult;
using fg::minidgl::Model;
using fg::minidgl::Trainer;
using fg::tensor::Tensor;

MinibatchInferOptions infer_options(std::uint64_t sampler_seed,
                                    bool pipelined) {
  MinibatchInferOptions o;
  o.sampler = sampler_config(sampler_seed);
  o.batch_size = kBatchSize;
  o.pipelined = pipelined;
  return o;
}

struct Setup {
  Setup(ClassificationData graph, const Args& args)
      : data(std::move(graph)),
        sage(data,
             Model("sage-mean", kFeatDim, kHidden, kClasses, args.model_seed),
             cpu_context(kThreads)),
        sage_1t(data,
                Model("sage-mean", kFeatDim, kHidden, kClasses,
                      args.model_seed),
                cpu_context(1)) {
    for (fg::graph::vid_t v = 0; v < kVertices; ++v) rows.push_back(v);
  }

  ClassificationData data;
  Trainer sage;
  Trainer sage_1t;
  std::vector<std::int64_t> rows;  // every vertex is a seed
};

/// The serial epoch composed from the public calls the pipeline makes —
/// NeighborSampler::sample, gather_rows and Model::forward over the blocks —
/// each under a benchmark span. Returns the log-probabilities of every seed.
Tensor composed_epoch(const Setup& s, std::uint64_t sampler_seed) {
  FG_TRACE_SCOPE("bench.epoch");
  const fg::sample::NeighborSampler sampler(s.data.graph.in_csr(),
                                            sampler_config(sampler_seed));
  fg::sample::BlockScheduleCache cache;
  ExecContext ctx = cpu_context(kThreads);
  ctx.schedule_cache = &cache;
  Tensor out({kVertices, kClasses});
  for (std::int64_t lo = 0; lo < kVertices; lo += kBatchSize) {
    const std::int64_t hi = std::min<std::int64_t>(kVertices, lo + kBatchSize);
    std::vector<fg::graph::vid_t> seeds;
    for (std::int64_t v = lo; v < hi; ++v)
      seeds.push_back(static_cast<fg::graph::vid_t>(v));
    fg::sample::MinibatchBlocks blocks;
    {
      // The pipeline samples on one thread and gathers on the context's.
      FG_TRACE_SCOPE("bench.sample");
      blocks = sampler.sample(
          seeds, static_cast<std::uint64_t>(lo / kBatchSize), 1);
    }
    Tensor feats;
    {
      FG_TRACE_SCOPE("bench.gather");
      feats = fg::sample::gather_rows(s.data.features, blocks.input_nodes(),
                                      kThreads);
    }
    {
      FG_TRACE_SCOPE("bench.block_compute");
      const auto lp = s.sage.model().forward(
          ctx, blocks,
          fg::minidgl::make_leaf(std::move(feats), false, "block_feats"));
      const Tensor& v = lp->value();
      std::memcpy(out.row(lo), v.data(),
                  static_cast<std::size_t>(v.numel()) * sizeof(float));
    }
  }
  return out;
}

/// Counts the epoch's batches and fails every batch whose rows differ from
/// the reference epoch bit for bit.
void check_epoch(Report& report, const char* what, const Tensor& got,
                 const Tensor& want) {
  std::int64_t batches = 0, failed = 0;
  for (std::int64_t lo = 0; lo < kVertices; lo += kBatchSize, ++batches) {
    const std::int64_t n = std::min<std::int64_t>(kBatchSize, kVertices - lo);
    if (got.rows() != kVertices || !rows_bit_equal(got, lo, want, lo, n))
      ++failed;
  }
  report.count(batches, failed);
  if (failed > 0)
    report.note("check FAILED: " + std::to_string(failed) + " " + what +
                " batches differ from the serial composed epoch");
}

double timed_infer(Report& report, Trainer& t, const MinibatchInferOptions& o,
                   const Setup& s, const Tensor& reference, const char* what,
                   MinibatchInferResult* out = nullptr) {
  MinibatchInferResult res;
  const double secs = time_s([&] { res = t.infer_minibatch(o, s.rows); });
  check_epoch(report, what, res.log_probs, reference);
  if (out != nullptr) *out = std::move(res);
  return secs;
}

void run_timed(const Args& args, Report& report, Setup& s,
               const Tensor& reference) {
  const auto pipelined = infer_options(args.sampler_seed, true);
  const auto serial = infer_options(args.sampler_seed, false);
  std::vector<double> pipe, pipe_1t, ser;
  Budget budget(args.seconds, 3);
  // The pipelined epoch varies most from epoch to epoch (within one run its
  // quartiles sit about 27% apart, the serial epoch's about 11%), so each
  // round times it twice.
  while (budget.next()) {
    pipe.push_back(
        timed_infer(report, s.sage, pipelined, s, reference, "pipelined"));
    pipe_1t.push_back(timed_infer(report, s.sage_1t, pipelined, s, reference,
                                  "pipelined 1t"));
    pipe.push_back(
        timed_infer(report, s.sage, pipelined, s, reference, "pipelined"));
    ser.push_back(timed_infer(report, s.sage, serial, s, reference, "serial"));
  }
  const double n = static_cast<double>(kVertices);
  const double t_pipe = report.timing("pipelined epoch 4t", pipe, "s").median;
  const double t_ser = report.timing("serial epoch 4t", ser, "s").median;
  report.metric("time_ms", t_pipe * 1e3);
  report.metric("time_1t_ms",
                report.timing("pipelined epoch 1t", pipe_1t, "s").median * 1e3);
  report.metric("time_alt_ms", t_ser * 1e3);
  report.metric("rate_per_s", n / t_pipe);
  report.metric("rate_alt_per_s", n / t_ser);
}

void run_traced(const Args& args, Report& report, Setup& s,
                const Tensor& reference) {
  std::vector<LayerFold> units;
  std::vector<double> traced_s, untraced_s;
  Budget budget(0.5 * args.seconds, 2);
  while (budget.next()) {
    std::vector<fg::obs::SpanRecord> spans;
    Tensor out;
    {
      fg::obs::TraceSession session;
      traced_s.push_back(
          time_s([&] { out = composed_epoch(s, args.sampler_seed); }));
      spans = fg::obs::collect_spans();
    }
    check_epoch(report, "traced composed", out, reference);
    const auto folds = fold_spans(spans, "bench.epoch");
    if (report.check(folds.size() == 1, "traced epoch spans"))
      units.push_back(folds[0]);
    untraced_s.push_back(
        time_s([&] { composed_epoch(s, args.sampler_seed); }));
  }
  report_folds(report, units);
  const double traced =
      report.timing("traced composed epoch", traced_s, "s").median;
  const double untraced =
      report.timing("untraced composed epoch", untraced_s, "s").median;
  report.metric("obs.trace_overhead_frac", traced / untraced - 1.0);

  // Pipeline lane times, cache hits and the 1- vs 4-thread scaling come from
  // the public entry point itself, untraced.
  const auto pipelined = infer_options(args.sampler_seed, true);
  std::vector<double> t4, t1, produce, consume, overlap, hit_frac, peak;
  Budget scaling(0.3 * args.seconds, 2);
  while (scaling.next()) {
    MinibatchInferResult res;
    t4.push_back(timed_infer(report, s.sage, pipelined, s, reference,
                             "pipelined", &res));
    t1.push_back(timed_infer(report, s.sage_1t, pipelined, s, reference,
                             "pipelined 1t"));
    const auto& p = res.pipeline;
    produce.push_back(p.produce_seconds);
    consume.push_back(p.consume_seconds);
    overlap.push_back((p.produce_seconds + p.consume_seconds) /
                      p.total_seconds);
    const double lookups = static_cast<double>(res.schedule_cache_hits +
                                               res.schedule_cache_misses);
    hit_frac.push_back(lookups > 0 ? res.schedule_cache_hits / lookups : 0.0);
    peak.push_back(res.peak_bytes / 1e6);
  }
  report.metric("sample.produce_s",
                report.timing("pipeline produce lane", produce, "s").median);
  report.metric("sample.consume_s",
                report.timing("pipeline consume lane", consume, "s").median);
  report.metric("sample.overlap_x",
                report.timing("pipeline overlap", overlap, "x").median);
  report.metric("core.schedule_cache_hit_frac", summarize(hit_frac).median);
  report.metric("minidgl.peak_mb", summarize(peak).median);
  report.metric("parallel.scaling_eff",
                report.timing("pipelined epoch 1t", t1, "s").median /
                    (kThreads *
                     report.timing("pipelined epoch 4t", t4, "s").median));

  replay_layers(report, s.data, args.sampler_seed, 0.2 * args.seconds);
}

}  // namespace

void run_minibatch_infer(const Args& args, Report& report) {
  // Warm-up: the first 8 batches through both trainers.
  std::vector<std::int64_t> warm_rows;
  for (std::int64_t v = 0; v < 8 * kBatchSize; ++v) warm_rows.push_back(v);
  const auto warm = infer_options(args.sampler_seed, true);
  const auto s = timed_setups<Setup>(args, report, [&](Setup& setup) {
    setup.sage.infer_minibatch(warm, warm_rows);
    setup.sage_1t.infer_minibatch(warm, warm_rows);
  });

  // Reference outputs: the serial composed epoch, untimed.
  const Tensor reference = composed_epoch(*s, args.sampler_seed);
  if (args.trace) {
    run_traced(args, report, *s, reference);
  } else {
    run_timed(args, report, *s, reference);
  }
}

}  // namespace perfbench

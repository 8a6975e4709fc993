// full_train: full-graph 2-layer GCN and GAT training (hidden 64, fused CPU
// backend) through Trainer::train_epoch and Trainer::infer, plus a 1-thread
// GCN epoch as the single-thread baseline.
//
// Why: the dense combination phase (tensor::matmul, matmul_transposed) and
// the DAG-derived backward carry this workload, and GAT is the only user of
// the core attention and SDDMM kernels. Sampling, gather, the feature cache
// and the pipeline never run here, so a change to those layers should not
// move these metrics.
//
// End-to-end metrics (tracing off):
//   time_ms         median GCN training epoch, 4 threads
//   time_1t_ms      median GCN training epoch, 1 thread
//   time_alt_ms     median GAT training epoch, 4 threads
//   rate_per_s      vertices per second of a full-graph GCN inference pass
//   rate_alt_per_s  vertices per second of a full-graph GAT inference pass
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "harness.hpp"
#include "minidgl/train.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

using fg::minidgl::Adam;
using fg::minidgl::ClassificationData;
using fg::minidgl::ExecContext;
using fg::minidgl::Model;
using fg::minidgl::Trainer;
using fg::minidgl::Var;

constexpr float kLr = 0.01f;

/// One set-up: the graph, the three trainers, one warm-up epoch each.
struct Setup {
  Setup(ClassificationData graph, const Args& args)
      : data(std::move(graph)),
        gcn(data, Model("gcn", kFeatDim, kHidden, kClasses, args.model_seed),
            cpu_context(kThreads), kLr),
        gcn_1t(data, Model("gcn", kFeatDim, kHidden, kClasses, args.model_seed),
               cpu_context(1), kLr),
        gat(data, Model("gat", kFeatDim, kHidden, kClasses, args.model_seed),
            cpu_context(kThreads), kLr) {}

  ClassificationData data;
  Trainer gcn;
  Trainer gcn_1t;
  Trainer gat;
};

/// A training epoch composed from the public calls Trainer::train_epoch
/// makes, each wrapped in a benchmark span so the traced run can attribute
/// the epoch to forward, loss, backward and optimizer.
class ComposedTrainer {
 public:
  ComposedTrainer(const std::string& kind, std::uint64_t model_seed)
      : model_(kind, kFeatDim, kHidden, kClasses, model_seed),
        ctx_(cpu_context(kThreads)),
        optimizer_(model_.parameters(), kLr) {}

  /// Runs one epoch under the root span `root` (a string literal).
  float epoch(const ClassificationData& data, const char* root) {
    FG_TRACE_SCOPE(root);
    Var x = fg::minidgl::make_leaf(data.features, false, "features");
    Var log_probs;
    {
      FG_TRACE_SCOPE("bench.forward");
      log_probs = model_.forward(ctx_, data.graph, x);
    }
    Var loss;
    {
      FG_TRACE_SCOPE("bench.loss");
      loss = fg::minidgl::nll_loss(ctx_, log_probs, data.labels,
                                   data.train_rows);
    }
    {
      FG_TRACE_SCOPE("bench.optim");
      optimizer_.zero_grad();
    }
    {
      FG_TRACE_SCOPE("bench.backward");
      fg::minidgl::backward(loss);
    }
    {
      FG_TRACE_SCOPE("bench.optim");
      optimizer_.step();
    }
    return loss->value().at(0);
  }

  const Model& model() const { return model_; }

 private:
  Model model_;
  ExecContext ctx_;
  Adam optimizer_;
};

bool same_float(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// The composed epoch's loss, every parameter gradient and every updated
/// parameter must be bit-identical to Trainer::train_epoch's.
void check_composed(Report& report, const char* what, float composed_loss,
                    const ComposedTrainer& composed, float trainer_loss,
                    const Trainer& trainer) {
  bool ok = same_float(composed_loss, trainer_loss);
  const auto a = composed.model().parameters();
  const auto b = trainer.model().parameters();
  ok = ok && a.size() == b.size();
  for (std::size_t i = 0; ok && i < a.size(); ++i)
    ok = a[i]->has_grad() && b[i]->has_grad() &&
         bit_equal(a[i]->grad(), b[i]->grad()) &&
         bit_equal(a[i]->value(), b[i]->value());
  report.check(ok, std::string(what) +
                       ": composed epoch differs from Trainer::train_epoch");
}

/// Times one training epoch; counts it and fails it on a non-finite loss.
double timed_epoch(Report& report, Trainer& t, std::vector<float>* losses) {
  float loss = 0.0f;
  const double s = time_s([&] { loss = t.train_epoch().loss; });
  report.check(std::isfinite(loss), "non-finite training loss");
  if (losses != nullptr) losses->push_back(loss);
  return s;
}

double timed_infer(Report& report, Trainer& t) {
  double acc = -1.0;
  const double s = time_s([&] { acc = t.infer().train_accuracy; });
  report.check(acc >= 0.0 && acc <= 1.0, "inference accuracy out of range");
  return s;
}

void run_timed(const Args& args, Report& report, Setup& s) {
  std::vector<double> gcn, gcn_1t, gat, gcn_inf, gat_inf;
  std::vector<float> loss_4t, loss_1t;
  // Interleaved rounds: a noisy stretch of the host hits every metric
  // alike instead of one of them.
  Budget budget(args.seconds, 5);
  while (budget.next()) {
    gcn.push_back(timed_epoch(report, s.gcn, &loss_4t));
    gcn_1t.push_back(timed_epoch(report, s.gcn_1t, &loss_1t));
    gat.push_back(timed_epoch(report, s.gat, nullptr));
    gcn_inf.push_back(timed_infer(report, s.gcn));
    gat_inf.push_back(timed_infer(report, s.gat));
    gcn_inf.push_back(timed_infer(report, s.gcn));
    gat_inf.push_back(timed_infer(report, s.gat));
  }
  // The 1- and 4-thread trainers started from one initialisation and ran
  // the same number of epochs, so their losses must agree bit for bit.
  for (std::size_t i = 0; i < loss_4t.size() && i < loss_1t.size(); ++i)
    report.check(same_float(loss_4t[i], loss_1t[i]),
                 "1-thread and 4-thread GCN losses differ at epoch " +
                     std::to_string(i));

  const double n = static_cast<double>(kVertices);
  report.metric("time_ms",
                report.timing("gcn train epoch 4t", gcn, "s").median * 1e3);
  report.metric("time_1t_ms",
                report.timing("gcn train epoch 1t", gcn_1t, "s").median * 1e3);
  report.metric("time_alt_ms",
                report.timing("gat train epoch 4t", gat, "s").median * 1e3);
  report.metric("rate_per_s",
                n / report.timing("gcn infer 4t", gcn_inf, "s").median);
  report.metric("rate_alt_per_s",
                n / report.timing("gat infer 4t", gat_inf, "s").median);
}

void run_traced(const Args& args, Report& report, Setup& s) {
  // References first, untraced: one Trainer epoch per model from the same
  // initialisation as the composed trainers below.
  Trainer gcn_ref(s.data,
                  Model("gcn", kFeatDim, kHidden, kClasses, args.model_seed),
                  cpu_context(kThreads), kLr);
  Trainer gat_ref(s.data,
                  Model("gat", kFeatDim, kHidden, kClasses, args.model_seed),
                  cpu_context(kThreads), kLr);
  const auto gcn_res = gcn_ref.train_epoch();
  const auto gat_res = gat_ref.train_epoch();
  report.metric("minidgl.peak_mb",
                std::max(gcn_res.peak_bytes, gat_res.peak_bytes) / 1e6);

  ComposedTrainer gcn("gcn", args.model_seed);
  ComposedTrainer gat("gat", args.model_seed);
  std::vector<LayerFold> units;
  std::vector<double> traced_s, untraced_s;
  Budget budget(0.6 * args.seconds, 4);
  while (budget.next()) {
    std::vector<fg::obs::SpanRecord> spans;
    float gcn_loss = 0.0f, gat_loss = 0.0f;
    {
      fg::obs::TraceSession session;
      traced_s.push_back(time_s([&] {
        gcn_loss = gcn.epoch(s.data, "bench.gcn_epoch");
        gat_loss = gat.epoch(s.data, "bench.gat_epoch");
      }));
      spans = fg::obs::collect_spans();
    }
    report.check(std::isfinite(gcn_loss) && std::isfinite(gat_loss),
                 "non-finite composed loss");
    if (budget.rounds() == 1) {
      check_composed(report, "gcn", gcn_loss, gcn, gcn_res.loss, gcn_ref);
      check_composed(report, "gat", gat_loss, gat, gat_res.loss, gat_ref);
    }
    const auto g = fold_spans(spans, "bench.gcn_epoch");
    const auto a = fold_spans(spans, "bench.gat_epoch");
    if (report.check(g.size() == 1 && a.size() == 1, "traced epoch spans"))
      units.push_back(merge({g[0], a[0]}));
    untraced_s.push_back(time_s([&] {
      gcn.epoch(s.data, "bench.gcn_epoch");
      gat.epoch(s.data, "bench.gat_epoch");
    }));
  }
  report_folds(report, units);
  const double traced =
      report.timing("traced gcn+gat epochs", traced_s, "s").median;
  const double untraced =
      report.timing("untraced gcn+gat epochs", untraced_s, "s").median;
  report.metric("obs.trace_overhead_frac", traced / untraced - 1.0);

  std::vector<double> t4, t1;
  Budget scaling(0.2 * args.seconds, 3);
  while (scaling.next()) {
    t4.push_back(timed_epoch(report, s.gcn, nullptr));
    t1.push_back(timed_epoch(report, s.gcn_1t, nullptr));
  }
  const double one = report.timing("gcn train epoch 1t", t1, "s").median;
  const double four = report.timing("gcn train epoch 4t", t4, "s").median;
  report.metric("parallel.scaling_eff", one / (kThreads * four));

  replay_layers(report, s.data, args.sampler_seed, 0.2 * args.seconds);
}

}  // namespace

void run_full_train(const Args& args, Report& report) {
  const auto s = timed_setups<Setup>(args, report, [](Setup& setup) {
    setup.gcn.train_epoch();
    setup.gcn_1t.train_epoch();
    setup.gat.train_epoch();
  });
  if (args.trace) {
    run_traced(args, report, *s);
  } else {
    run_timed(args, report, *s);
  }
}

}  // namespace perfbench

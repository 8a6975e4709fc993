// Shared pieces of the end-to-end benchmark: arguments, timing statistics,
// the result report (detail lines + the final JSON line), span folding into
// per-layer self times, bitwise output checks and the layer replays.
//
// Every workload follows the same protocol:
//   1. set-up (graph generation, model construction, warm-up), repeated
//      kSetupReps times; setup_s is the median;
//   2. --trace 0: the workload's public entry points, tracing off, timed in
//      interleaved rounds until --seconds have passed; every output checked;
//   3. --trace 1: a separate run under obs::TraceSession whose spans are
//      folded into per-layer self times, plus the layer replays. No
//      end-to-end number comes from it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "minidgl/data.hpp"
#include "minidgl/ops.hpp"
#include "obs/trace.hpp"
#include "sample/neighbor_sampler.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

namespace fg = featgraph;

/// Threads of every "4-thread" measurement; the single-thread baselines
/// use 1.
inline constexpr int kThreads = 4;
/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// The shared SBM graph: 65,536 vertices, average degree 16, 64-dim
/// features, 8 classes.
inline constexpr fg::graph::vid_t kVertices = 65536;
inline constexpr double kAvgDegree = 16.0;
inline constexpr std::int64_t kFeatDim = 64;
inline constexpr std::int64_t kClasses = 8;
inline constexpr std::int64_t kHidden = 64;

struct Args {
  std::string workload;
  std::uint64_t graph_seed = 1;
  std::uint64_t model_seed = 1;
  std::uint64_t sampler_seed = 1;
  std::uint64_t trace_seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Parses --workload, --graph-seed, --model-seed, --sampler-seed,
/// --trace-seed, --seconds and --trace; exits with a usage message on
/// anything else.
Args parse_args(int argc, char** argv);

/// Median and quartiles of a sample. The quartiles follow Python's
/// statistics.quantiles(values, n=4) (the "exclusive" method).
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> values);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <class F>
double time_s(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Time budget of one measurement loop: at least `min_rounds` rounds, then
/// another round only while it is expected to end within `seconds` (judged
/// by the mean round so far), so a run does not overshoot its budget by a
/// whole round.
class Budget {
 public:
  Budget(double seconds, int min_rounds)
      : start_(now_s()), end_(start_ + seconds), min_rounds_(min_rounds) {}
  /// True while another round should run; counts the round.
  bool next() {
    const double now = now_s();
    if (rounds_ >= min_rounds_ && rounds_ > 0 &&
        now + (now - start_) / rounds_ > end_)
      return false;
    ++rounds_;
    return true;
  }
  int rounds() const { return rounds_; }

 private:
  double start_;
  double end_;
  int min_rounds_;
  int rounds_ = 0;
};

/// Collects the run's results. Detail lines (host stamp, every timing's
/// median/quartiles/sample count, check failures) go to stdout as they
/// come; finish() prints the one-line JSON result last.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Prints `timing <name> median=.. q1=.. q3=.. n=..` and returns the
  /// summary.
  Summary timing(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit);
  /// Records one metric. Names must come from the benchmark's metric lists
  /// (end_to_end with --trace 0, per_layer with --trace 1).
  void metric(const std::string& name, double value);
  /// Counts `attempted` operations (epochs, batches, requests, checks), of
  /// which `failed` threw or failed an output check.
  void count(std::int64_t attempted, std::int64_t failed);
  /// One checked operation: counts it attempted, and failed unless `ok`.
  bool check(bool ok, const std::string& what);
  /// Free-form detail line.
  void note(const std::string& line);
  /// Prints the final JSON line. Per-layer metrics a workload does not
  /// exercise are reported as 0 (the layer did no work). Returns the
  /// process exit code: non-zero when a metric is missing or unknown.
  int finish();

 private:
  bool trace_;
  std::map<std::string, double> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool unknown_metric_ = false;
};

/// Prints the host key: nproc, pool workers, active ISA, compiler, build
/// type and the thread counts the benchmark uses.
void print_host_stamp();

/// The shared SBM classification graph for `seed`.
fg::minidgl::ClassificationData make_graph(std::uint64_t seed);
/// Prints the graph's size and the bytes of its features and in-CSR.
void print_working_set(const fg::minidgl::ClassificationData& data);

/// Fused-backend CPU context with `threads` threads.
fg::minidgl::ExecContext cpu_context(int threads);

/// Sampler of the minibatch and serving workloads: fanouts {10, 10},
/// without replacement.
fg::sample::SamplerConfig sampler_config(std::uint64_t seed);

/// Runs kSetupReps set-ups — graph generation, `Setup(graph, args)`, then
/// `warm_up(setup)` — keeping the last, and reports their median as setup_s
/// (--trace 0) or the median graph generation as graph.generate_s
/// (--trace 1).
template <class Setup, class WarmUp>
std::unique_ptr<Setup> timed_setups(const Args& args, Report& report,
                                    WarmUp&& warm_up) {
  std::unique_ptr<Setup> s;
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    setup_s.push_back(time_s([&] {
      const double t0 = now_s();
      fg::minidgl::ClassificationData graph = make_graph(args.graph_seed);
      generate_s.push_back(now_s() - t0);
      s = std::make_unique<Setup>(std::move(graph), args);
      warm_up(*s);
    }));
  }
  print_working_set(s->data);
  const Summary setup = report.timing("setup", setup_s, "s");
  const Summary gen = report.timing("graph generate", generate_s, "s");
  if (args.trace) {
    report.metric("graph.generate_s", gen.median);
  } else {
    report.metric("setup_s", setup.median);
  }
  return s;
}

/// Bitwise equality of two tensors (shape and every byte).
bool bit_equal(const fg::tensor::Tensor& a, const fg::tensor::Tensor& b);
/// Bitwise equality of `rows` rows: a[a_row..] vs b[b_row..].
bool rows_bit_equal(const fg::tensor::Tensor& a, std::int64_t a_row,
                    const fg::tensor::Tensor& b, std::int64_t b_row,
                    std::int64_t rows);

// --- span folding -----------------------------------------------------------

/// Per-layer self time of one root span instance (one traced unit of work).
/// A span's self time is its duration minus its direct children's. Spans
/// with a layer of their own (kernel launches, the benchmark's spans around
/// public calls, the lazy-graph planner) are credited to it; the rest
/// (lazy.run, pipeline lanes, sampler hops, ...) are credited to the
/// nearest ancestor that has one. The root's own self time is the
/// unattributed remainder.
struct LayerFold {
  std::map<std::string, double> self_s;
  double root_s = 0.0;
  double unattributed_s = 0.0;
  std::int64_t spmm_launches = 0;
};

/// Folds every instance of `root_name` among `spans` (only spans on the
/// root's own thread are folded), in start order.
std::vector<LayerFold> fold_spans(const std::vector<fg::obs::SpanRecord>& spans,
                                  const std::string& root_name);

/// Sum of several folds (e.g. the GCN and the GAT epoch of one round).
LayerFold merge(const std::vector<LayerFold>& parts);

/// Reports the per-layer self-time metrics (core.*, minidgl.*, sample.*
/// self times, core.spmm_launches, obs.unattributed_frac) as medians over
/// the traced units, and prints each as a timing.
void report_folds(Report& report, const std::vector<LayerFold>& units);

// --- layer replays ----------------------------------------------------------

/// Replays tensor::matmul / matmul_transposed at 65536x64x64, core::spmm
/// copy_u/sum on the full graph and sample::gather_rows at the first
/// minibatch's input shape, at kThreads threads, and reports computed
/// GFLOP/s and GB/s (FLOPs and bytes from the shapes, not counted).
void replay_layers(Report& report, const fg::minidgl::ClassificationData& data,
                   std::uint64_t sampler_seed, double seconds);

/// Minibatch size of the minibatch workload and the replays.
inline constexpr std::int64_t kBatchSize = 512;

// --- workloads (one file each) ---------------------------------------------

/// Each runs its set-up and then the timed (--trace 0) or the traced
/// (--trace 1) part, filling `report`.
void run_full_train(const Args& args, Report& report);
void run_minibatch_infer(const Args& args, Report& report);
void run_serve_zipf(const Args& args, Report& report);

}  // namespace perfbench

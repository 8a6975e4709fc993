#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "core/simd.hpp"
#include "core/spmm.hpp"
#include "core/tuner.hpp"
#include "parallel/thread_pool.hpp"
#include "sample/feature_loader.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The benchmark's metric lists; BENCHMARK.json names exactly these (run.py
// checks the final JSON line against it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"time_ms", "ms"},
    {"time_1t_ms", "ms"},      {"time_alt_ms", "ms"},
    {"rate_per_s", "1/s"},     {"rate_alt_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"tensor.matmul_gflops", "GFLOP/s"},
    {"tensor.matmul_t_gflops", "GFLOP/s"},
    {"core.spmm_s", "s"},
    {"core.sddmm_s", "s"},
    {"core.attention_s", "s"},
    {"core.spmm_launches", "count"},
    {"core.spmm_gbs", "GB/s"},
    {"core.schedule_cache_hit_frac", "fraction"},
    {"minidgl.forward_s", "s"},
    {"minidgl.loss_s", "s"},
    {"minidgl.backward_s", "s"},
    {"minidgl.optim_s", "s"},
    {"minidgl.lazy_plan_s", "s"},
    {"minidgl.peak_mb", "MB"},
    {"sample.sample_s", "s"},
    {"sample.gather_s", "s"},
    {"sample.gather_gbs", "GB/s"},
    {"sample.block_compute_s", "s"},
    {"sample.produce_s", "s"},
    {"sample.consume_s", "s"},
    {"sample.overlap_x", "x"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.batch_requests_mean", "count"},
    {"serve.dedup_frac", "fraction"},
    {"serve.cache_hit_frac", "fraction"},
    {"serve.cache_saved_mb", "MB"},
    {"serve.sample_s", "s"},
    {"serve.gather_s", "s"},
    {"serve.compute_s", "s"},
    {"parallel.scaling_eff", "fraction"},
    {"obs.trace_overhead_frac", "fraction"},
    {"obs.unattributed_frac", "fraction"},
};

template <std::size_t N>
const MetricDef* find_def(const MetricDef (&defs)[N], const std::string& name) {
  for (const MetricDef& d : defs)
    if (name == d.name) return &d;
  return nullptr;
}

// Span name -> layer. Spans not listed inherit their nearest ancestor's
// layer (lazy.run under a forward, gather.rows under a gather, ...).
const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> m = {
      {"spmm.launch", "core.spmm"},
      {"sddmm.launch", "core.sddmm"},
      {"attention.launch", "core.attention"},
      {"tuner.tune", "core.tuner"},
      {"lazy.plan", "minidgl.lazy_plan"},
      {"bench.forward", "minidgl.forward"},
      {"bench.loss", "minidgl.loss"},
      {"bench.backward", "minidgl.backward"},
      {"bench.optim", "minidgl.optim"},
      {"bench.sample", "sample.sample"},
      {"bench.gather", "sample.gather"},
      {"bench.block_compute", "sample.block_compute"},
      {"serve.batch", "serve.batch"},
      {"serve.sample", "serve.sample"},
      {"serve.gather", "serve.gather"},
      {"serve.compute", "serve.compute"},
  };
  return m;
}

// Layers whose self time is reported as `<layer>_s`.
constexpr const char* kReportedLayers[] = {
    "core.spmm",        "core.sddmm",          "core.attention",
    "minidgl.forward",  "minidgl.loss",        "minidgl.backward",
    "minidgl.optim",    "minidgl.lazy_plan",   "sample.sample",
    "sample.gather",    "sample.block_compute",
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  const auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s --workload full_train|minibatch_infer|serve_zipf "
                 "--graph-seed N --model-seed N --sampler-seed N "
                 "--trace-seed N --seconds S --trace 0|1\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      continue;
    }
    if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage();
      continue;
    }
    const unsigned long long n = std::strtoull(val, &end, 10);
    if (*end != '\0') usage();
    if (key == "--graph-seed") {
      a.graph_seed = n;
    } else if (key == "--model-seed") {
      a.model_seed = n;
    } else if (key == "--sampler-seed") {
      a.sampler_seed = n;
    } else if (key == "--trace-seed") {
      a.trace_seed = n;
    } else if (key == "--trace") {
      if (n > 1) usage();
      a.trace = n == 1;
    } else {
      usage();
    }
  }
  if (a.workload.empty()) usage();
  return a;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut points i*m/4.
  const auto ld = static_cast<long>(n);
  const long m = ld + 1;
  const auto cut = [&](long i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = cut(1);
  s.q3 = cut(3);
  return s;
}

Summary Report::timing(const std::string& name,
                       const std::vector<double>& samples,
                       const std::string& unit) {
  const Summary s = summarize(samples);
  std::printf("timing %-34s median=%-12.6g q1=%-12.6g q3=%-12.6g n=%zu %s\n",
              name.c_str(), s.median, s.q1, s.q3, s.n, unit.c_str());
  return s;
}

void Report::metric(const std::string& name, double value) {
  const MetricDef* def =
      trace_ ? find_def(kPerLayer, name) : find_def(kEndToEnd, name);
  if (def == nullptr) {
    std::printf("error: metric %s is not in the %s list\n", name.c_str(),
                trace_ ? "per_layer" : "end_to_end");
    unknown_metric_ = true;
    return;
  }
  metrics_[name] = value;
}

void Report::count(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1);
  if (!ok) std::printf("check FAILED: %s\n", what.c_str());
  return ok;
}

void Report::note(const std::string& line) {
  std::printf("%s\n", line.c_str());
}

int Report::finish() {
  bool complete = !unknown_metric_;
  std::string body;
  const auto emit = [&](const MetricDef& d, double v) {
    if (!body.empty()) body += ", ";
    body += "\"" + std::string(d.name) + "\": {\"value\": " + json_number(v) +
            ", \"unit\": \"" + d.unit + "\"}";
  };
  if (trace_) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = metrics_.find(d.name);
      const double v = it == metrics_.end() ? 0.0 : it->second;
      if (!std::isfinite(v)) {
        std::printf("error: per-layer metric %s is not finite\n", d.name);
        complete = false;
        continue;
      }
      emit(d, v);
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const auto it = metrics_.find(d.name);
      if (it == metrics_.end() || !std::isfinite(it->second) ||
          it->second <= 0.0) {
        std::printf("error: end-to-end metric %s was not measured\n", d.name);
        complete = false;
        continue;
      }
      emit(d, it->second);
    }
  }
  if (!complete) return 1;
  if (attempted_ < 1) {
    std::printf("error: nothing was attempted\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              failed_ == 0 ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_), body.c_str());
  std::fflush(stdout);
  return 0;
}

void print_host_stamp() {
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
  constexpr const char* kCompiler = "clang " __VERSION__;
#elif defined(__GNUC__)
  constexpr const char* kCompiler = "gcc " __VERSION__;
#else
  constexpr const char* kCompiler = "unknown";
#endif
  std::printf(
      "host {\"nproc\": %u, \"pool_workers\": %u, \"isa\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"threads\": %d, "
      "\"baseline_threads\": 1}\n",
      std::thread::hardware_concurrency(),
      fg::parallel::ThreadPool::global().num_workers(),
      fg::simd::isa_name(fg::simd::active_isa()), kCompiler,
      PERFBENCH_BUILD_TYPE, kThreads);
}

fg::minidgl::ClassificationData make_graph(std::uint64_t seed) {
  return fg::minidgl::make_sbm_classification(
      kVertices, kAvgDegree, kClasses, /*p_in=*/0.85, kFeatDim,
      /*signal=*/1.5f, seed);
}

fg::minidgl::ExecContext cpu_context(int threads) {
  fg::minidgl::ExecContext ctx;  // fused backend on the CPU by default
  ctx.num_threads = threads;
  return ctx;
}

fg::sample::SamplerConfig sampler_config(std::uint64_t seed) {
  fg::sample::SamplerConfig cfg;
  cfg.fanouts = {10, 10};
  cfg.replace = false;
  cfg.seed = seed;
  return cfg;
}

void print_working_set(const fg::minidgl::ClassificationData& data) {
  const fg::graph::Csr& csr = data.graph.in_csr();
  const double feat_mib =
      static_cast<double>(data.features.numel()) * sizeof(float) / (1 << 20);
  const double csr_mib =
      static_cast<double>(csr.indptr.size() * sizeof(std::int64_t) +
                          csr.indices.size() * sizeof(fg::graph::vid_t) +
                          csr.edge_ids.size() * sizeof(fg::graph::eid_t)) /
      (1 << 20);
  std::printf("working set: %d vertices, %lld edges; features %.1f MiB + "
              "in-CSR %.1f MiB (computed from the shapes)\n",
              data.graph.num_vertices(),
              static_cast<long long>(data.graph.num_edges()), feat_mib,
              csr_mib);
}

bool bit_equal(const fg::tensor::Tensor& a, const fg::tensor::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

bool rows_bit_equal(const fg::tensor::Tensor& a, std::int64_t a_row,
                    const fg::tensor::Tensor& b, std::int64_t b_row,
                    std::int64_t rows) {
  if (a.row_size() != b.row_size() || a_row + rows > a.rows() ||
      b_row + rows > b.rows())
    return false;
  return std::memcmp(a.row(a_row), b.row(b_row),
                     static_cast<std::size_t>(rows * a.row_size()) *
                         sizeof(float)) == 0;
}

std::vector<LayerFold> fold_spans(const std::vector<fg::obs::SpanRecord>& spans,
                                  const std::string& root_name) {
  std::vector<LayerFold> folds;
  int root_tid = -1;
  for (const auto& s : spans)
    if (root_name == s.name) root_tid = s.tid;
  if (root_tid < 0) return folds;

  // One thread's spans nest strictly; sort parents before their children.
  std::vector<const fg::obs::SpanRecord*> v;
  for (const auto& s : spans)
    if (s.tid == root_tid) v.push_back(&s);
  std::sort(v.begin(), v.end(), [](const auto* a, const auto* b) {
    if (a->t0_ns != b->t0_ns) return a->t0_ns < b->t0_ns;
    return a->depth < b->depth;
  });

  const auto& layers = layer_of_span();
  struct Open {
    const fg::obs::SpanRecord* span;
    std::string layer;  // "" = unattributed (the root's own time)
    std::int64_t child_ns;
  };
  std::vector<Open> stack;
  LayerFold* cur = nullptr;
  const auto close = [&](const Open& o) {
    const double self =
        static_cast<double>(o.span->t1_ns - o.span->t0_ns - o.child_ns) * 1e-9;
    if (o.layer.empty()) {
      cur->unattributed_s += self;
    } else {
      cur->self_s[o.layer] += self;
    }
  };
  const auto pop_until = [&](std::int64_t t0) {
    while (!stack.empty() && stack.back().span->t1_ns <= t0) {
      close(stack.back());
      stack.pop_back();
    }
  };
  for (const auto* s : v) {
    pop_until(s->t0_ns);
    if (stack.empty()) {
      if (root_name != s->name) continue;  // outside any root instance
      folds.emplace_back();
      cur = &folds.back();
      cur->root_s = static_cast<double>(s->t1_ns - s->t0_ns) * 1e-9;
      stack.push_back({s, "", 0});
      continue;
    }
    stack.back().child_ns += s->t1_ns - s->t0_ns;
    const auto it = layers.find(s->name);
    std::string layer = it != layers.end() ? it->second : stack.back().layer;
    if (std::strcmp(s->name, "spmm.launch") == 0) ++cur->spmm_launches;
    stack.push_back({s, std::move(layer), 0});
  }
  pop_until(INT64_MAX);
  return folds;
}

LayerFold merge(const std::vector<LayerFold>& parts) {
  LayerFold out;
  for (const LayerFold& p : parts) {
    for (const auto& [layer, s] : p.self_s) out.self_s[layer] += s;
    out.root_s += p.root_s;
    out.unattributed_s += p.unattributed_s;
    out.spmm_launches += p.spmm_launches;
  }
  return out;
}

void report_folds(Report& report, const std::vector<LayerFold>& units) {
  if (units.empty()) return;
  for (const char* layer : kReportedLayers) {
    std::vector<double> v;
    for (const LayerFold& u : units) {
      const auto it = u.self_s.find(layer);
      v.push_back(it == u.self_s.end() ? 0.0 : it->second);
    }
    const std::string name = std::string(layer) + "_s";
    report.metric(name, report.timing("self " + name, v, "s").median);
  }
  std::vector<double> launches, unattributed, roots;
  for (const LayerFold& u : units) {
    launches.push_back(static_cast<double>(u.spmm_launches));
    unattributed.push_back(u.root_s > 0.0 ? u.unattributed_s / u.root_s : 0.0);
    roots.push_back(u.root_s);
  }
  report.timing("traced unit", roots, "s");
  report.metric("core.spmm_launches", summarize(launches).median);
  report.metric("obs.unattributed_frac",
                report.timing("unattributed share", unattributed, "fraction")
                    .median);
}

void replay_layers(Report& report, const fg::minidgl::ClassificationData& data,
                   std::uint64_t sampler_seed, double seconds) {
  namespace tensor = fg::tensor;
  const tensor::Tensor& x = data.features;  // 65536 x 64
  const tensor::Tensor w = tensor::Tensor::randn({kFeatDim, kHidden}, 17);
  const double m = static_cast<double>(x.rows());
  const double k = static_cast<double>(kFeatDim);
  const double n = static_cast<double>(kHidden);

  const fg::graph::Csr& adj = data.graph.in_csr();
  const fg::core::CpuSpmmSchedule sched =
      fg::core::heuristic_spmm_schedule(adj, kFeatDim, kThreads);
  fg::core::SpmmOperands ops;
  ops.src_feat = &x;
  // Computed traffic of copy_u/sum with no cache reuse: indptr, one index
  // and one source row per edge, one output row per vertex.
  const double nnz = static_cast<double>(adj.nnz());
  const double row_bytes = k * sizeof(float);
  const double spmm_bytes = (m + 1) * 8 + nnz * (4 + row_bytes) + m * row_bytes;

  fg::sample::NeighborSampler sampler(adj, sampler_config(sampler_seed));
  std::vector<fg::graph::vid_t> seeds;
  for (fg::graph::vid_t v = 0; v < kBatchSize; ++v) seeds.push_back(v);
  const std::vector<fg::graph::vid_t> rows =
      sampler.sample(seeds, 0, kThreads).input_nodes();
  // Index read + row read + row write per gathered row.
  const double gather_bytes =
      static_cast<double>(rows.size()) * (4 + 2 * row_bytes);

  std::vector<double> mm, mmt, spmm, gather;
  Budget budget(seconds, 5);
  while (budget.next()) {
    mm.push_back(time_s([&] { tensor::matmul(x, w, kThreads); }));
    mmt.push_back(time_s([&] { tensor::matmul_transposed(x, w, kThreads); }));
    spmm.push_back(time_s(
        [&] { fg::core::spmm(adj, "copy_u", "sum", sched, ops); }));
    gather.push_back(
        time_s([&] { fg::sample::gather_rows(x, rows, kThreads); }));
  }
  const double flops = 2.0 * m * k * n;
  report.metric("tensor.matmul_gflops",
                flops / report.timing("replay tensor::matmul", mm, "s").median /
                    1e9);
  report.metric(
      "tensor.matmul_t_gflops",
      flops /
          report.timing("replay tensor::matmul_transposed", mmt, "s").median /
          1e9);
  report.metric("core.spmm_gbs",
                spmm_bytes /
                    report.timing("replay core::spmm copy_u/sum", spmm, "s")
                        .median /
                    1e9);
  report.metric("sample.gather_gbs",
                gather_bytes /
                    report.timing("replay sample::gather_rows", gather, "s")
                        .median /
                    1e9);
  std::printf("replay shapes: matmul %lldx%lldx%lld (%.3g GFLOP computed), "
              "spmm %lld rows %lld nnz d=%lld (%.1f MB computed), gather %zu "
              "rows (%.1f MB computed)\n",
              static_cast<long long>(m), static_cast<long long>(k),
              static_cast<long long>(n), flops / 1e9,
              static_cast<long long>(m), static_cast<long long>(nnz),
              static_cast<long long>(kFeatDim), spmm_bytes / 1e6, rows.size(),
              gather_bytes / 1e6);
}

}  // namespace perfbench

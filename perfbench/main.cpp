// End-to-end benchmark: one workload per invocation.
//
//   featgraph_perfbench --workload full_train|minibatch_infer|serve_zipf
//       --graph-seed N --model-seed N --sampler-seed N --trace-seed N
//       --seconds S --trace 0|1
//
// The last line of stdout is the JSON result; everything before it is
// detail (host stamp, per-timing median/quartiles/sample count, checks).
#include <cstdio>

#include "harness.hpp"

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  perfbench::print_host_stamp();
  perfbench::Report report(args.trace);
  if (args.workload == "full_train") {
    perfbench::run_full_train(args, report);
  } else if (args.workload == "minibatch_infer") {
    perfbench::run_minibatch_infer(args, report);
  } else if (args.workload == "serve_zipf") {
    perfbench::run_serve_zipf(args, report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return report.finish();
}

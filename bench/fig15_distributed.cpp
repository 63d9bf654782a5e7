// Figure 15: distributed MLNClean on the larger HAI-like and TPC-H-like
// datasets — F1 and runtime as the error percentage grows. The Spark
// cluster of the paper is replaced by an executor's worker set (see
// distributed/distributed_pipeline.h); accuracy behaviour is what the
// figure tracks.

#include "bench_util.h"

using namespace mlnclean;
using namespace mlnclean::bench;

int main() {
  const double kRates[] = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  for (Workload wl : {HaiLarge(), Tpch()}) {
    Header(("Figure 15: distributed MLNClean on " + wl.name).c_str());
    std::printf("%6s  %12s  %12s  %16s\n", "err%", "F1", "wall_s",
                "makespan10_s");
    for (double rate : kRates) {
      DirtyDataset dd = Corrupt(wl, rate);
      DistributedOptions opts;
      opts.cleaning = Options(wl);
      // A part sees only ~1/k of every group's support, so the per-part
      // AGP threshold scales down accordingly (see EXPERIMENTS.md).
      opts.cleaning.agp_threshold = wl.name == "TPC-H" ? 1 : 0;
      opts.num_parts = 6;
      opts.num_workers = 2;  // host cores; scaling shape via makespan model
      DistributedMlnClean cleaner(opts);
      auto result = *cleaner.Clean(dd.dirty, wl.rules);
      std::printf("%6.0f  %12.3f  %12.3f  %16.3f\n", rate * 100,
                  EvaluateRepair(dd.dirty, result.cleaned, dd.truth).F1(),
                  result.wall_seconds, result.SimulatedMakespan(10));
    }
  }
  return 0;
}

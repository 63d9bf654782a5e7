// Table 6: total time of distributed MLNClean as the number of workers
// grows from 2 to 10 (paper: ~6.7x speedup on TPC-H). On this 2-core host
// the wall clock saturates quickly, so the table also reports the
// deterministic LPT makespan of the measured per-part costs — the
// host-independent scaling shape of the in-process stand-in for the
// paper's Spark workers (distributed/distributed_pipeline.h).

#include "bench_util.h"

using namespace mlnclean;
using namespace mlnclean::bench;

int main() {
  Workload wl = Tpch();
  DirtyDataset dd = Corrupt(wl);
  Header("Table 6: distributed MLNClean under different numbers of workers");

  // One run with 20 parts; per-part costs feed the makespan model.
  DistributedOptions opts;
  opts.cleaning = Options(wl);
  opts.cleaning.agp_threshold = 1;  // per-part support is ~1/20 of global
  opts.num_parts = 20;
  opts.num_workers = 2;
  DistributedMlnClean cleaner(opts);
  auto result = *cleaner.Clean(dd.dirty, wl.rules);
  double f1 = EvaluateRepair(dd.dirty, result.cleaned, dd.truth).F1();

  std::printf("%8s  %14s  %10s\n", "workers", "makespan_s", "speedup");
  double base = result.SimulatedMakespan(2);
  for (size_t workers = 2; workers <= 10; workers += 2) {
    double m = result.SimulatedMakespan(workers);
    std::printf("%8zu  %14.3f  %9.2fx\n", workers, m, base / m);
  }
  std::printf("(wall-clock on this host with 2 workers: %.3f s; F1 = %.3f)\n",
              result.wall_seconds, f1);
  return 0;
}

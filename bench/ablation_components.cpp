// Ablation (not in the paper): how much each design choice contributes —
// AGP (τ = 0 disables it), Markov weight learning (Eq. 4 priors only),
// the FSCR minimality discount, and duplicate removal, each toggled off
// from the tuned configuration.

#include "bench_util.h"

using namespace mlnclean;
using namespace mlnclean::bench;

namespace {

double RunWith(const Workload& wl, const DirtyDataset& dd,
               const CleaningOptions& options) {
  CleanModel model = *CleaningEngine(options).Compile(wl.clean.schema(), wl.rules);
  auto result = *model.Clean(dd.dirty);
  return EvaluateRepair(dd.dirty, result.cleaned, dd.truth).F1();
}

}  // namespace

int main() {
  Header("Ablation: per-component contribution (F1, 5% errors, Rret 50%)");
  std::printf("%8s  %8s  %8s  %10s  %14s\n", "dataset", "full", "no-AGP",
              "no-learn", "no-minimality");
  for (Workload wl : {Car(), Hai()}) {
    DirtyDataset dd = Corrupt(wl);

    CleaningOptions full = Options(wl);

    CleaningOptions no_agp = full;
    no_agp.agp_threshold = 0;

    CleaningOptions no_learn = full;
    no_learn.learn_weights = false;

    CleaningOptions no_min = full;
    no_min.fscr_minimality_discount = 1.0;

    std::printf("%8s  %8.3f  %8.3f  %8.3f  %14.3f\n", wl.name.c_str(),
                RunWith(wl, dd, full), RunWith(wl, dd, no_agp),
                RunWith(wl, dd, no_learn), RunWith(wl, dd, no_min));
  }
  return 0;
}

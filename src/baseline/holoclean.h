// HoloClean-style baseline (Rekatsinas et al., PVLDB 2017), rebuilt from
// scratch as the paper's comparator. Architecture mirrored:
//
//   1. *Detection* separates cells into a noisy and a clean partition. As
//      in the paper's evaluation, detection is an oracle (100% accurate,
//      from the injected ground truth); `Clean` takes any other mask.
//   2. *Compilation* builds a candidate repair domain per noisy cell from
//      co-occurrence with the tuple's clean cells, plus featurization:
//      per-neighbor-attribute co-occurrence probabilities, value
//      frequency, constraint agreement, and a minimality prior.
//   3. *Learning* fits shared feature weights on the clean partition
//      (observed values as positives, softmax over sampled candidate
//      sets) — HoloClean's "learn from clean cells" step.
//   4. *Inference* scores each noisy cell's candidates and repairs with
//      the argmax, one cell at a time (the per-value granularity the
//      paper contrasts with MLNClean's per-γ cleaning).
//
// The known qualitative behaviours of HoloClean that the paper exploits
// emerge from this construction: typos absent from the clean partition
// weaken the model (Figure 7), sparse data starves co-occurrence
// statistics (CAR vs HAI), and per-cell inference costs more time than
// per-γ cleaning (Figure 6(c,d)).

#ifndef MLNCLEAN_BASELINE_HOLOCLEAN_H_
#define MLNCLEAN_BASELINE_HOLOCLEAN_H_

#include <cstdint>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "errorgen/injector.h"
#include "rules/constraint.h"

namespace mlnclean {

/// Baseline tuning knobs.
struct HoloCleanOptions {
  /// Candidate domain cap per noisy cell (HoloClean's domain pruning).
  size_t max_candidates = 24;
  /// SGD epochs over the sampled clean cells.
  int epochs = 12;
  double learning_rate = 0.05;
  double l2 = 1e-4;
  /// Number of clean cells sampled for training.
  size_t training_cells = 4000;
  /// Fixed weight of the minimal-repair prior feature. HoloClean applies
  /// minimality as a prior rather than a trained feature: training it on
  /// clean cells degenerates (the observed value is trivially the most
  /// similar to itself), so the weight is frozen.
  double minimality_prior = 0.5;
  uint64_t seed = 17;
  /// Cooperative cancellation, shared with the engine's serving API: the
  /// run aborts between its phases (and between training epochs /
  /// inference rows) with Status::Cancelled, leaving the input untouched.
  CancelToken cancel;
};

/// Stage timing and outcome of a baseline run.
struct HoloCleanResult {
  Dataset cleaned;
  size_t noisy_cells = 0;
  size_t repaired_cells = 0;
  double compile_seconds = 0.0;
  double learn_seconds = 0.0;
  double infer_seconds = 0.0;
  double total_seconds = 0.0;
};

/// The baseline repairer.
class HoloCleanBaseline {
 public:
  explicit HoloCleanBaseline(HoloCleanOptions options = {});

  /// Oracle detection (the paper's setup: "we set the detection accuracy
  /// of HoloClean as 100%"): the noisy mask is exactly the injected error
  /// cells; repair runs on those.
  Result<HoloCleanResult> CleanWithOracle(const Dataset& dirty, const RuleSet& rules,
                                          const GroundTruth& truth) const;

  /// Core repair on an explicit noisy mask.
  Result<HoloCleanResult> Clean(const Dataset& dirty, const RuleSet& rules,
                                const std::vector<std::vector<bool>>& noisy_mask)
      const;

 private:
  HoloCleanOptions options_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_BASELINE_HOLOCLEAN_H_

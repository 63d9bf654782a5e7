// Configuration shared by the MLNClean stages.

#ifndef MLNCLEAN_CLEANING_OPTIONS_H_
#define MLNCLEAN_CLEANING_OPTIONS_H_

#include <cstddef>

#include "common/distance.h"
#include "common/executor.h"

namespace mlnclean {

/// Knobs of the two-stage cleaner. Defaults follow the paper: τ = 1 and
/// Levenshtein distance. What no caller varies is fixed: weight learning
/// solves each group to convergence and has no settings, duplicates are
/// always removed after FSCR, and FSCR searches a tuple exhaustively up to
/// 7 versions (the paper's rule sets have at most 7 rules) and greedily
/// beyond.
struct CleaningOptions {
  /// AGP threshold τ: a group whose tuple count is <= τ is abnormal.
  /// τ = 0 disables abnormal-group detection.
  size_t agp_threshold = 1;

  /// Distance metric for AGP group distance and the RSC reliability score.
  DistanceMetric distance = DistanceMetric::kLevenshtein;

  /// When false, γ weights stay at the Eq. 4 priors (ablation knob).
  bool learn_weights = true;

  /// Worker-parallelism cap for the parallelizable stages: AGP, weight
  /// learning, and RSC run per block; FSCR runs sharded over tuples.
  /// Blocks (and tuples in stage II) are independent, and per-shard report
  /// entries are merged back in deterministic order, so any thread count
  /// (and any executor) produces a CleanResult bit-identical to the
  /// sequential run. 1 (default) keeps every stage sequential; 0 means
  /// "auto" (hardware concurrency). Workers come from `executor` (or the
  /// shared process pool), not from per-count pools — this knob only caps
  /// how many of its workers one stage loop may occupy.
  size_t num_threads = 1;

  /// Execution backend for the parallel stages. Null resolves from
  /// `num_threads`: the shared process-wide pool when it allows
  /// parallelism, inline execution otherwise. Set it to run cleaning work
  /// on a caller-owned PoolExecutor — the CleanServer does exactly that
  /// to schedule many concurrent sessions onto one worker set. Borrowed;
  /// must outlive every model compiled from these options. Not part of a
  /// model snapshot (model_io stores `num_threads` only; the serving
  /// process wires its own executor).
  Executor* executor = nullptr;

  /// Minimality bias of FSCR: each attribute a candidate fusion changes
  /// away from the tuple's current (dirty) value multiplies its f-score
  /// by this factor. Pure Eq. 5 maximization ties between "repair the one
  /// corrupted cell" and "rewrite the tuple into a different, equally
  /// popular entity"; the discount resolves such ties toward the minimal
  /// repair, mirroring how the reliability score folds the minimality
  /// principle into stage I. 1.0 disables the bias.
  double fscr_minimality_discount = 0.25;

  /// Validates option consistency.
  Status Validate() const;

  /// num_threads with 0 resolved to the hardware concurrency (min 1).
  size_t ResolvedNumThreads() const;

  /// The executor the stage drivers run on: `executor` when set,
  /// otherwise the shared process pool (num_threads != 1) or the inline
  /// executor (num_threads == 1). Never null.
  Executor* ResolvedExecutor() const;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_OPTIONS_H_

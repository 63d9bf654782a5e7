// Per-component accuracy (Section 7.3): AGP, RSC and FSCR each get a
// precision/recall pair, judged against the injected ground truth.
//
//  * Precision-A = correctly merged abnormal groups / detected abnormal
//    groups; Recall-A = correctly merged / real abnormal groups. A group
//    is *really* abnormal when its reason key matches the true reason
//    values of none of its member tuples; a merge is *correct* when the
//    target group's key equals the plurality true reason of the abnormal
//    group's tuples.
//  * Precision-R = correctly repaired γs / repaired γs; Recall-R =
//    correctly repaired γs / γs containing errors (in the post-AGP
//    state). A repaired γ is correct when the winner's values equal the
//    plurality ground-truth values of the replaced γ's tuples.
//  * Precision-F = attribute values correctly repaired by FSCR /
//    erroneous attribute values among detected conflicts; Recall-F =
//    correctly repaired by FSCR / all erroneous attribute values.

#ifndef MLNCLEAN_EVAL_COMPONENT_METRICS_H_
#define MLNCLEAN_EVAL_COMPONENT_METRICS_H_

#include "cleaning/options.h"
#include "cleaning/report.h"
#include "common/result.h"
#include "errorgen/injector.h"
#include "eval/metrics.h"
#include "rules/constraint.h"

namespace mlnclean {

/// One component's precision/recall with its raw counters.
struct ComponentScore {
  size_t correct = 0;
  size_t detected = 0;  // precision denominator
  size_t real = 0;      // recall denominator

  double Precision() const {
    return detected == 0 ? 0.0 : static_cast<double>(correct) / detected;
  }
  double Recall() const {
    return real == 0 ? (correct == 0 ? 1.0 : 0.0)
                     : static_cast<double>(correct) / real;
  }
};

/// Full instrumented evaluation of one cleaning run.
struct ComponentEvaluation {
  ComponentScore agp;
  /// #dag: γs inside detected abnormal groups (Figure 8).
  size_t dag = 0;
  ComponentScore rsc;
  ComponentScore fscr;
  RepairMetrics overall;
  CleaningReport report;
  Dataset cleaned;
};

/// Runs one CleanSession over `dirty` through Stage::kFscr, reading its
/// index and report between stages, and scores every component against
/// `truth`. The session honours the options' executor and num_threads
/// cap, and its schema check: a dataset whose schema is not the rules'
/// returns Invalid. Duplicate removal is skipped (it does not affect cell
/// metrics).
Result<ComponentEvaluation> EvaluateComponents(const Dataset& dirty,
                                               const RuleSet& rules,
                                               const CleaningOptions& options,
                                               const GroundTruth& truth);

}  // namespace mlnclean

#endif  // MLNCLEAN_EVAL_COMPONENT_METRICS_H_

// MLN weight learning in the style of Tuffy's diagonal Newton method
// (Section 5.1.2). The paper consumes one learned weight per ground rule
// (γ); by Eq. 3 a larger weight must mean a larger probability of the γ
// being clean.
//
// Model: within each group (γs sharing a reason key), Pr(γi) is the
// softmax of the weights of the group's γs. The learner maximizes the
// support-weighted log-likelihood with an L2 prior centred on the Eq. 4
// prior weights, taking damped diagonal Newton steps
//     w_i += (c_i - E[c_i] - λ(w_i - w0_i)) / (Var[c_i] + λ).

#ifndef MLNCLEAN_MLN_WEIGHT_LEARNER_H_
#define MLNCLEAN_MLN_WEIGHT_LEARNER_H_

#include <cstddef>
#include <vector>

namespace mlnclean {

/// Tuning knobs for diagonal-Newton weight learning.
struct WeightLearnerOptions {
  int max_iterations = 100;
  /// L2 pull towards the Eq. 4 prior; also regularizes the Newton step.
  double l2 = 0.05;
  /// Convergence threshold on the max absolute weight change.
  double tolerance = 1e-7;
  /// Per-iteration weight change is clipped to this magnitude.
  double max_step = 1.0;
  /// Newton step damping. The diagonal approximation ignores the softmax
  /// cross-coupling (moving every group member at once roughly doubles the
  /// intended effect), so an undamped step oscillates; 0.5 compensates
  /// exactly for two-member groups, which settle to a fixed point or a
  /// ulp-level cycle. Groups of three or more members do not reach
  /// `tolerance` at this damping: their weights still move (steps of
  /// 1e-5 to 1e-3) when `max_iterations` stops the solve, and nothing
  /// reports that the cap was hit.
  double damping = 0.5;
};

/// Eq. 4 prior weights: w0_i = c_i / sum_j c_j over the whole block.
/// Returns an empty vector for empty input.
std::vector<double> PriorWeights(const std::vector<double>& counts);

/// Learns one log-space weight per item. `counts[i]` is the tuple support
/// c(γi); `groups` partitions item indices by reason key (indices not
/// listed in any group keep their prior weight). Returns the learned
/// weights.
std::vector<double> LearnWeights(const std::vector<double>& counts,
                                 const std::vector<std::vector<size_t>>& groups,
                                 const WeightLearnerOptions& options = {});

/// Probability-scale γ weights for the cleaning stages: the within-group
/// softmax of the learned log weights, scaled by the group's share of the
/// block's tuples. This keeps every weight on the same [0, 1] scale as
/// the Eq. 4 prior (an uncontested γ's weight *is* its prior), which is
/// what makes FSCR's f-score products (Eq. 5) and the distributed Eq. 6
/// linear averaging comparable across groups and blocks.
std::vector<double> LearnGroupProbabilities(
    const std::vector<double>& counts, const std::vector<std::vector<size_t>>& groups,
    const WeightLearnerOptions& options = {});

}  // namespace mlnclean

#endif  // MLNCLEAN_MLN_WEIGHT_LEARNER_H_

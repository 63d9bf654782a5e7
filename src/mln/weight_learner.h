// MLN weight learning (Section 5.1.2). The paper consumes one learned
// weight per ground rule (γ); by Eq. 3 a larger weight must mean a larger
// probability of the γ being clean.
//
// Model: within each group (γs sharing a reason key), Pr(γi) is the
// softmax of the weights of the group's γs. The learner maximizes the
// support-weighted log-likelihood with an L2 prior (λ = 0.05) centred on
// the Eq. 4 prior weights. Groups share no weight, so each group is solved
// on its own by exact Newton: the negative Hessian of a group with
// support N is diag(N·p + λ) − N·p·pᵀ, which Sherman–Morrison inverts in
// O(k). A group stops once every |gradient| ≤ 1e-10·max(1, N); a group
// still above that after a fixed number of steps is counted as capped.

#ifndef MLNCLEAN_MLN_WEIGHT_LEARNER_H_
#define MLNCLEAN_MLN_WEIGHT_LEARNER_H_

#include <cstddef>
#include <vector>

namespace mlnclean {

/// Eq. 4 prior weights: w0_i = c_i / sum_j c_j over the whole block.
/// Returns an empty vector for empty input.
std::vector<double> PriorWeights(const std::vector<double>& counts);

/// Learns one log-space weight per item. `counts[i]` is the tuple support
/// c(γi); `groups` partitions item indices by reason key (indices not
/// listed in any group keep their prior weight). Returns the learned
/// weights. When `capped_groups` is not null it receives the number of
/// groups whose solve stopped at the step cap unconverged (expected 0).
std::vector<double> LearnWeights(const std::vector<double>& counts,
                                 const std::vector<std::vector<size_t>>& groups,
                                 size_t* capped_groups = nullptr);

/// Probability-scale γ weights for the cleaning stages: the within-group
/// softmax of the learned log weights, scaled by the group's share of the
/// block's tuples. This keeps every weight on the same [0, 1] scale as
/// the Eq. 4 prior (an uncontested γ's weight *is* its prior), which is
/// what makes FSCR's f-score products (Eq. 5) and the distributed Eq. 6
/// linear averaging comparable across groups and blocks. `capped_groups`
/// is as for LearnWeights.
std::vector<double> LearnGroupProbabilities(
    const std::vector<double>& counts, const std::vector<std::vector<size_t>>& groups,
    size_t* capped_groups = nullptr);

}  // namespace mlnclean

#endif  // MLNCLEAN_MLN_WEIGHT_LEARNER_H_

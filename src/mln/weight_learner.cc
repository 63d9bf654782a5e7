#include "mln/weight_learner.h"

#include <algorithm>
#include <cmath>

namespace mlnclean {

std::vector<double> PriorWeights(const std::vector<double>& counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  std::vector<double> out(counts.size(), 0.0);
  if (total <= 0.0) return out;
  for (size_t i = 0; i < counts.size(); ++i) out[i] = counts[i] / total;
  return out;
}

std::vector<double> LearnWeights(const std::vector<double>& counts,
                                 const std::vector<std::vector<size_t>>& groups,
                                 const WeightLearnerOptions& options) {
  std::vector<double> prior = PriorWeights(counts);
  std::vector<double> w = prior;
  const double lambda = std::max(options.l2, 1e-9);

  // Flatten the multi-member groups into CSR arrays once, hoisting
  // everything the Newton iterations never change: the member lists, the
  // gathered member counts, and the per-group support totals. Singleton
  // groups are excluded up front — their gradient is exactly zero, so
  // they keep the prior. The iterate-order arithmetic below matches the
  // nested-vector formulation operation for operation, so learned weights
  // are bit-identical to it.
  std::vector<size_t> group_offsets;
  group_offsets.push_back(0);
  std::vector<size_t> members;
  std::vector<double> member_counts;
  std::vector<double> n_group;
  size_t max_group = 0;
  for (const auto& group : groups) {
    if (group.size() < 2) continue;
    double total = 0.0;
    for (size_t idx : group) {
      members.push_back(idx);
      member_counts.push_back(counts[idx]);
      total += counts[idx];
    }
    group_offsets.push_back(members.size());
    n_group.push_back(total);
    max_group = std::max(max_group, group.size());
  }
  if (members.empty()) return w;

  std::vector<double> probs(max_group);
  const size_t num_groups = n_group.size();
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    double max_delta = 0.0;
    for (size_t g = 0; g < num_groups; ++g) {
      const size_t begin = group_offsets[g];
      const size_t end = group_offsets[g + 1];
      // Fused sweep: softmax, gradient, and diagonal-Hessian step all come
      // from two passes over the group's contiguous CSR slice.
      double z = 0.0;
      double wmax = -1e300;
      for (size_t k = begin; k < end; ++k) wmax = std::max(wmax, w[members[k]]);
      for (size_t k = begin; k < end; ++k) {
        const double ek = std::exp(w[members[k]] - wmax);
        probs[k - begin] = ek;
        z += ek;
      }
      for (size_t k = begin; k < end; ++k) {
        const size_t idx = members[k];
        const double p = probs[k - begin] / z;
        const double expected = n_group[g] * p;
        const double grad =
            member_counts[k] - expected - lambda * (w[idx] - prior[idx]);
        const double hess = n_group[g] * p * (1.0 - p) + lambda;
        double step = options.damping * grad / hess;
        step = std::clamp(step, -options.max_step, options.max_step);
        w[idx] += step;
        max_delta = std::max(max_delta, std::abs(step));
      }
    }
    if (max_delta < options.tolerance) break;
  }
  return w;
}

std::vector<double> LearnGroupProbabilities(
    const std::vector<double>& counts, const std::vector<std::vector<size_t>>& groups,
    const WeightLearnerOptions& options) {
  // Items outside every group default to their Eq. 4 prior.
  std::vector<double> out = PriorWeights(counts);
  std::vector<double> log_w = LearnWeights(counts, groups, options);
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return out;
  for (const auto& group : groups) {
    if (group.empty()) continue;
    double n_group = 0.0;
    double wmax = -1e300;
    for (size_t idx : group) {
      n_group += counts[idx];
      wmax = std::max(wmax, log_w[idx]);
    }
    double z = 0.0;
    for (size_t idx : group) z += std::exp(log_w[idx] - wmax);
    const double group_mass = n_group / total;
    for (size_t idx : group) {
      out[idx] = std::exp(log_w[idx] - wmax) / z * group_mass;
    }
  }
  return out;
}

}  // namespace mlnclean

#include "mln/weight_learner.h"

#include <algorithm>
#include <cmath>

namespace mlnclean {

namespace {

/// L2 pull towards the Eq. 4 prior.
constexpr double kL2 = 0.05;
/// A group has converged once every |gradient| ≤ kTolerance·max(1, N):
/// the gradient's terms, and their rounding error, grow with N.
constexpr double kTolerance = 1e-10;
/// Newton steps per group before it counts as capped. Random groups of up
/// to 64 members with N up to 1e6 converge in at most 16.
constexpr int kMaxSteps = 50;

/// Solves one group in place on `weights`. Returns false when the solve
/// stopped at kMaxSteps unconverged.
bool SolveGroup(const std::vector<size_t>& group, const std::vector<double>& counts,
                const std::vector<double>& prior, std::vector<double>* weights) {
  std::vector<double>& w = *weights;
  const size_t k = group.size();
  std::vector<double> p(k);
  std::vector<double> g(k);
  double n = 0.0;
  for (size_t idx : group) n += counts[idx];
  const double tolerance = kTolerance * std::max(1.0, n);
  for (int step = 0;; ++step) {
    // Softmax p and gradient g = c − N·p − λ(w − w0).
    double wmax = -1e300;
    for (size_t idx : group) wmax = std::max(wmax, w[idx]);
    double z = 0.0;
    for (size_t j = 0; j < k; ++j) z += (p[j] = std::exp(w[group[j]] - wmax));
    double gmax = 0.0;
    for (size_t j = 0; j < k; ++j) {
      const size_t idx = group[j];
      p[j] /= z;
      g[j] = counts[idx] - n * p[j] - kL2 * (w[idx] - prior[idx]);
      gmax = std::max(gmax, std::abs(g[j]));
    }
    const bool converged = gmax <= tolerance;
    if (!converged && step == kMaxSteps) return false;
    // Newton step s = (D − N·p·pᵀ)⁻¹g with D = diag(N·p + λ), by
    // Sherman–Morrison: s = D⁻¹g + (N·pᵀD⁻¹g / (1 − N·pᵀD⁻¹p))·D⁻¹p.
    // Since Σp = 1, the denominator equals λ·pᵀD⁻¹1: positive, and summed
    // without the cancellation of 1 − N·pᵀD⁻¹p.
    double pdg = 0.0;
    double pd = 0.0;
    for (size_t j = 0; j < k; ++j) {
      const double d = 1.0 / (n * p[j] + kL2);
      pdg += p[j] * d * g[j];
      pd += p[j] * d;
    }
    const double coupling = n * pdg / (kL2 * pd);
    double smax = 0.0;
    for (size_t j = 0; j < k; ++j) {
      g[j] = (g[j] + coupling * p[j]) / (n * p[j] + kL2);
      smax = std::max(smax, std::abs(g[j]));
    }
    // Far from the optimum a full step can overshoot and diverge; no
    // weight moves by more than 1 per step.
    const double scale = smax > 1.0 ? 1.0 / smax : 1.0;
    for (size_t j = 0; j < k; ++j) w[group[j]] += scale * g[j];
    // The step from a converged gradient is still taken: the mean of the
    // group's weights has curvature only λ, so stopping before it would
    // leave the mean up to tolerance/λ from the optimum.
    if (converged) return true;
  }
}

}  // namespace

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
                                 size_t* capped_groups) {
  const std::vector<double> prior = PriorWeights(counts);
  std::vector<double> w = prior;
  size_t capped = 0;
  for (const auto& group : groups) {
    // A singleton's gradient is exactly zero at its prior.
    if (group.size() < 2) continue;
    if (!SolveGroup(group, counts, prior, &w)) ++capped;
  }
  if (capped_groups != nullptr) *capped_groups = capped;
  return w;
}

std::vector<double> LearnGroupProbabilities(
    const std::vector<double>& counts, const std::vector<std::vector<size_t>>& groups,
    size_t* capped_groups) {
  // Items outside every group default to their Eq. 4 prior.
  std::vector<double> out = PriorWeights(counts);
  std::vector<double> log_w = LearnWeights(counts, groups, capped_groups);
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

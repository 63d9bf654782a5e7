#include "mln/weight_learner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"

namespace mlnclean {
namespace {

TEST(PriorWeightsTest, Eq4Example) {
  // Section 5.1.2: for γ = {CT: BOAZ, ST: AK} in block B1 of the sample
  // dataset, the prior weight is c(γ)/Σc = 1/6.
  std::vector<double> counts{2, 1, 1, 2};  // DOTHAN/AL, DOTH/AL, BOAZ/AK, BOAZ/AL
  std::vector<double> prior = PriorWeights(counts);
  EXPECT_DOUBLE_EQ(prior[2], 1.0 / 6.0);
  EXPECT_DOUBLE_EQ(prior[0], 2.0 / 6.0);
  double sum = 0;
  for (double p : prior) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(PriorWeightsTest, EmptyAndZero) {
  EXPECT_TRUE(PriorWeights({}).empty());
  std::vector<double> zeros = PriorWeights({0, 0});
  EXPECT_DOUBLE_EQ(zeros[0], 0.0);
  EXPECT_DOUBLE_EQ(zeros[1], 0.0);
}

TEST(LearnWeightsTest, SingletonGroupKeepsPrior) {
  std::vector<double> counts{3, 2};
  std::vector<std::vector<size_t>> groups{{0}, {1}};
  std::vector<double> w = LearnWeights(counts, groups);
  std::vector<double> prior = PriorWeights(counts);
  EXPECT_DOUBLE_EQ(w[0], prior[0]);
  EXPECT_DOUBLE_EQ(w[1], prior[1]);
}

TEST(LearnWeightsTest, OrderingFollowsSupport) {
  // Within a group, the better-supported γ must end with the larger
  // weight (Eq. 3: larger weight <=> larger probability of being clean).
  std::vector<double> counts{2, 1};
  std::vector<std::vector<size_t>> groups{{0, 1}};
  std::vector<double> w = LearnWeights(counts, groups);
  EXPECT_GT(w[0], w[1]);
}

TEST(LearnWeightsTest, ConvergesToSoftmaxProportions) {
  // With weak regularization the learned group softmax approximates the
  // empirical distribution.
  std::vector<double> counts{6, 3, 1};
  std::vector<std::vector<size_t>> groups{{0, 1, 2}};
  WeightLearnerOptions opts;
  opts.l2 = 1e-4;
  opts.max_iterations = 500;
  std::vector<double> w = LearnWeights(counts, groups, opts);
  double z = std::exp(w[0]) + std::exp(w[1]) + std::exp(w[2]);
  EXPECT_NEAR(std::exp(w[0]) / z, 0.6, 0.02);
  EXPECT_NEAR(std::exp(w[1]) / z, 0.3, 0.02);
  EXPECT_NEAR(std::exp(w[2]) / z, 0.1, 0.02);
}

TEST(LearnWeightsTest, TiedSupportsStayTied) {
  std::vector<double> counts{2, 2};
  std::vector<std::vector<size_t>> groups{{0, 1}};
  std::vector<double> w = LearnWeights(counts, groups);
  EXPECT_NEAR(w[0], w[1], 1e-9);
}

TEST(LearnWeightsTest, StrongRegularizationPinsToPrior) {
  std::vector<double> counts{5, 1};
  std::vector<std::vector<size_t>> groups{{0, 1}};
  WeightLearnerOptions opts;
  opts.l2 = 1e6;  // overwhelming prior pull
  std::vector<double> w = LearnWeights(counts, groups, opts);
  std::vector<double> prior = PriorWeights(counts);
  EXPECT_NEAR(w[0], prior[0], 1e-3);
  EXPECT_NEAR(w[1], prior[1], 1e-3);
}

TEST(LearnWeightsTest, ZeroIterationsReturnsPrior) {
  std::vector<double> counts{4, 1};
  std::vector<std::vector<size_t>> groups{{0, 1}};
  WeightLearnerOptions opts;
  opts.max_iterations = 0;
  std::vector<double> w = LearnWeights(counts, groups, opts);
  EXPECT_EQ(w, PriorWeights(counts));
}

TEST(LearnWeightsTest, ThreeMemberGroupStillMovesAtTheIterationCap) {
  // Characterization, not a contract: under the default options a group
  // of three or more members does not reach the tolerance, so the learner
  // stops at max_iterations with weights still moving. One more iteration
  // changes a weight by more than the tolerance.
  std::vector<double> counts{6, 3, 1};
  std::vector<std::vector<size_t>> groups{{0, 1, 2}};
  WeightLearnerOptions at_cap;
  WeightLearnerOptions one_more;
  one_more.max_iterations = at_cap.max_iterations + 1;
  const std::vector<double> w = LearnWeights(counts, groups, at_cap);
  const std::vector<double> next = LearnWeights(counts, groups, one_more);
  double max_delta = 0.0;
  for (size_t i = 0; i < w.size(); ++i) max_delta = std::max(max_delta, std::fabs(next[i] - w[i]));
  EXPECT_GT(max_delta, at_cap.tolerance);
  // A two-member group does settle before the cap.
  WeightLearnerOptions pair_cap;
  const std::vector<double> pair = LearnWeights({6, 3}, {{0, 1}}, pair_cap);
  pair_cap.max_iterations = 1000;
  const std::vector<double> pair_long = LearnWeights({6, 3}, {{0, 1}}, pair_cap);
  for (size_t i = 0; i < pair.size(); ++i) EXPECT_NEAR(pair[i], pair_long[i], 1e-12);
}

TEST(LearnWeightsTest, MultipleGroupsLearnedIndependently) {
  std::vector<double> counts{3, 1, 1, 3};
  std::vector<std::vector<size_t>> groups{{0, 1}, {2, 3}};
  std::vector<double> w = LearnWeights(counts, groups);
  EXPECT_GT(w[0], w[1]);
  EXPECT_GT(w[3], w[2]);
}

TEST(GroupProbabilitiesTest, UncontestedGammaKeepsEq4Prior) {
  // A singleton group's probability weight is exactly its prior: the
  // scale FSCR products and Eq. 6 averaging rely on.
  std::vector<double> counts{8, 1, 9};
  std::vector<std::vector<size_t>> groups{{0, 1}, {2}};
  std::vector<double> w = LearnGroupProbabilities(counts, groups);
  EXPECT_NEAR(w[2], 9.0 / 18.0, 1e-12);
}

TEST(GroupProbabilitiesTest, ContestedGroupSplitsItsMass) {
  std::vector<double> counts{8, 1, 9};
  std::vector<std::vector<size_t>> groups{{0, 1}, {2}};
  std::vector<double> w = LearnGroupProbabilities(counts, groups);
  // Group mass 9/18 split by the learned softmax: winner close to 8/18.
  EXPECT_NEAR(w[0] + w[1], 9.0 / 18.0, 1e-9);
  EXPECT_GT(w[0], w[1]);
  EXPECT_NEAR(w[0], 8.0 / 18.0, 0.05);
}

TEST(GroupProbabilitiesTest, AllWeightsInUnitInterval) {
  std::vector<double> counts{5, 3, 2, 7, 1};
  std::vector<std::vector<size_t>> groups{{0, 1, 2}, {3, 4}};
  for (double w : LearnGroupProbabilities(counts, groups)) {
    EXPECT_GT(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
}

TEST(GroupProbabilitiesTest, UngroupedItemsKeepPrior) {
  std::vector<double> counts{4, 6};
  std::vector<std::vector<size_t>> groups{};  // nothing grouped
  std::vector<double> w = LearnGroupProbabilities(counts, groups);
  EXPECT_EQ(w, PriorWeights(counts));
}

// Property sweep: weight ordering matches support ordering for random
// group configurations.
class LearnerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LearnerPropertyTest, WeightsMonotoneInSupport) {
  Rng rng(GetParam());
  std::vector<double> counts;
  std::vector<std::vector<size_t>> groups;
  size_t num_groups = 1 + rng.NextIndex(6);
  for (size_t g = 0; g < num_groups; ++g) {
    std::vector<size_t> members;
    size_t size = 1 + rng.NextIndex(5);
    for (size_t i = 0; i < size; ++i) {
      members.push_back(counts.size());
      counts.push_back(static_cast<double>(1 + rng.NextIndex(20)));
    }
    groups.push_back(std::move(members));
  }
  std::vector<double> w = LearnWeights(counts, groups);
  for (const auto& group : groups) {
    for (size_t i : group) {
      for (size_t j : group) {
        if (counts[i] > counts[j]) {
          EXPECT_GT(w[i], w[j])
              << "support " << counts[i] << " vs " << counts[j];
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace mlnclean

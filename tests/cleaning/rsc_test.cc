#include "cleaning/rsc.h"

#include <gtest/gtest.h>

#include "cleaning/agp.h"
#include "datagen/sample.h"

namespace mlnclean {
namespace {

DistanceFn Lev() { return MakeDistanceFn(DistanceMetric::kLevenshtein); }

TEST(RscTest, Example2ReliabilityScores) {
  // Example 2 / Figure 3: in G13, γ1 = {BOAZ, AL} (t5, t6) must score
  // higher than γ2 = {BOAZ, AK} (t4), so γ1 wins and γ2 is replaced.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  index.LearnWeights();
  Group& g13 = index.block(0).groups[2];
  std::vector<double> scores = ReliabilityScores(g13, Lev());
  ASSERT_EQ(scores.size(), 2u);
  // Piece order in the group: [0] = {BOAZ, AK}, [1] = {BOAZ, AL}.
  EXPECT_GT(scores[1], scores[0]);

  RunRscGroup(&g13, 0, Lev(), nullptr);
  ASSERT_EQ(g13.pieces.size(), 1u);
  EXPECT_EQ(g13.pieces[0].result, (std::vector<Value>{"AL"}));
  // The winner absorbed t4.
  EXPECT_EQ(g13.pieces[0].tuples, (std::vector<TupleId>{4, 5, 3}));
}

TEST(RscTest, SingletonGroupSkipped) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  index.LearnWeights();
  // G21 = {3347938701 -> AL} has one γ: Section 5.1.2 skips it.
  Group& g21 = index.block(1).groups[0];
  ASSERT_EQ(g21.pieces.size(), 1u);
  CleaningReport report;
  RunRscGroup(&g21, 1, Lev(), &report);
  EXPECT_TRUE(report.rsc.empty());
  EXPECT_EQ(g21.pieces.size(), 1u);
}

TEST(RscTest, Figure4CleanVersionsAfterAgpAndRsc) {
  // Figure 4: the three clean data versions after AGP + RSC.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  CleaningOptions options;
  options.agp_threshold = 1;
  CleaningReport report;
  RunAgpAll(&index, options, Lev(), &report);
  index.LearnWeights();
  RunRscAll(&index, Lev(), &report);

  // Version 1 (B1): {DOTHAN, AL} for t1,t2,t3 and {BOAZ, AL} for t4,t5,t6.
  const Block& b1 = index.block(0);
  ASSERT_EQ(b1.groups.size(), 2u);
  for (const Group& g : b1.groups) {
    ASSERT_EQ(g.pieces.size(), 1u);
  }
  const Piece& v1a = b1.groups[0].pieces[0];
  EXPECT_EQ(v1a.reason, (std::vector<Value>{"DOTHAN"}));
  EXPECT_EQ(v1a.result, (std::vector<Value>{"AL"}));
  EXPECT_EQ(v1a.support(), 3u);
  const Piece& v1b = b1.groups[1].pieces[0];
  EXPECT_EQ(v1b.reason, (std::vector<Value>{"BOAZ"}));
  EXPECT_EQ(v1b.result, (std::vector<Value>{"AL"}));

  // Version 2 (B2): {3347938701, AL} (t1,t2) and {2567688400, AL} (t3-t6).
  const Block& b2 = index.block(1);
  ASSERT_EQ(b2.groups.size(), 2u);
  const Piece& v2b = b2.groups[1].pieces[0];
  EXPECT_EQ(v2b.reason, (std::vector<Value>{"2567688400"}));
  EXPECT_EQ(v2b.result, (std::vector<Value>{"AL"}));
  EXPECT_EQ(v2b.support(), 4u);

  // Version 3 (B3): {ELIZA, BOAZ, 2567688400} for t3-t6.
  const Block& b3 = index.block(2);
  ASSERT_EQ(b3.groups.size(), 1u);
  const Piece& v3 = b3.groups[0].pieces[0];
  EXPECT_EQ(v3.reason, (std::vector<Value>{"ELIZA", "BOAZ"}));
  EXPECT_EQ(v3.result, (std::vector<Value>{"2567688400"}));
  EXPECT_EQ(v3.support(), 4u);
}

TEST(RscTest, ReportRecordsReplacements) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  index.LearnWeights();
  CleaningReport report;
  RunRscAll(&index, Lev(), &report);
  // Without AGP, two groups hold >1 γ: G13 (B1) and G23 (B2).
  ASSERT_EQ(report.rsc.size(), 2u);
  EXPECT_EQ(report.rsc[0].winner_values, (std::vector<Value>{"BOAZ", "AL"}));
  EXPECT_EQ(report.rsc[0].loser_values, (std::vector<Value>{"BOAZ", "AK"}));
  EXPECT_EQ(report.rsc[0].affected_tuples, (std::vector<TupleId>{3}));
}

TEST(RscTest, GroupKeyFollowsWinner) {
  // If a merged-in γ wins, the group key becomes the winner's reason.
  Group group;
  group.key = {"DOTH"};
  group.pieces.push_back(Piece{{"DOTH"}, {"AL"}, {1}, 0.1});
  group.pieces.push_back(Piece{{"DOTHAN"}, {"AL"}, {0, 2, 7}, 0.9});
  RunRscGroup(&group, 0, Lev(), nullptr);
  ASSERT_EQ(group.pieces.size(), 1u);
  EXPECT_EQ(group.key, (std::vector<Value>{"DOTHAN"}));
}

TEST(RscTest, TieBreaksByWeightThenSupport) {
  Group group;
  group.key = {"K"};
  // Identical supports and distances; weights decide.
  group.pieces.push_back(Piece{{"K"}, {"aa"}, {0}, 0.2});
  group.pieces.push_back(Piece{{"K"}, {"ab"}, {1}, 0.8});
  RunRscGroup(&group, 0, Lev(), nullptr);
  EXPECT_EQ(group.pieces[0].result, (std::vector<Value>{"ab"}));
}

TEST(RscTest, ReliabilityScoreUsesSupportScaling) {
  // Same weights, same distances: support decides (the n/Z factor).
  Group group;
  group.key = {"K"};
  group.pieces.push_back(Piece{{"K"}, {"xa"}, {0, 1, 2}, 0.5});
  group.pieces.push_back(Piece{{"K"}, {"xb"}, {3}, 0.5});
  std::vector<double> scores = ReliabilityScores(group, Lev());
  EXPECT_GT(scores[0], scores[1]);
}

}  // namespace
}  // namespace mlnclean

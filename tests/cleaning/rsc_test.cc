#include "cleaning/rsc.h"

#include <gtest/gtest.h>

#include <set>

#include "cleaning/agp.h"
#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "errorgen/injector.h"
#include "testing/hand_built.h"
#include "testing/same_index.h"
#include "testing/same_report.h"

namespace mlnclean {
namespace {

using testing::MakePiece;

DistanceFn Lev() { return MakeDistanceFn(DistanceMetric::kLevenshtein); }

// Hand-built groups of a K -> (R, S) block over an empty dataset whose
// dictionaries the tests fill.
struct HandGroups {
  Schema schema = *Schema::Make({"K", "R", "S"});
  Dataset data{schema};
  Constraint rule = *Constraint::MakeFd(schema, {0}, {1, 2});
  Constraint narrow = *Constraint::MakeFd(schema, {0}, {1});

  Piece Make(const Value& k, const std::vector<Value>& result, std::vector<TupleId> tuples,
             double weight) {
    const Constraint& r = result.size() == 2 ? rule : narrow;
    return MakePiece(&data, r, {k}, result, std::move(tuples), weight);
  }
};

TEST(RscTest, Example2ReliabilityScores) {
  // Example 2 / Figure 3: in G13, γ1 = {BOAZ, AL} (t5, t6) must score
  // higher than γ2 = {BOAZ, AK} (t4), so γ1 wins and γ2 is replaced.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  index.LearnWeights();
  Group& g13 = index.block(0).groups[2];
  const Constraint& r1 = rules.rule(0);
  std::vector<double> scores = ReliabilityScores(g13, dirty, r1, Lev());
  ASSERT_EQ(scores.size(), 2u);
  // Piece order in the group: [0] = {BOAZ, AK}, [1] = {BOAZ, AL}.
  EXPECT_GT(scores[1], scores[0]);

  RunRscGroup(&g13, 0, dirty, r1, Lev(), nullptr);
  ASSERT_EQ(g13.pieces.size(), 1u);
  EXPECT_EQ(testing::AllValues(g13.pieces[0], dirty, r1), (std::vector<Value>{"BOAZ", "AL"}));
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
  RunRscGroup(&g21, 1, dirty, rules.rule(1), Lev(), &report);
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
  RunAgpAll(&index, dirty, rules, options, &report);
  index.LearnWeights();
  RunRscAll(&index, dirty, rules, Lev(), &report);
  auto values = [&](const Piece& piece, size_t rule) {
    return testing::AllValues(piece, dirty, rules.rule(rule));
  };

  // Version 1 (B1): {DOTHAN, AL} for t1,t2,t3 and {BOAZ, AL} for t4,t5,t6.
  const Block& b1 = index.block(0);
  ASSERT_EQ(b1.groups.size(), 2u);
  for (const Group& g : b1.groups) {
    ASSERT_EQ(g.pieces.size(), 1u);
  }
  const Piece& v1a = b1.groups[0].pieces[0];
  EXPECT_EQ(values(v1a, 0), (std::vector<Value>{"DOTHAN", "AL"}));
  EXPECT_EQ(v1a.support(), 3u);
  const Piece& v1b = b1.groups[1].pieces[0];
  EXPECT_EQ(values(v1b, 0), (std::vector<Value>{"BOAZ", "AL"}));

  // Version 2 (B2): {3347938701, AL} (t1,t2) and {2567688400, AL} (t3-t6).
  const Block& b2 = index.block(1);
  ASSERT_EQ(b2.groups.size(), 2u);
  const Piece& v2b = b2.groups[1].pieces[0];
  EXPECT_EQ(values(v2b, 1), (std::vector<Value>{"2567688400", "AL"}));
  EXPECT_EQ(v2b.support(), 4u);

  // Version 3 (B3): {ELIZA, BOAZ, 2567688400} for t3-t6.
  const Block& b3 = index.block(2);
  ASSERT_EQ(b3.groups.size(), 1u);
  const Piece& v3 = b3.groups[0].pieces[0];
  EXPECT_EQ(values(v3, 2), (std::vector<Value>{"ELIZA", "BOAZ", "2567688400"}));
  EXPECT_EQ(v3.support(), 4u);
}

TEST(RscTest, ReportRecordsReplacements) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  index.LearnWeights();
  CleaningReport report;
  RunRscAll(&index, dirty, rules, Lev(), &report);
  // Without AGP, two groups hold >1 γ: G13 (B1) and G23 (B2).
  ASSERT_EQ(report.rsc.size(), 2u);
  const Constraint& r1 = rules.rule(report.rsc[0].block);
  EXPECT_EQ(ResolveIds(report.rsc[0].winner_values, dirty, r1),
            (std::vector<Value>{"BOAZ", "AL"}));
  EXPECT_EQ(ResolveIds(report.rsc[0].loser_values, dirty, r1),
            (std::vector<Value>{"BOAZ", "AK"}));
  EXPECT_EQ(report.rsc[0].affected_tuples, (std::vector<TupleId>{3}));
}

TEST(RscTest, ReportPinsEveryRecordField) {
  // Three γs; the middle one wins (support 3, weight 0.9) and is a
  // merged-in γ whose reason differs from the group key.
  HandGroups h;
  auto make_group = [&h] {
    Group group;
    group.pieces.push_back(h.Make("K0", {"ab", "z"}, {0}, 0.2));
    group.pieces.push_back(h.Make("K1", {"aa", "z"}, {1, 2, 3}, 0.9));
    group.pieces.push_back(h.Make("K0", {"ac", "z"}, {4, 5}, 0.1));
    return group;
  };
  Group group = make_group();
  CleaningReport report;
  RunRscGroup(&group, 5, h.data, h.rule, Lev(), &report);
  ASSERT_EQ(group.pieces.size(), 1u);
  // Winner's tuples first, then each loser's in piece order; the winner's
  // reason values key the group.
  EXPECT_EQ(group.pieces[0].tuples, (std::vector<TupleId>{1, 2, 3, 0, 4, 5}));
  EXPECT_EQ(testing::ReasonValues(group.pieces[0], h.data, h.rule), (std::vector<Value>{"K1"}));
  EXPECT_EQ(testing::AllValues(group.pieces[0], h.data, h.rule),
            (std::vector<Value>{"K1", "aa", "z"}));

  ASSERT_EQ(report.rsc.size(), 2u);
  const std::vector<Value> winner_values{"K1", "aa", "z"};
  const std::vector<std::vector<Value>> loser_values{{"K0", "ab", "z"},
                                                     {"K0", "ac", "z"}};
  const std::vector<std::vector<TupleId>> affected{{0}, {4, 5}};
  for (size_t i = 0; i < 2; ++i) {
    const RscRepairRecord& rec = report.rsc[i];
    EXPECT_EQ(rec.block, 5u);
    EXPECT_EQ(ResolveIds(rec.winner_values, h.data, h.rule), winner_values);
    // Reason, then result.
    EXPECT_EQ(ResolveIds(rec.loser_values, h.data, h.rule), loser_values[i]);
    EXPECT_EQ(rec.affected_tuples, affected[i]);
  }

  // Collecting records does not change the group.
  Group plain = make_group();
  RunRscGroup(&plain, 5, h.data, h.rule, Lev(), nullptr);
  EXPECT_EQ(plain.pieces[0].ids, group.pieces[0].ids);
  EXPECT_EQ(plain.pieces[0].tuples, group.pieces[0].tuples);
}

TEST(RscTest, GroupKeyFollowsWinner) {
  // If a merged-in γ wins, it goes to the front, so its reason keys the
  // group.
  HandGroups h;
  Group group;
  group.pieces.push_back(h.Make("DOTH", {"AL"}, {1}, 0.1));
  group.pieces.push_back(h.Make("DOTHAN", {"AL"}, {0, 2, 7}, 0.9));
  RunRscGroup(&group, 0, h.data, h.narrow, Lev(), nullptr);
  ASSERT_EQ(group.pieces.size(), 1u);
  EXPECT_EQ(testing::ReasonValues(group.pieces.front(), h.data, h.narrow),
            (std::vector<Value>{"DOTHAN"}));
}

TEST(RscTest, TieBreaksByWeightThenSupport) {
  HandGroups h;
  Group group;
  // Identical supports and distances; weights decide.
  group.pieces.push_back(h.Make("K", {"aa"}, {0}, 0.2));
  group.pieces.push_back(h.Make("K", {"ab"}, {1}, 0.8));
  RunRscGroup(&group, 0, h.data, h.narrow, Lev(), nullptr);
  EXPECT_EQ(testing::AllValues(group.pieces[0], h.data, h.narrow), (std::vector<Value>{"K", "ab"}));
}

TEST(RscTest, ReliabilityScoreUsesSupportScaling) {
  // Same weights, same distances: support decides (the n/Z factor).
  HandGroups h;
  Group group;
  group.pieces.push_back(h.Make("K", {"xa"}, {0, 1, 2}, 0.5));
  group.pieces.push_back(h.Make("K", {"xb"}, {3}, 0.5));
  std::vector<double> scores = ReliabilityScores(group, h.data, h.narrow, Lev());
  EXPECT_GT(scores[0], scores[1]);
}

TEST(RscTest, ParallelRunMatchesSequential) {
  // A HAI table with several blocks that each hold replacements: RSC on a
  // 4-thread pool must leave the same index and the same records, in
  // block order, as the inline run.
  Workload wl = *MakeHospitalWorkload({.num_hospitals = 40, .num_measures = 10});
  ErrorSpec spec;
  spec.seed = 42;
  Dataset dirty = InjectErrors(wl.clean, wl.rules, spec)->dirty;
  CleaningOptions options;
  options.agp_threshold = 3;
  MlnIndex base = *MlnIndex::Build(dirty, wl.rules);
  RunAgpAll(&base, dirty, wl.rules, options, nullptr);
  base.LearnWeights();
  ASSERT_GT(base.num_blocks(), 1u);

  MlnIndex inline_index = base;
  CleaningReport inline_report;
  RunRscAll(&inline_index, dirty, wl.rules, Lev(), &inline_report);
  std::set<size_t> blocks;
  for (const RscRepairRecord& rec : inline_report.rsc) blocks.insert(rec.block);
  ASSERT_GT(blocks.size(), 1u);

  PoolExecutor pool(4);
  ExecContext ctx;
  ctx.executor = &pool;
  MlnIndex pool_index = base;
  CleaningReport pool_report;
  RunRscAll(&pool_index, dirty, wl.rules, Lev(), &pool_report, ctx);
  testing::ExpectSameIndex(pool_index, inline_index);
  testing::ExpectSameReport(pool_report, inline_report);
}

}  // namespace
}  // namespace mlnclean

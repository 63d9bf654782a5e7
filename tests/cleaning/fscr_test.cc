#include "cleaning/fscr.h"

#include <gtest/gtest.h>

#include "cleaning/agp.h"
#include "cleaning/rsc.h"
#include "datagen/sample.h"

namespace mlnclean {
namespace {

// Runs stage I on the paper sample and returns the prepared index.
struct StageOneFixture {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  MlnIndex index = *MlnIndex::Build(dirty, rules);

  StageOneFixture() {
    options.agp_threshold = 1;
    DistanceFn dist = MakeDistanceFn(options.distance);
    RunAgpAll(&index, options, dist, nullptr);
    index.LearnWeights();
    RunRscAll(&index, dist, nullptr);
  }
};

TEST(FscrTest, Example3TupleT3Fusion) {
  // Example 3: the fused version of t3 is
  // {HN: ELIZA, CT: BOAZ, ST: AL, PN: 2567688400}.
  StageOneFixture f;
  Dataset cleaned = f.dirty.Clone();
  CleaningReport report;
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, &report);
  EXPECT_EQ(cleaned.row(2),
            (std::vector<Value>{"ELIZA", "BOAZ", "AL", "2567688400"}));
}

TEST(FscrTest, WholeSampleMatchesGroundTruth) {
  StageOneFixture f;
  Dataset cleaned = f.dirty.Clone();
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, nullptr);
  EXPECT_EQ(cleaned, *SampleHospitalClean());
}

TEST(FscrTest, ConflictsDetectedOnT3) {
  StageOneFixture f;
  Dataset cleaned = f.dirty.Clone();
  CleaningReport report;
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, &report);
  ASSERT_EQ(report.fscr.size(), f.dirty.num_rows());
  // t3's versions disagree on CT (DOTHAN from B1 vs BOAZ from B3).
  const FscrRecord& t3 = report.fscr[2];
  ASSERT_EQ(t3.conflict_attrs.size(), 1u);
  EXPECT_EQ(t3.conflict_attrs[0], 1);  // CT
  EXPECT_TRUE(t3.fused);
  EXPECT_GT(t3.f_score, 0.0);
  // t1 has no conflicts.
  EXPECT_TRUE(report.fscr[0].conflict_attrs.empty());
  EXPECT_TRUE(report.fscr[0].fused);
}

TEST(FscrTest, TupleWithNoVersionsKeepsValues) {
  Schema s = *Schema::Make({"A", "B", "C"});
  Dataset d = *Dataset::Make(s, {{"x", "y", "z"}});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));
  // Build an index over an unrelated dataset so the tuple is uncovered.
  Dataset other = *Dataset::Make(s, {{"q", "r", "s"}});
  MlnIndex index = *MlnIndex::Build(other, rules);
  index.LearnWeights();
  // Hack: pretend `other`'s pieces cover no tuple of `d` by clearing them.
  index.block(0).groups.clear();
  index.ReindexBlock(0);
  Dataset cleaned = d.Clone();
  CleaningOptions options;
  CleaningReport report;
  RunFscr(d, rules, index, options, &cleaned, &report);
  EXPECT_EQ(cleaned, d);
  EXPECT_FALSE(report.fscr[0].fused);
}

TEST(FscrTest, FusionFailureLeavesTupleUntouched) {
  // Two rules whose only γs conflict irreconcilably for a tuple and the
  // blocks offer no substitute: the tuple keeps its dirty values
  // (Algorithm 2 line 4: tfmax starts as t).
  Schema s = *Schema::Make({"A", "B", "C"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // A -> B
  rules.Add(*Constraint::MakeFd(s, {2}, {1}));  // C -> B
  Dataset d = *Dataset::Make(s, {{"a1", "b1", "c1"}, {"a1", "b1", "c1"},
                                 {"a2", "b2", "c1"}, {"a2", "b2", "c1"}});
  // Tuple t4 = {a1, b?, c1}: B1 says b1 (via a1), B2 is keyed by c1 whose
  // winner is ambiguous. Construct index manually for precision:
  MlnIndex index = *MlnIndex::Build(d, rules);
  CleaningOptions options;
  DistanceFn dist = MakeDistanceFn(options.distance);
  index.LearnWeights();
  RunRscAll(&index, dist, nullptr);
  // After RSC the c1 group picked one of b1/b2. The a1/a2 groups are
  // unambiguous. Fusion of every tuple must succeed here (substitutes
  // exist), so all tuples get consistent values.
  Dataset cleaned = d.Clone();
  CleaningReport report;
  RunFscr(d, rules, index, options, &cleaned, &report);
  for (const auto& rec : report.fscr) {
    EXPECT_TRUE(rec.fused);
  }
}

TEST(FscrTest, GreedyPathForManyVersions) {
  // With max_exhaustive_fusion = 0 every tuple takes the greedy path;
  // on the conflict-free sample it must still reach the ground truth.
  StageOneFixture f;
  f.options.max_exhaustive_fusion = 0;
  Dataset cleaned = f.dirty.Clone();
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, nullptr);
  // t3 has a conflict; greedy merges by weight and resolves via γ'.
  EXPECT_EQ(cleaned, *SampleHospitalClean());
}

TEST(FscrTest, FScoreIsProductOfWeights) {
  // For a tuple with two conflict-free versions the f-score is w1 * w2.
  StageOneFixture f;
  Dataset cleaned = f.dirty.Clone();
  CleaningReport report;
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, &report);
  // t1's versions: B1 {DOTHAN, AL} and B2 {3347938701, AL}.
  double w1 = 0, w2 = 0;
  for (const Group& g : f.index.block(0).groups) {
    if (g.pieces[0].reason == std::vector<Value>{"DOTHAN"}) {
      w1 = g.pieces[0].weight;
    }
  }
  for (const Group& g : f.index.block(1).groups) {
    if (g.pieces[0].reason == std::vector<Value>{"3347938701"}) {
      w2 = g.pieces[0].weight;
    }
  }
  ASSERT_GT(w1, 0.0);
  ASSERT_GT(w2, 0.0);
  EXPECT_NEAR(report.fscr[0].f_score, w1 * w2, 1e-9);
}

}  // namespace
}  // namespace mlnclean

#include "cleaning/agp.h"

#include <gtest/gtest.h>

#include <string>

#include "datagen/car.h"
#include "datagen/sample.h"
#include "errorgen/injector.h"
#include "testing/hand_built.h"

namespace mlnclean {
namespace {

struct SampleFixture {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  CleaningOptions options;
};

TEST(AgpTest, PaperExampleMergesWithTauOne) {
  // Section 5.1.1: with τ = 1, G12, G22 and G31 are abnormal; G12 merges
  // into G11, G22 into G23, G31 into G32.
  SampleFixture f;
  f.options.agp_threshold = 1;
  CleaningReport report;
  RunAgpAll(&f.index, f.dirty, f.rules, f.options, &report);

  ASSERT_EQ(report.agp.size(), 3u);
  // The keys are reason ids, read back through the records' rules.
  auto values = [&f](const std::vector<ValueId>& ids, size_t block) {
    return ResolveIds(ids, f.dirty, f.rules.rule(block));
  };
  EXPECT_EQ(values(report.agp[0].abnormal_key, 0), (std::vector<Value>{"DOTH"}));
  EXPECT_EQ(values(report.agp[0].target_key, 0), (std::vector<Value>{"DOTHAN"}));
  EXPECT_TRUE(report.agp[0].merged);
  EXPECT_EQ(values(report.agp[1].abnormal_key, 1), (std::vector<Value>{"2567638410"}));
  EXPECT_EQ(values(report.agp[1].target_key, 1), (std::vector<Value>{"2567688400"}));
  EXPECT_EQ(values(report.agp[2].abnormal_key, 2), (std::vector<Value>{"ELIZA", "DOTHAN"}));
  EXPECT_EQ(values(report.agp[2].target_key, 2), (std::vector<Value>{"ELIZA", "BOAZ"}));
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(report.agp[i].block, i);

  // Post-merge shape: 2, 2, 1 groups.
  EXPECT_EQ(f.index.block(0).groups.size(), 2u);
  EXPECT_EQ(f.index.block(1).groups.size(), 2u);
  EXPECT_EQ(f.index.block(2).groups.size(), 1u);
  // The merged-in γ keeps its own values inside the target group.
  const Constraint& r1 = f.rules.rule(0);
  const ValueId dothan = f.dirty.dict(r1.reason_attrs()[0]).Find("DOTHAN");
  const Group& g11 = f.index.block(0).groups[*f.index.FindGroup(0, {dothan})];
  ASSERT_EQ(g11.pieces.size(), 2u);
  EXPECT_EQ(testing::ReasonValues(g11.pieces[1], f.dirty, r1), (std::vector<Value>{"DOTH"}));
}

TEST(AgpTest, TauZeroDetectsNothing) {
  SampleFixture f;
  f.options.agp_threshold = 0;
  CleaningReport report;
  RunAgpAll(&f.index, f.dirty, f.rules, f.options, &report);
  EXPECT_TRUE(report.agp.empty());
  EXPECT_EQ(f.index.block(0).groups.size(), 3u);
}

TEST(AgpTest, LargeTauSwallowsEverythingIntoNothing) {
  // When every group is "abnormal" there is no normal group to merge
  // into: groups stay, records say merged = false.
  SampleFixture f;
  f.options.agp_threshold = 100;
  CleaningReport report;
  RunAgpAll(&f.index, f.dirty, f.rules, f.options, &report);
  EXPECT_EQ(report.agp.size(), 8u);  // all groups of all blocks
  for (const auto& rec : report.agp) {
    EXPECT_FALSE(rec.merged);
  }
  EXPECT_EQ(f.index.block(0).groups.size(), 3u);
}

TEST(AgpTest, DagCountsPieces) {
  SampleFixture f;
  f.options.agp_threshold = 1;
  CleaningReport report;
  RunAgpAll(&f.index, f.dirty, f.rules, f.options, &report);
  // Each abnormal group in the sample holds exactly one γ.
  EXPECT_EQ(report.NumDetectedAbnormalPieces(), 3u);
  EXPECT_EQ(report.NumDetectedAbnormalGroups(), 3u);
}

TEST(AgpTest, ThresholdTwoMergesMidSizeGroups) {
  SampleFixture f;
  f.options.agp_threshold = 2;
  CleaningReport report;
  RunAgpAll(&f.index, f.dirty, f.rules, f.options, &report);
  // B1: G11 (2 tuples) and G12 (1) are now abnormal; only G13 (3) is
  // normal, so both merge into it.
  EXPECT_EQ(f.index.block(0).groups.size(), 1u);
  EXPECT_EQ(f.index.block(0).groups[0].TupleCount(), 6u);
}

TEST(AgpTest, RecordsAffectedTuples) {
  SampleFixture f;
  f.options.agp_threshold = 1;
  CleaningReport report;
  RunAgpAll(&f.index, f.dirty, f.rules, f.options, &report);
  EXPECT_EQ(report.agp[0].abnormal_tuples, (std::vector<TupleId>{1}));  // t2
  EXPECT_EQ(report.agp[2].abnormal_tuples, (std::vector<TupleId>{2}));  // t3
}

TEST(AgpTest, NullReportIsAllowed) {
  SampleFixture f;
  f.options.agp_threshold = 1;
  RunAgpAll(&f.index, f.dirty, f.rules, f.options, nullptr);
  EXPECT_EQ(f.index.block(0).groups.size(), 2u);
}

TEST(AgpTest, ScanWorkTotalsArePinned) {
  // CAR with 3,000 rows, table 0 at seed 42, τ = 2 (bench/e2e's car_batch
  // table 0), where one block holds ~260 abnormal and 300 normal groups.
  // The totals pin how much of the scan the term-row caches and the
  // bucket bounds save: a change to how the scan gets to its merges must
  // say what it does to them.
  CarConfig config;
  config.num_rows = 3000;
  Workload wl = *MakeCarWorkload(config);
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.replacement_ratio = 0.5;
  spec.seed = 42;
  Dataset dirty = InjectErrors(wl.clean, wl.rules, spec)->dirty;
  const MlnIndex base = *MlnIndex::Build(dirty, wl.rules);
  CleaningOptions options;
  options.agp_threshold = 2;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    PoolExecutor pool(threads);
    ExecContext ctx;
    if (threads > 1) ctx.executor = &pool;
    MlnIndex index = base;
    CleaningReport report;
    RunAgpAll(&index, dirty, wl.rules, options, &report, ctx);
    size_t pairs = 0;
    size_t bucket_bounds = 0;
    size_t candidate_bounds = 0;
    size_t exact_evaluations = 0;
    size_t kernel_calls = 0;
    for (const AgpMergeRecord& rec : report.agp) {
      pairs += rec.pairs;
      bucket_bounds += rec.bucket_bounds;
      candidate_bounds += rec.candidate_bounds;
      exact_evaluations += rec.exact_evaluations;
      kernel_calls += rec.kernel_calls;
    }
    EXPECT_EQ(report.agp.size(), 268u) << "threads " << threads;
    EXPECT_EQ(pairs, 78636u) << "threads " << threads;
    EXPECT_EQ(bucket_bounds, 18882u) << "threads " << threads;
    EXPECT_EQ(candidate_bounds, 2645u) << "threads " << threads;
    EXPECT_EQ(exact_evaluations, 910u) << "threads " << threads;
    EXPECT_EQ(kernel_calls, 1236u) << "threads " << threads;
    EXPECT_NE(report.Summary().find(std::to_string(candidate_bounds) + " candidate bounds"),
              std::string::npos)
        << report.Summary();
  }
}

}  // namespace
}  // namespace mlnclean

// End-to-end pipeline behaviour through the engine API (these predate the
// CleaningEngine and rode on the removed MlnCleanPipeline facade; the
// invariants are facade-independent).

#include <gtest/gtest.h>

#include "cleaning/engine.h"
#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "errorgen/injector.h"
#include "eval/metrics.h"
#include "testing/same_report.h"

namespace mlnclean {
namespace {

using testing::ExpectSameReport;

TEST(PipelineTest, CleansTable1ToGroundTruth) {
  // The headline walk-through: MLNClean on Table 1 produces the clean
  // table, then deduplication collapses it to the two real entities.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.agp_threshold = 1;
  auto result = CleaningEngine(options).Clean(dirty, rules);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cleaned, *SampleHospitalClean());
  // t1/t2 collapse to one tuple, t3-t6 to another.
  EXPECT_EQ(result->deduped.num_rows(), 2u);
  EXPECT_EQ(result->report.duplicates.size(), 4u);
}

TEST(PipelineTest, CleanInputIsFixpoint) {
  // Cleaning already-clean data must not change it (idempotence).
  Dataset clean = *SampleHospitalClean();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.agp_threshold = 1;
  auto result = CleaningEngine(options).Clean(clean, rules);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cleaned, clean);
}

TEST(PipelineTest, TimingsPopulated) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  auto result = CleaningEngine().Clean(dirty, rules);
  ASSERT_TRUE(result.ok());
  const StageTimings& t = result->report.timings;
  EXPECT_GE(t.index, 0.0);
  EXPECT_GT(t.total, 0.0);
  EXPECT_GE(t.total, t.index + t.agp + t.learn + t.rsc + t.fscr);
}

TEST(PipelineTest, OptionValidationRejectsBadConfig) {
  CleaningOptions options;
  options.fscr_minimality_discount = 1.5;
  auto result =
      CleaningEngine(options).Clean(*SampleHospitalDirty(), *SampleHospitalRules());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(PipelineTest, PriorOnlyAblationStillCleansSample) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.agp_threshold = 1;
  options.learn_weights = false;  // Eq. 4 priors only
  auto result = CleaningEngine(options).Clean(dirty, rules);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cleaned, *SampleHospitalClean());
}

TEST(PipelineTest, RepairsInjectedErrorsOnGeneratedData) {
  HospitalConfig config;
  config.num_hospitals = 30;
  config.num_measures = 10;
  Workload wl = *MakeHospitalWorkload(config);
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.seed = 3;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
  CleaningOptions options;
  options.agp_threshold = 3;
  auto result = CleaningEngine(options).Clean(dd.dirty, wl.rules);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RepairMetrics m = EvaluateRepair(dd.dirty, result->cleaned, dd.truth);
  EXPECT_GT(m.F1(), 0.6) << "precision=" << m.Precision()
                         << " recall=" << m.Recall();
}

TEST(PipelineTest, EmptyRuleSetLeavesDataUntouched) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules(dirty.schema());
  auto result = CleaningEngine().Clean(dirty, rules);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cleaned, dirty);
}

TEST(PipelineTest, ParallelRunMatchesSequentialBitIdentically) {
  HospitalConfig config;
  config.num_hospitals = 30;
  config.num_measures = 10;
  Workload wl = *MakeHospitalWorkload(config);
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.seed = 7;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);

  CleaningOptions sequential;
  sequential.agp_threshold = 3;
  sequential.num_threads = 1;
  // An explicit 8-thread pool: the shared process executor would clamp to
  // the host's core count, which may be 1 on a small CI box.
  PoolExecutor pool(8);
  CleaningOptions parallel = sequential;
  parallel.num_threads = 8;
  parallel.executor = &pool;

  auto seq = CleaningEngine(sequential).Clean(dd.dirty, wl.rules);
  auto par = CleaningEngine(parallel).Clean(dd.dirty, wl.rules);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(seq->cleaned, par->cleaned);
  EXPECT_EQ(seq->deduped, par->deduped);
  ExpectSameReport(seq->report, par->report);
}

TEST(PipelineTest, ThreadCountDoesNotChangeResults) {
  // 1 and 4 threads agree on the sample, and both match its clean table.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions base;
  base.agp_threshold = 1;
  PoolExecutor pool(4);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    CleaningOptions options = base;
    options.num_threads = threads;
    if (threads > 1) options.executor = &pool;
    auto result = CleaningEngine(options).Clean(dirty, rules);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->cleaned, *SampleHospitalClean()) << "threads=" << threads;
  }
}

TEST(PipelineTest, AutoThreadCountResolves) {
  CleaningOptions options;
  options.num_threads = 0;  // auto
  EXPECT_GE(options.ResolvedNumThreads(), 1u);
  EXPECT_NE(options.ResolvedExecutor(), nullptr);
  options.num_threads = 3;
  EXPECT_EQ(options.ResolvedNumThreads(), 3u);
  // num_threads == 1 resolves to the inline executor; > 1 to a pool.
  options.num_threads = 1;
  EXPECT_EQ(options.ResolvedExecutor()->concurrency(), 1u);
  PoolExecutor pool(2);
  options.executor = &pool;
  EXPECT_EQ(options.ResolvedExecutor(), &pool);
}

TEST(PipelineTest, StageDecompositionMatchesClean) {
  // The old RunStageOne / RunStageTwo split, as one staged session: run
  // stage I to kRsc, then resume stage II on the same session.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(rules.schema(), rules);

  CleanSession session = model.NewSession(dirty);
  ASSERT_TRUE(session.RunUntil(Stage::kRsc).ok());
  EXPECT_EQ(session.next_stage(), Stage::kFscr);
  ASSERT_TRUE(session.Resume().ok());
  auto decomposed = session.TakeResult();
  ASSERT_TRUE(decomposed.ok()) << decomposed.status().ToString();

  auto direct = model.Clean(dirty);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(decomposed->cleaned, direct->cleaned);
  EXPECT_EQ(decomposed->deduped, direct->deduped);
  // Stage-one records flowed through into the final trace.
  EXPECT_EQ(decomposed->report.agp.size(), direct->report.agp.size());
  EXPECT_EQ(decomposed->report.rsc.size(), direct->report.rsc.size());
  EXPECT_EQ(decomposed->report.fscr.size(), direct->report.fscr.size());
}

}  // namespace
}  // namespace mlnclean

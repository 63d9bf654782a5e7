// End-to-end pipeline behaviour through the engine API (these predate the
// CleaningEngine and rode on the removed MlnCleanPipeline facade; the
// invariants are facade-independent).

#include <gtest/gtest.h>

#include "cleaning/engine.h"
#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "errorgen/injector.h"
#include "eval/metrics.h"

namespace mlnclean {
namespace {

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
  options.remove_duplicates = false;
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
  options.max_fusion_nodes = 0;
  auto result =
      CleaningEngine(options).Clean(*SampleHospitalDirty(), *SampleHospitalRules());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(PipelineTest, DuplicateRemovalCanBeDisabled) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.remove_duplicates = false;
  auto result = CleaningEngine(options).Clean(dirty, rules);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->deduped.num_rows(), dirty.num_rows());
  EXPECT_TRUE(result->report.duplicates.empty());
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

// Field-wise equality of the full decision trace (the record structs carry
// no operator==); timings are excluded, everything else must match.
void ExpectSameReport(const CleaningReport& a, const CleaningReport& b) {
  ASSERT_EQ(a.agp.size(), b.agp.size());
  for (size_t i = 0; i < a.agp.size(); ++i) {
    EXPECT_EQ(a.agp[i].block, b.agp[i].block);
    EXPECT_EQ(a.agp[i].abnormal_key, b.agp[i].abnormal_key);
    EXPECT_EQ(a.agp[i].abnormal_tuples, b.agp[i].abnormal_tuples);
    EXPECT_EQ(a.agp[i].num_pieces, b.agp[i].num_pieces);
    EXPECT_EQ(a.agp[i].target_key, b.agp[i].target_key);
    EXPECT_EQ(a.agp[i].merged, b.agp[i].merged);
  }
  ASSERT_EQ(a.rsc.size(), b.rsc.size());
  for (size_t i = 0; i < a.rsc.size(); ++i) {
    EXPECT_EQ(a.rsc[i].block, b.rsc[i].block);
    EXPECT_EQ(a.rsc[i].group_key, b.rsc[i].group_key);
    EXPECT_EQ(a.rsc[i].winner_values, b.rsc[i].winner_values);
    EXPECT_EQ(a.rsc[i].loser_values, b.rsc[i].loser_values);
    EXPECT_EQ(a.rsc[i].affected_tuples, b.rsc[i].affected_tuples);
  }
  ASSERT_EQ(a.fscr.size(), b.fscr.size());
  for (size_t i = 0; i < a.fscr.size(); ++i) {
    EXPECT_EQ(a.fscr[i].tuple, b.fscr[i].tuple);
    EXPECT_EQ(a.fscr[i].conflict_attrs, b.fscr[i].conflict_attrs);
    EXPECT_EQ(a.fscr[i].fused, b.fscr[i].fused);
    // Bit-identical, not just close: the parallel run must execute the
    // same floating-point operations in the same order per tuple.
    EXPECT_EQ(a.fscr[i].f_score, b.fscr[i].f_score);
  }
  EXPECT_EQ(a.duplicates, b.duplicates);
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
  // The old RunStageOne / RunStageTwo split, as staged sessions: run one
  // session to kRsc, hand its index + trace to a ResumeSession, finish.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(rules.schema(), rules);

  CleanSession one = model.NewSession(dirty);
  ASSERT_TRUE(one.RunUntil(Stage::kRsc).ok());
  CleanSession two = model.ResumeSession(dirty, &one.index(),
                                         std::move(*one.mutable_report()));
  ASSERT_TRUE(two.Resume().ok());
  auto decomposed = two.TakeResult();
  ASSERT_TRUE(decomposed.ok()) << decomposed.status().ToString();

  auto direct = model.Clean(dirty);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(decomposed->cleaned, direct->cleaned);
  // Stage-one records flowed through into the final trace.
  EXPECT_EQ(decomposed->report.agp.size(), direct->report.agp.size());
  EXPECT_EQ(decomposed->report.fscr.size(), direct->report.fscr.size());
}

}  // namespace
}  // namespace mlnclean

#include "cleaning/engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "baseline/holoclean.h"
#include "datagen/car.h"
#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "distributed/distributed_pipeline.h"
#include "errorgen/injector.h"
#include "testing/same_report.h"

namespace mlnclean {
namespace {

using testing::ExpectSameReport;

// A corrupted 30-hospital workload shared by the heavier tests.
struct GeneratedCase {
  Workload wl;
  DirtyDataset dd;
};

GeneratedCase MakeGenerated(uint64_t seed) {
  HospitalConfig config;
  config.num_hospitals = 30;
  config.num_measures = 10;
  Workload wl = *MakeHospitalWorkload(config);
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.seed = seed;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
  return GeneratedCase{std::move(wl), std::move(dd)};
}

TEST(CleaningEngineTest, CompileRejectsInvalidOptions) {
  CleaningOptions options;
  options.fscr_minimality_discount = 0.0;
  auto model = CleaningEngine(options).Compile(SampleHospitalDirty()->schema(),
                                               *SampleHospitalRules());
  ASSERT_FALSE(model.ok());
  EXPECT_TRUE(model.status().IsInvalid());
}

TEST(CleaningEngineTest, CompileRejectsForeignSchema) {
  Schema other = *Schema::Make({"A", "B"});
  auto model = CleaningEngine().Compile(other, *SampleHospitalRules());
  ASSERT_FALSE(model.ok());
  EXPECT_TRUE(model.status().IsInvalid());
}

TEST(CleaningEngineTest, CompileRejectsUnhostableRule) {
  // A DC whose result predicate is an inequality cannot live in the MLN
  // index; Compile must surface that once instead of per cleaning call.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules(dirty.schema());
  rules.Add(*Constraint::MakeDc(
      dirty.schema(), {DcPredicate{0, PredOp::kEq, 0}, DcPredicate{1, PredOp::kLt, 1}}));
  auto model = CleaningEngine().Compile(dirty.schema(), rules);
  ASSERT_FALSE(model.ok());
  EXPECT_TRUE(model.status().IsInvalid());
}

TEST(CleaningEngineTest, SessionRejectsMismatchedDataset) {
  Dataset dirty = *SampleHospitalDirty();
  CleanModel model = *CleaningEngine().Compile(dirty.schema(), *SampleHospitalRules());
  Dataset other(*Schema::Make({"A", "B"}));
  CleanSession session = model.NewSession(other);
  Status status = session.Resume();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInvalid());
}

TEST(CleaningEngineTest, ModelCleanMatchesOneShotCleanBitIdentically) {
  GeneratedCase c = MakeGenerated(5);
  CleaningOptions options;
  options.agp_threshold = 3;
  auto old_api = CleaningEngine(options).Clean(c.dd.dirty, c.wl.rules);
  ASSERT_TRUE(old_api.ok()) << old_api.status().ToString();
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  auto served = model.Clean(c.dd.dirty);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->cleaned, old_api->cleaned);
  EXPECT_EQ(served->deduped, old_api->deduped);
  ExpectSameReport(served->report, old_api->report);
}

TEST(CleaningEngineTest, StagedRunMatchesOneShot) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(dirty.schema(),
                                                      *SampleHospitalRules());
  CleanSession session = model.NewSession(dirty);
  EXPECT_EQ(session.next_stage(), Stage::kIndex);
  ASSERT_TRUE(session.RunUntil(Stage::kLearn).ok());
  EXPECT_EQ(session.next_stage(), Stage::kRsc);
  EXPECT_FALSE(session.finished());
  // The stage-I index is inspectable mid-plan.
  EXPECT_GT(session.index().num_blocks(), 0u);
  // Re-running an already-passed stage is an OK no-op.
  ASSERT_TRUE(session.RunUntil(Stage::kAgp).ok());
  EXPECT_EQ(session.next_stage(), Stage::kRsc);
  ASSERT_TRUE(session.Resume().ok());
  EXPECT_TRUE(session.finished());
  auto staged = session.TakeResult();
  ASSERT_TRUE(staged.ok());
  auto oneshot = model.Clean(dirty);
  ASSERT_TRUE(oneshot.ok());
  EXPECT_EQ(staged->cleaned, oneshot->cleaned);
  EXPECT_EQ(staged->deduped, oneshot->deduped);
  ExpectSameReport(staged->report, oneshot->report);
  // A second TakeResult has nothing left to hand out.
  EXPECT_FALSE(session.TakeResult().ok());
}

TEST(CleaningEngineTest, TakeResultBeforeFinishIsInvalid) {
  Dataset dirty = *SampleHospitalDirty();
  CleanModel model = *CleaningEngine().Compile(dirty.schema(), *SampleHospitalRules());
  CleanSession session = model.NewSession(dirty);
  ASSERT_TRUE(session.RunUntil(Stage::kRsc).ok());
  auto result = session.TakeResult();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalid());
}

TEST(CleaningEngineTest, ProgressEventsFireInStageOrder) {
  // Exactly one begin and one end event per stage, on the driving thread,
  // whether the stages run inline or on a pool.
  Dataset dirty = *SampleHospitalDirty();
  PoolExecutor pool(4);
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    CleaningOptions options;
    options.num_threads = threads;
    if (threads > 1) options.executor = &pool;
    CleanModel model =
        *CleaningEngine(options).Compile(dirty.schema(), *SampleHospitalRules());
    std::vector<StageProgress> events;
    const std::thread::id driver = std::this_thread::get_id();
    SessionOptions opts;
    opts.progress = [&](const StageProgress& p) {
      EXPECT_EQ(std::this_thread::get_id(), driver);
      events.push_back(p);
    };
    CleanSession session = model.NewSession(dirty, opts);
    ASSERT_TRUE(session.Resume().ok());
    ASSERT_EQ(events.size(), 2u * kNumStages);
    for (int s = 0; s < kNumStages; ++s) {
      const StageProgress& begin = events[2 * s];
      const StageProgress& end = events[2 * s + 1];
      EXPECT_EQ(begin.stage, static_cast<Stage>(s));
      EXPECT_EQ(end.stage, static_cast<Stage>(s));
      EXPECT_EQ(begin.units_done, 0u);
      EXPECT_EQ(end.units_done, end.units_total);
      EXPECT_EQ(begin.units_total, end.units_total);
      EXPECT_GE(end.seconds, 0.0);
    }
    // Unit counts: rules for kIndex, tuples for kFscr.
    EXPECT_EQ(events[0].units_total, SampleHospitalRules()->size());
    EXPECT_EQ(events[2 * static_cast<int>(Stage::kFscr)].units_total,
              dirty.num_rows());
  }
}

TEST(CleaningEngineTest, PreCancelledTokenAbortsBeforeAnyWork) {
  Dataset dirty = *SampleHospitalDirty();
  Dataset snapshot = dirty.Clone();
  CleanModel model = *CleaningEngine().Compile(dirty.schema(), *SampleHospitalRules());
  SessionOptions opts;
  opts.cancel.RequestCancel();
  CleanSession session = model.NewSession(dirty, opts);
  Status status = session.Resume();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsCancelled());
  EXPECT_EQ(dirty, snapshot);
  // Cancellation is terminal: the session cannot be resumed or harvested.
  EXPECT_TRUE(session.Resume().IsCancelled());
  EXPECT_TRUE(session.TakeResult().status().IsCancelled());
}

TEST(CleaningEngineTest, CancellationAtEveryStageReturnsCancelled) {
  GeneratedCase c = MakeGenerated(11);
  CleaningOptions options;
  options.agp_threshold = 3;
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  Dataset snapshot = c.dd.dirty.Clone();
  for (int s = 0; s < kNumStages; ++s) {
    const Stage target = static_cast<Stage>(s);
    SessionOptions opts;
    CancelToken token;
    opts.cancel = token;
    // Cancel from the progress callback the moment the target stage
    // starts: the stage driver then aborts at its first block/shard check.
    opts.progress = [&, target](const StageProgress& p) {
      if (p.stage == target && p.units_done == 0) token.RequestCancel();
    };
    CleanSession session = model.NewSession(c.dd.dirty, opts);
    Status status = session.Resume();
    ASSERT_FALSE(status.ok()) << "stage " << StageName(target);
    EXPECT_TRUE(status.IsCancelled()) << status.ToString();
    EXPECT_FALSE(session.finished());
    EXPECT_EQ(c.dd.dirty, snapshot) << "input mutated at " << StageName(target);
    EXPECT_TRUE(session.Resume().IsCancelled());
  }
}

TEST(CleaningEngineTest, ParallelSessionsBitIdenticalToSequential) {
  GeneratedCase c = MakeGenerated(7);
  CleaningOptions sequential;
  sequential.agp_threshold = 3;
  sequential.num_threads = 1;
  // Real 8-way parallelism even on a small host: the shared process pool
  // would clamp to the core count.
  PoolExecutor pool(8);
  CleaningOptions parallel = sequential;
  parallel.num_threads = 8;
  parallel.executor = &pool;
  auto seq = CleaningEngine(sequential)
                 .Compile(c.dd.dirty.schema(), c.wl.rules)
                 ->Clean(c.dd.dirty);
  auto par = CleaningEngine(parallel)
                 .Compile(c.dd.dirty.schema(), c.wl.rules)
                 ->Clean(c.dd.dirty);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_EQ(seq->cleaned, par->cleaned);
  EXPECT_EQ(seq->deduped, par->deduped);
  ExpectSameReport(seq->report, par->report);
}

TEST(CleaningEngineTest, FreshWeightSessionsMatchColdRunsPerBatch) {
  // Serving a stream without weight reuse must be indistinguishable from
  // K independent cold runs — the bit-identity half of the amortization
  // contract.
  GeneratedCase c = MakeGenerated(13);
  CleaningOptions options;
  options.agp_threshold = 3;
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  CleaningEngine cold(options);
  const size_t rows = c.dd.dirty.num_rows();
  const size_t chunk = (rows + 3) / 4;
  for (size_t begin = 0; begin < rows; begin += chunk) {
    Dataset batch = c.dd.dirty.Slice(begin, begin + chunk);
    auto served = model.Clean(batch);  // reuse_model_weights defaults off
    auto reference = cold.Clean(batch, c.wl.rules);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(served->cleaned, reference->cleaned);
    EXPECT_EQ(served->deduped, reference->deduped);
    ExpectSameReport(served->report, reference->report);
  }
}

TEST(CleaningEngineTest, WarmedModelServesWithStoredWeights) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model =
      *CleaningEngine(options).Compile(dirty.schema(), *SampleHospitalRules());
  EXPECT_EQ(model.num_stored_weights(), 0u);
  ASSERT_TRUE(model.Warm(dirty).ok());
  EXPECT_GT(model.num_stored_weights(), 0u);

  SessionOptions serve;
  serve.reuse_model_weights = true;
  auto warm = model.Clean(dirty, serve);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  // Warmed on the same data, the stored Eq. 6 averages equal the learned
  // weights, so the served repair is the known-correct clean table.
  EXPECT_EQ(warm->cleaned, *SampleHospitalClean());
}

TEST(CleaningEngineTest, ReuseFallsBackToLearningOnColdStore) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model =
      *CleaningEngine(options).Compile(dirty.schema(), *SampleHospitalRules());
  SessionOptions serve;
  serve.reuse_model_weights = true;  // store is empty: learns fresh
  auto result = model.Clean(dirty, serve);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cleaned, *SampleHospitalClean());
  // A reuse-only session never contributes; the store stays cold.
  EXPECT_EQ(model.num_stored_weights(), 0u);
}

TEST(CleaningEngineTest, AdjustWeightsAcrossRequiresPostLearnSessions) {
  Dataset dirty = *SampleHospitalDirty();
  CleanModel model = *CleaningEngine().Compile(dirty.schema(), *SampleHospitalRules());
  CleanSession early = model.NewSession(dirty);
  ASSERT_TRUE(early.RunUntil(Stage::kAgp).ok());
  auto adjusted = model.AdjustWeightsAcross({&early});
  ASSERT_FALSE(adjusted.ok());
  EXPECT_TRUE(adjusted.status().IsInvalid());
}

TEST(CleaningEngineTest, AdjustWeightsAcrossMergesSessions) {
  GeneratedCase c = MakeGenerated(17);
  CleaningOptions options;
  options.agp_threshold = 3;
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  // Two halves of the table, cleaned as concurrent sessions.
  const size_t rows = c.dd.dirty.num_rows();
  std::vector<Dataset> halves;
  halves.push_back(c.dd.dirty.Slice(0, rows / 2));
  halves.push_back(c.dd.dirty.Slice(rows / 2, rows));
  CleanSession a = model.NewSession(halves[0]);
  CleanSession b = model.NewSession(halves[1]);
  ASSERT_TRUE(a.RunUntil(Stage::kLearn).ok());
  ASSERT_TRUE(b.RunUntil(Stage::kLearn).ok());
  auto merged = model.AdjustWeightsAcross({&a, &b});
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GT(*merged, 0u);
  ASSERT_TRUE(a.RunUntil(Stage::kFscr).ok());
  ASSERT_TRUE(b.RunUntil(Stage::kFscr).ok());
  EXPECT_EQ(a.cleaned().num_rows(), halves[0].num_rows());
  EXPECT_EQ(b.cleaned().num_rows(), halves[1].num_rows());
}

TEST(CleaningEngineTest, DistributedDriverHonoursCancellation) {
  GeneratedCase c = MakeGenerated(19);
  DistributedOptions opts;
  opts.num_parts = 4;
  opts.num_workers = 2;
  opts.cleaning.agp_threshold = 3;
  opts.cancel.RequestCancel();
  Dataset snapshot = c.dd.dirty.Clone();
  auto result = DistributedMlnClean(opts).Clean(c.dd.dirty, c.wl.rules);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
  EXPECT_EQ(c.dd.dirty, snapshot);
}

TEST(CleaningEngineTest, LearnerHitsNoStepCapOnBenchTables) {
  // Every group's Newton solve converges on the pinned HAI-40 table
  // (seed 42, τ = 3) and on a CAR-3000 table (τ = 2), and the count is
  // kept without records.
  ErrorSpec spec;
  spec.seed = 42;
  const Workload hai = *MakeHospitalWorkload({.num_hospitals = 40, .num_measures = 10});
  const Workload car = *MakeCarWorkload({.num_rows = 3000});
  for (const auto& [wl, tau] : {std::pair{&hai, size_t{3}}, std::pair{&car, size_t{2}}}) {
    const Dataset dirty = InjectErrors(wl->clean, wl->rules, spec)->dirty;
    CleaningOptions options;
    options.agp_threshold = tau;
    SessionOptions opts;
    opts.collect_report = false;
    const CleanResult result = *CleaningEngine(options).Clean(dirty, wl->rules, opts);
    EXPECT_EQ(result.report.learn_capped_groups, 0u) << "tau " << tau;
    EXPECT_TRUE(result.report.fscr.empty());
  }
}

TEST(CleaningEngineTest, HoloCleanBaselineHonoursCancellation) {
  GeneratedCase c = MakeGenerated(23);
  HoloCleanOptions opts;
  opts.cancel.RequestCancel();
  auto result =
      HoloCleanBaseline(opts).CleanWithOracle(c.dd.dirty, c.wl.rules, c.dd.truth);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
}

}  // namespace
}  // namespace mlnclean

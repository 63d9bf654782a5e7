#include "eval/component_metrics.h"

#include <gtest/gtest.h>

#include "cleaning/engine.h"
#include "datagen/hospital.h"
#include "datagen/sample.h"

namespace mlnclean {
namespace {

// Ground truth of the paper's sample: the four dirty cells of Table 1.
GroundTruth SampleTruth() {
  Dataset clean = *SampleHospitalClean();
  std::vector<InjectedError> errors = {
      {1, 1, ErrorKind::kTypo, "DOTHAN"},            // t2.CT
      {2, 1, ErrorKind::kReplacement, "BOAZ"},       // t3.CT
      {2, 3, ErrorKind::kReplacement, "2567688400"}, // t3.PN
      {3, 2, ErrorKind::kReplacement, "AL"},         // t4.ST
  };
  return GroundTruth(std::move(clean), std::move(errors));
}

TEST(ComponentMetricsTest, SampleAllComponentsPerfect) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.agp_threshold = 1;
  auto eval = EvaluateComponents(dirty, rules, options, SampleTruth());
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();

  // AGP: 3 abnormal groups detected, all real, all merged correctly.
  EXPECT_EQ(eval->agp.detected, 3u);
  EXPECT_EQ(eval->agp.real, 3u);
  EXPECT_EQ(eval->agp.correct, 3u);
  EXPECT_DOUBLE_EQ(eval->agp.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(eval->agp.Recall(), 1.0);
  EXPECT_EQ(eval->dag, 3u);

  // RSC: 5 γs repaired, 5 erroneous, all correct.
  EXPECT_EQ(eval->rsc.detected, 5u);
  EXPECT_EQ(eval->rsc.real, 5u);
  EXPECT_DOUBLE_EQ(eval->rsc.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(eval->rsc.Recall(), 1.0);

  // FSCR: one conflicted erroneous cell (t3.CT), repaired correctly; the
  // dataset has 4 erroneous cells in total.
  EXPECT_EQ(eval->fscr.detected, 1u);
  EXPECT_EQ(eval->fscr.correct, 1u);
  EXPECT_EQ(eval->fscr.real, 4u);
  EXPECT_DOUBLE_EQ(eval->fscr.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(eval->fscr.Recall(), 0.25);

  // Overall: perfect repair of the sample.
  EXPECT_DOUBLE_EQ(eval->overall.F1(), 1.0);
  EXPECT_EQ(eval->cleaned, *SampleHospitalClean());
}

TEST(ComponentMetricsTest, TauZeroKillsAgp) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.agp_threshold = 0;
  auto eval = EvaluateComponents(dirty, rules, options, SampleTruth());
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->agp.detected, 0u);
  EXPECT_EQ(eval->dag, 0u);
  EXPECT_DOUBLE_EQ(eval->agp.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(eval->agp.Recall(), 0.0);
}

TEST(ComponentMetricsTest, OversizedTauHurtsPrecision) {
  // With τ large enough to flag everything, no normal target exists and
  // nothing merges: zero correct merges.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  options.agp_threshold = 50;
  auto eval = EvaluateComponents(dirty, rules, options, SampleTruth());
  ASSERT_TRUE(eval.ok());
  EXPECT_GT(eval->agp.detected, 3u);
  EXPECT_DOUBLE_EQ(eval->agp.Precision(), 0.0);
}

struct GeneratedHai {
  Workload wl;
  DirtyDataset dd;
};

GeneratedHai MakeGeneratedHai() {
  Workload wl = *MakeHospitalWorkload({.num_hospitals = 20, .num_measures = 8});
  ErrorSpec spec;
  spec.error_rate = 0.08;
  spec.seed = 5;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
  return {std::move(wl), std::move(dd)};
}

TEST(ComponentMetricsTest, ScoresBoundedOnGeneratedWorkload) {
  GeneratedHai hai = MakeGeneratedHai();
  CleaningOptions options;
  options.agp_threshold = 2;
  auto eval = EvaluateComponents(hai.dd.dirty, hai.wl.rules, options, hai.dd.truth);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  for (const ComponentScore* s : {&eval->agp, &eval->rsc, &eval->fscr}) {
    EXPECT_GE(s->Precision(), 0.0);
    EXPECT_LE(s->Precision(), 1.0);
    EXPECT_GE(s->Recall(), 0.0);
    EXPECT_LE(s->Recall(), 1.0);
  }
  EXPECT_GT(eval->overall.F1(), 0.3);
}

TEST(ComponentMetricsTest, SchemaMismatchIsInvalid) {
  // A dataset narrower than the rules' schema is refused by the session's
  // schema check before any stage reads a column.
  Schema narrow = *Schema::Make({"HN", "CT"});
  Dataset dirty = *Dataset::Make(narrow, {{"ALABAMA", "DOTHAN"}});
  RuleSet rules = *SampleHospitalRules();
  auto eval = EvaluateComponents(dirty, rules, CleaningOptions(), SampleTruth());
  ASSERT_FALSE(eval.ok());
  EXPECT_TRUE(eval.status().IsInvalid()) << eval.status().ToString();
}

void ExpectSameFscrRecords(const std::vector<FscrRecord>& a,
                           const std::vector<FscrRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple, b[i].tuple) << "record " << i;
    EXPECT_EQ(a[i].conflict_attrs, b[i].conflict_attrs) << "record " << i;
    EXPECT_EQ(a[i].fused, b[i].fused) << "record " << i;
    EXPECT_EQ(a[i].f_score, b[i].f_score) << "record " << i;  // bitwise
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "record " << i;
    EXPECT_EQ(a[i].active_versions, b[i].active_versions) << "record " << i;
    EXPECT_EQ(a[i].nodes, b[i].nodes) << "record " << i;
    EXPECT_EQ(a[i].dominance_hits, b[i].dominance_hits) << "record " << i;
    EXPECT_EQ(a[i].substitutions, b[i].substitutions) << "record " << i;
  }
}

TEST(ComponentMetricsTest, RunsTheSamePipelineAsClean) {
  // The evaluator is staged steps on one CleanSession: its repair and
  // FSCR trace are exactly what CleanModel::Clean produces.
  GeneratedHai hai = MakeGeneratedHai();
  CleaningOptions options;
  options.agp_threshold = 2;
  auto eval = EvaluateComponents(hai.dd.dirty, hai.wl.rules, options, hai.dd.truth);
  ASSERT_TRUE(eval.ok()) << eval.status().ToString();
  CleanModel model =
      *CleaningEngine(options).Compile(hai.wl.rules.schema(), hai.wl.rules);
  auto clean = model.Clean(hai.dd.dirty);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(eval->cleaned == clean->cleaned);
  ExpectSameFscrRecords(eval->report.fscr, clean->report.fscr);
}

TEST(ComponentMetricsTest, ThreadCapDoesNotChangeScores) {
  GeneratedHai hai = MakeGeneratedHai();
  CleaningOptions options;
  options.agp_threshold = 2;
  options.num_threads = 1;
  auto one = EvaluateComponents(hai.dd.dirty, hai.wl.rules, options, hai.dd.truth);
  options.num_threads = 4;
  auto four = EvaluateComponents(hai.dd.dirty, hai.wl.rules, options, hai.dd.truth);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  for (auto [a, b] : {std::pair{&one->agp, &four->agp},
                      std::pair{&one->rsc, &four->rsc},
                      std::pair{&one->fscr, &four->fscr}}) {
    EXPECT_EQ(a->correct, b->correct);
    EXPECT_EQ(a->detected, b->detected);
    EXPECT_EQ(a->real, b->real);
  }
  EXPECT_EQ(one->dag, four->dag);
  EXPECT_EQ(one->overall.F1(), four->overall.F1());
  EXPECT_TRUE(one->cleaned == four->cleaned);
  ExpectSameFscrRecords(one->report.fscr, four->report.fscr);
}

TEST(ComponentScoreTest, EdgeConventions) {
  ComponentScore s;
  EXPECT_DOUBLE_EQ(s.Precision(), 0.0);  // nothing detected
  EXPECT_DOUBLE_EQ(s.Recall(), 1.0);     // nothing real, nothing claimed
  s.real = 2;
  EXPECT_DOUBLE_EQ(s.Recall(), 0.0);
}

}  // namespace
}  // namespace mlnclean

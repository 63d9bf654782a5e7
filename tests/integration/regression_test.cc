// Regression tests for behaviours found and fixed while reproducing the
// paper's numbers; each encodes a failure mode in miniature.

#include <gtest/gtest.h>

#include <limits>

#include "cleaning/engine.h"
#include "common/csv.h"
#include "datagen/hospital.h"
#include "errorgen/injector.h"
#include "eval/metrics.h"
#include "rules/rule_parser.h"

namespace mlnclean {
namespace {

// A replaced group key must not drag the whole tuple onto another entity.
// Miniature of the HAI "identity drift": hospital A's row gets hospital
// B's phone; rules keyed by phone say "B's zip/state", rules keyed by
// A's own identity say otherwise. The minimal repair (fix the phone)
// must win over the popular rewrite (fix provider+zip+state to B's).
TEST(RegressionTest, FscrPrefersMinimalRepairOverIdentityDrift) {
  Schema s = *Schema::Make({"Provider", "Phone", "Zip", "State"});
  RuleSet rules = *ParseRules(s,
                              "FD: Phone -> Zip\n"
                              "FD: Phone -> State\n"
                              "FD: Provider -> Phone, Zip\n");
  std::vector<std::vector<Value>> rows;
  // Hospital A: provider PA, phone 1111, zip 355, state AL (6 rows).
  for (int i = 0; i < 6; ++i) rows.push_back({"PA", "1111", "355", "AL"});
  // Hospital B: provider PB, phone 2222, zip 366, state GA (6 rows).
  for (int i = 0; i < 6; ++i) rows.push_back({"PB", "2222", "366", "GA"});
  // The corrupted row: hospital A with B's phone.
  rows.push_back({"PA", "2222", "355", "AL"});
  Dataset dirty = *Dataset::Make(s, rows);

  CleaningOptions options;
  options.agp_threshold = 0;  // isolate the FSCR behaviour
  auto result = CleaningEngine(options).Clean(dirty, rules);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Minimal repair: phone restored to 1111, everything else untouched.
  EXPECT_EQ(result->cleaned.row(12),
            (std::vector<Value>{"PA", "1111", "355", "AL"}));
}

// With the minimality bias disabled, the same scenario is allowed to
// drift (the two fusions are weight-ties); this guards the knob's
// semantics rather than a specific winner.
TEST(RegressionTest, MinimalityDiscountIsTheTieBreaker) {
  Schema s = *Schema::Make({"Provider", "Phone", "Zip", "State"});
  RuleSet rules = *ParseRules(s,
                              "FD: Phone -> Zip\n"
                              "FD: Phone -> State\n"
                              "FD: Provider -> Phone, Zip\n");
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 6; ++i) rows.push_back({"PA", "1111", "355", "AL"});
  for (int i = 0; i < 6; ++i) rows.push_back({"PB", "2222", "366", "GA"});
  rows.push_back({"PA", "2222", "355", "AL"});
  Dataset dirty = *Dataset::Make(s, rows);

  CleaningOptions with_bias;
  with_bias.agp_threshold = 0;
  CleaningOptions without_bias = with_bias;
  without_bias.fscr_minimality_discount = 1.0;

  auto biased = *CleaningEngine(with_bias).Clean(dirty, rules);
  auto unbiased = *CleaningEngine(without_bias).Clean(dirty, rules);
  // The biased run repairs minimally; the unbiased run changes at least
  // as many cells of the corrupted tuple.
  auto changed = [&](const Dataset& cleaned) {
    size_t n = 0;
    for (AttrId a = 0; a < 4; ++a) {
      if (cleaned.at(12, a) != dirty.at(12, a)) ++n;
    }
    return n;
  };
  EXPECT_LE(changed(biased.cleaned), changed(unbiased.cleaned));
  EXPECT_EQ(changed(biased.cleaned), 1u);
}

// Learned γ weights must stay on the probability scale: an uncontested γ
// keeps exactly its Eq. 4 prior, so FSCR products are comparable across
// blocks (the weight-calibration bug class).
TEST(RegressionTest, UncontestedWeightsEqualPriors) {
  Workload wl = *MakeHospitalWorkload({.num_hospitals = 10, .num_measures = 5});
  MlnIndex learned = *MlnIndex::Build(wl.clean, wl.rules);
  learned.LearnWeights();
  MlnIndex priors = *MlnIndex::Build(wl.clean, wl.rules);
  priors.AssignPriorWeights();
  // Clean data: every group has one γ, so learned == prior everywhere.
  for (size_t bi = 0; bi < learned.num_blocks(); ++bi) {
    const Block& lb = learned.block(bi);
    const Block& pb = priors.block(bi);
    for (size_t gi = 0; gi < lb.groups.size(); ++gi) {
      ASSERT_EQ(lb.groups[gi].pieces.size(), 1u);
      EXPECT_NEAR(lb.groups[gi].pieces[0].weight, pb.groups[gi].pieces[0].weight,
                  1e-9);
    }
  }
}

// End-to-end CSV workflow: dirty CSV in, clean CSV out.
TEST(RegressionTest, CsvRoundTripWorkflow) {
  std::string dir = ::testing::TempDir();
  std::string dirty_path = dir + "/mlnclean_dirty.csv";
  std::string clean_path = dir + "/mlnclean_clean.csv";

  Workload wl = *MakeHospitalWorkload({.num_hospitals = 8, .num_measures = 4});
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.seed = 99;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
  ASSERT_TRUE(WriteCsvFile(dd.dirty.ToCsv(), dirty_path).ok());

  Dataset loaded = *Dataset::FromCsvFile(dirty_path);
  ASSERT_EQ(loaded, dd.dirty);

  CleaningOptions options;
  options.agp_threshold = 2;
  auto result = CleaningEngine(options).Clean(loaded, wl.rules);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(WriteCsvFile(result->deduped.ToCsv(), clean_path).ok());

  Dataset reloaded = *Dataset::FromCsvFile(clean_path);
  EXPECT_EQ(reloaded, result->deduped);
  RepairMetrics m = EvaluateRepair(dd.dirty, result->cleaned, dd.truth);
  EXPECT_GT(m.F1(), 0.5);
}

// Options validation rejects every bad knob with Invalid, not a crash.
TEST(RegressionTest, OptionValidationCoverage) {
  Dataset d = *Dataset::Make(*Schema::Make({"A", "B"}), {{"x", "1"}});
  RuleSet rules(d.schema());
  rules.Add(*Constraint::MakeFd(d.schema(), {0}, {1}));

  CleaningOptions bad1;
  bad1.fscr_minimality_discount = 0.0;
  EXPECT_TRUE(CleaningEngine(bad1).Clean(d, rules).status().IsInvalid());

  CleaningOptions bad2;
  bad2.fscr_minimality_discount = 1.5;
  EXPECT_TRUE(CleaningEngine(bad2).Clean(d, rules).status().IsInvalid());

  CleaningOptions bad3;
  bad3.fscr_minimality_discount = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(CleaningEngine(bad3).Clean(d, rules).status().IsInvalid());
}

// The report summary renders without crashing and mentions every stage.
TEST(RegressionTest, ReportSummaryMentionsStages) {
  Workload wl = *MakeHospitalWorkload({.num_hospitals = 8, .num_measures = 4});
  ErrorSpec spec;
  spec.error_rate = 0.1;
  spec.seed = 3;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
  auto result = *CleaningEngine().Clean(dd.dirty, wl.rules);
  std::string summary = result.report.Summary();
  EXPECT_NE(summary.find("agp"), std::string::npos);
  EXPECT_NE(summary.find("rsc"), std::string::npos);
  EXPECT_NE(summary.find("fscr"), std::string::npos);
}

}  // namespace
}  // namespace mlnclean

#include "baseline/holoclean.h"

#include <gtest/gtest.h>

#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "eval/metrics.h"
#include "rules/violation.h"

namespace mlnclean {
namespace {

struct HaiFixture {
  Workload wl = *MakeHospitalWorkload({.num_hospitals = 30, .num_measures = 10});

  DirtyDataset Corrupt(double rate, double rret, uint64_t seed) const {
    ErrorSpec spec;
    spec.error_rate = rate;
    spec.replacement_ratio = rret;
    spec.seed = seed;
    return *InjectErrors(wl.clean, wl.rules, spec);
  }
};

TEST(HoloCleanTest, OracleRepairsReplacementErrorsOnDenseData) {
  HaiFixture f;
  DirtyDataset dd = f.Corrupt(0.05, 1.0, 11);  // replacements only
  HoloCleanBaseline baseline;
  auto result = baseline.CleanWithOracle(dd.dirty, f.wl.rules, dd.truth);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RepairMetrics m = EvaluateRepair(dd.dirty, result->cleaned, dd.truth);
  EXPECT_GT(m.F1(), 0.5) << "P=" << m.Precision() << " R=" << m.Recall();
  EXPECT_EQ(result->noisy_cells, dd.truth.NumErrors());
}

TEST(HoloCleanTest, OnlyNoisyCellsAreTouched) {
  HaiFixture f;
  DirtyDataset dd = f.Corrupt(0.05, 0.5, 12);
  HoloCleanBaseline baseline;
  auto result = baseline.CleanWithOracle(dd.dirty, f.wl.rules, dd.truth);
  ASSERT_TRUE(result.ok());
  for (TupleId t = 0; t < static_cast<TupleId>(dd.dirty.num_rows()); ++t) {
    for (AttrId a = 0; a < static_cast<AttrId>(dd.dirty.num_attrs()); ++a) {
      if (!dd.truth.IsErrorCell(t, a)) {
        EXPECT_EQ(result->cleaned.at(t, a), dd.dirty.at(t, a));
      }
    }
  }
}

TEST(HoloCleanTest, DetectorVariantBlindToReasonPartTypos) {
  // The Example 1 blind spot: a typo in a rule's reason part ("DOTH")
  // violates nothing, so a noisy mask detected from violations never
  // flags it and the repair stage cannot touch it.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  std::vector<std::vector<bool>> noisy(dirty.num_rows(),
                                       std::vector<bool>(dirty.num_attrs(), false));
  for (const Violation& v : FindAllViolations(dirty, rules)) {
    for (TupleId t : v.tuples) {
      for (AttrId a : v.attrs) noisy[t][static_cast<size_t>(a)] = true;
    }
  }
  HoloCleanBaseline baseline;
  auto result = baseline.Clean(dirty, rules, noisy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->noisy_cells, 0u);
  EXPECT_EQ(result->cleaned.at(1, 1), "DOTH");  // t2.CT stays broken
}

TEST(HoloCleanTest, MaskDimensionsValidated) {
  HaiFixture f;
  HoloCleanBaseline baseline;
  std::vector<std::vector<bool>> bad_mask(3);  // wrong row count
  EXPECT_FALSE(baseline.Clean(f.wl.clean, f.wl.rules, bad_mask).ok());
}

TEST(HoloCleanTest, TimingsPopulated) {
  HaiFixture f;
  DirtyDataset dd = f.Corrupt(0.05, 0.5, 15);
  HoloCleanBaseline baseline;
  auto result = baseline.CleanWithOracle(dd.dirty, f.wl.rules, dd.truth);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->total_seconds, 0.0);
  EXPECT_GE(result->learn_seconds, 0.0);
  EXPECT_GE(result->infer_seconds, 0.0);
}

TEST(HoloCleanTest, NoErrorsNothingRepaired) {
  HaiFixture f;
  GroundTruth truth(f.wl.clean.Clone(), {});
  HoloCleanBaseline baseline;
  auto result = baseline.CleanWithOracle(f.wl.clean, f.wl.rules, truth);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->noisy_cells, 0u);
  EXPECT_EQ(result->cleaned, f.wl.clean);
}

}  // namespace
}  // namespace mlnclean

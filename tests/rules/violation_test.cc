#include "rules/violation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/sample.h"
#include "rules/rule_parser.h"

namespace mlnclean {
namespace {

TEST(ViolationTest, SampleFdViolations) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  // r1 (CT -> ST): only the BOAZ group conflicts (t4 says AK, t5/t6 AL).
  auto violations = FindViolations(dirty, rules.rule(0), 0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].tuples, (std::vector<TupleId>{3, 4, 5}));
  EXPECT_EQ(violations[0].attrs, rules.rule(0).result_attrs());
}

TEST(ViolationTest, SampleDcViolations) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  // r2: PN 2567688400 appears with both AK and AL.
  auto violations = FindViolations(dirty, rules.rule(1), 1);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].tuples, (std::vector<TupleId>{3, 4, 5}));
}

TEST(ViolationTest, SampleCfdViolations) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  // r3: every tuple matching HN=ELIZA, CT=BOAZ already has the right PN.
  auto violations = FindViolations(dirty, rules.rule(2), 2);
  EXPECT_TRUE(violations.empty());
}

TEST(ViolationTest, CfdConstantMismatchDetected) {
  Schema s = *Schema::Make({"HN", "CT", "PN"});
  Dataset d = *Dataset::Make(s, {{"ELIZA", "BOAZ", "9999"}});
  Constraint cfd = *ParseRule(s, "CFD: HN=ELIZA, CT=BOAZ -> PN=2567688400");
  auto violations = FindViolations(d, cfd);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].tuples, (std::vector<TupleId>{0}));
}

TEST(ViolationTest, CfdVariableRhsDetectedPairwise) {
  Schema s = *Schema::Make({"Make", "Type", "Doors"});
  Constraint cfd = *ParseRule(s, "CFD: Make=acura, Type -> Doors");
  Dataset d = *Dataset::Make(s, {
                                    {"acura", "suv", "5"},
                                    {"acura", "suv", "3"},    // conflict
                                    {"toyota", "suv", "9"},   // out of scope
                                });
  auto violations = FindViolations(d, cfd);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].tuples, (std::vector<TupleId>{0, 1}));
}

TEST(ViolationTest, GeneralDcPairwiseScan) {
  Schema s = *Schema::Make({"Salary", "Tax"});
  // Higher salary must not pay lower tax.
  Constraint dc = *ParseRule(s, "DC: !(Salary(t1)>Salary(t2) & Tax(t1)<Tax(t2))");
  Dataset d = *Dataset::Make(s, {{"100", "10"}, {"200", "5"}, {"300", "30"}});
  auto violations = FindViolations(d, dc);
  // Exactly one ordered pair violates: t1 (200, 5) against t0 (100, 10).
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].tuples, (std::vector<TupleId>{1, 0}));
}

TEST(ViolationTest, CleanDataHasNoViolations) {
  Dataset clean = *SampleHospitalClean();
  RuleSet rules = *SampleHospitalRules();
  EXPECT_TRUE(FindAllViolations(clean, rules).empty());
}

TEST(ViolationTest, CellMaskMarksSuspects) {
  // The cells violations mark as suspects are their result cells only.
  // Example 1's blind spot for detection by violations: t2's "DOTH" typo
  // sits in r1's reason part, so it forms a new key and violates nothing,
  // and t4's violations (r1 and r2) manifest only on their result, ST.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  ASSERT_EQ(dirty.at(1, *dirty.schema().Find("CT")), "DOTH");
  const AttrId st = *dirty.schema().Find("ST");
  size_t t4_violations = 0;
  for (const Violation& v : FindAllViolations(dirty, rules)) {
    EXPECT_EQ(std::count(v.tuples.begin(), v.tuples.end(), TupleId{1}), 0)
        << "rule " << v.rule_index << " lists t2";
    if (std::count(v.tuples.begin(), v.tuples.end(), TupleId{3}) > 0) {
      ++t4_violations;
      EXPECT_EQ(v.attrs, std::vector<AttrId>{st}) << "rule " << v.rule_index;
    }
  }
  EXPECT_EQ(t4_violations, 2u);
}

TEST(ViolationTest, FindAllAggregatesRules) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  auto all = FindAllViolations(dirty, rules);
  EXPECT_EQ(all.size(), 2u);  // r1 + r2
}

}  // namespace
}  // namespace mlnclean

#include "mln/ground_rule.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datagen/sample.h"
#include "testing/hand_built.h"

namespace mlnclean {
namespace {

TEST(GroundRuleTest, Table3Reproduction) {
  // Table 3: grounding r1 (CT -> ST) over Table 1 yields exactly four
  // ground MLN rules.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  auto grounds = GroundConstraint(dirty, rules.rule(0));
  ASSERT_TRUE(grounds.ok()) << grounds.status().ToString();
  ASSERT_EQ(grounds->size(), 4u);
  std::vector<std::string> rendered;
  for (const auto& g : *grounds) {
    rendered.push_back(GroundClauseToString(dirty, rules.rule(0), g));
  }
  std::vector<std::string> expected = {
      "!CT(\"DOTHAN\") | ST(\"AL\")",
      "!CT(\"DOTH\") | ST(\"AL\")",
      "!CT(\"BOAZ\") | ST(\"AK\")",
      "!CT(\"BOAZ\") | ST(\"AL\")",
  };
  std::sort(rendered.begin(), rendered.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(rendered, expected);
}

TEST(GroundRuleTest, SupportCountsTable1) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  const Constraint& r1 = rules.rule(0);
  auto grounds = *GroundConstraint(dirty, r1);
  size_t total = 0;
  for (const auto& g : grounds) {
    total += g.support();
    if (testing::ReasonValues(g, dirty, r1) == std::vector<Value>{"DOTHAN"}) {
      EXPECT_EQ(g.tuples, (std::vector<TupleId>{0, 2}));  // t1, t3
    }
    if (testing::AllValues(g, dirty, r1) == std::vector<Value>{"BOAZ", "AL"}) {
      EXPECT_EQ(g.tuples, (std::vector<TupleId>{4, 5}));  // t5, t6
    }
  }
  EXPECT_EQ(total, dirty.num_rows());  // every tuple contributes one γ
}

TEST(GroundRuleTest, GroundRulesCarryDictionaryIds) {
  // Every γ holds one id per rule attribute, and each of its tuples' cells
  // holds exactly those ids.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const Constraint& rule = rules.rule(ri);
    auto grounds = GroundConstraint(dirty, rule);
    ASSERT_TRUE(grounds.ok()) << grounds.status().ToString();
    for (const auto& g : *grounds) {
      ASSERT_EQ(g.ids.size(), rule.attrs().size());
      for (TupleId tid : g.tuples) {
        for (size_t p = 0; p < g.ids.size(); ++p) {
          EXPECT_EQ(dirty.id_at(tid, rule.attrs()[p]), g.ids[p]);
        }
      }
    }
  }
}

TEST(GroundRuleTest, CfdScopeRestrictsGrounding) {
  // Block B3 of Figure 2: only the ELIZA tuples ground r3, yielding two
  // distinct γs.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  const Constraint& r3 = rules.rule(2);
  auto grounds = *GroundConstraint(dirty, r3);
  ASSERT_EQ(grounds.size(), 2u);
  EXPECT_EQ(testing::ReasonValues(grounds[0], dirty, r3), (std::vector<Value>{"ELIZA", "DOTHAN"}));
  EXPECT_EQ(grounds[0].tuples, (std::vector<TupleId>{2}));
  EXPECT_EQ(testing::ReasonValues(grounds[1], dirty, r3), (std::vector<Value>{"ELIZA", "BOAZ"}));
  EXPECT_EQ(grounds[1].tuples, (std::vector<TupleId>{3, 4, 5}));
}

TEST(GroundRuleTest, DcGroundsLikeItsFdForm) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  auto grounds = *GroundConstraint(dirty, rules.rule(1));
  // Distinct (PN, ST) pairs: (3347938701, AL), (2567638410, AL),
  // (2567688400, AK), (2567688400, AL).
  EXPECT_EQ(grounds.size(), 4u);
}

TEST(GroundRuleTest, GeneralDcRejected) {
  Schema s = *Schema::Make({"Salary", "Tax"});
  Dataset d = *Dataset::Make(s, {{"1", "2"}});
  Constraint dc =
      *Constraint::MakeDc(s, {{0, PredOp::kGt, 0}, {1, PredOp::kLt, 1}});
  auto r = GroundConstraint(d, dc);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST(GroundRuleTest, EmptyDatasetGroundsToNothing) {
  Schema s = *Schema::Make({"A", "B"});
  Dataset d(s);
  Constraint fd = *Constraint::MakeFd(s, {0}, {1});
  auto grounds = *GroundConstraint(d, fd);
  EXPECT_TRUE(grounds.empty());
}

}  // namespace
}  // namespace mlnclean

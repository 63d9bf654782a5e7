#include "index/weight_merge.h"

#include <gtest/gtest.h>

#include "datagen/sample.h"

namespace mlnclean {
namespace {

RuleSet CtStRules() {
  Schema s = *Schema::Make({"CT", "ST"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));
  return rules;
}

// One part: a dataset and the one-block index built over it.
struct Part {
  Dataset data;
  MlnIndex index;
};

// Builds a one-block index over the given rows with learned-looking
// weights assigned manually.
Part IndexOver(const std::vector<std::vector<Value>>& rows, double weight) {
  RuleSet rules = CtStRules();
  Part part{*Dataset::Make(rules.schema(), rows), MlnIndex()};
  part.index = *MlnIndex::Build(part.data, rules);
  for (auto& block : part.index.blocks()) {
    for (auto& group : block.groups) {
      for (auto& piece : group.pieces) piece.weight = weight;
    }
  }
  return part;
}

TEST(WeightMergeTest, Eq6SupportWeightedAverage) {
  // Part 1: γ {DOTHAN, AL} with 3 tuples, weight 0.9.
  // Part 2: the same γ with 1 tuple, weight 0.1.
  // Eq. 6: w = (3*0.9 + 1*0.1) / 4 = 0.7.
  RuleSet rules = CtStRules();
  Part part1 = IndexOver({{"DOTHAN", "AL"}, {"DOTHAN", "AL"}, {"DOTHAN", "AL"}},
                             0.9);
  Part part2 = IndexOver({{"DOTHAN", "AL"}}, 0.1);
  GlobalWeightTable table;
  table.Accumulate(part1.index, part1.data, rules);
  table.Accumulate(part2.index, part2.data, rules);
  auto w = table.Lookup(rules, 0, {"DOTHAN"}, {"AL"});
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(*w, 0.7, 1e-12);
}

TEST(WeightMergeTest, ApplyOverwritesLocalWeights) {
  RuleSet rules = CtStRules();
  Part part1 = IndexOver({{"DOTHAN", "AL"}, {"DOTHAN", "AL"}}, 0.8);
  Part part2 = IndexOver({{"DOTHAN", "AL"}, {"BOAZ", "AL"}}, 0.2);
  GlobalWeightTable table;
  table.Accumulate(part1.index, part1.data, rules);
  table.Accumulate(part2.index, part2.data, rules);
  table.Apply(&part2.index, part2.data, rules);
  // {DOTHAN, AL}: (2*0.8 + 1*0.2)/3 = 0.6.
  EXPECT_NEAR(part2.index.block(0).groups[0].pieces[0].weight, 0.6, 1e-12);
  // {BOAZ, AL} was seen only in part2: stays at its own average (0.2).
  EXPECT_NEAR(part2.index.block(0).groups[1].pieces[0].weight, 0.2, 1e-12);
}

TEST(WeightMergeTest, DistinctGammasDoNotMix) {
  RuleSet rules = CtStRules();
  Part part1 = IndexOver({{"DOTHAN", "AL"}}, 0.9);
  Part part2 = IndexOver({{"DOTHAN", "AK"}}, 0.1);  // different result
  GlobalWeightTable table;
  table.Accumulate(part1.index, part1.data, rules);
  table.Accumulate(part2.index, part2.data, rules);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_NEAR(*table.Lookup(rules, 0, {"DOTHAN"}, {"AL"}), 0.9, 1e-12);
  EXPECT_NEAR(*table.Lookup(rules, 0, {"DOTHAN"}, {"AK"}), 0.1, 1e-12);
}

TEST(WeightMergeTest, LookupMissIsNotFound) {
  RuleSet rules = CtStRules();
  GlobalWeightTable table;
  EXPECT_TRUE(table.Lookup(rules, 0, {"X"}, {"Y"}).status().IsNotFound());
}

TEST(WeightMergeTest, RuleIndexSeparatesBlocks) {
  // The same (reason, result) under different rules must not merge.
  Dataset d = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  MlnIndex index = *MlnIndex::Build(d, rules);
  index.AssignPriorWeights();
  GlobalWeightTable table;
  table.Accumulate(index, d, rules);
  // B1 has 4 γs, B2 has 4, B3 has 2: all distinct keys.
  EXPECT_EQ(table.size(), 10u);
}

TEST(WeightMergeTest, AccumulateFromPermutedInternOrderAgrees) {
  // γ identity lives in the table's own interners, not the datasets': two
  // indexes over datasets whose dictionaries assign different ids to the
  // same values still merge into the same γs.
  RuleSet rules = CtStRules();
  Part part1 = IndexOver({{"BOAZ", "AL"}, {"DOTHAN", "AL"}}, 0.9);
  Part part2 = IndexOver({{"DOTHAN", "AL"}, {"BOAZ", "AL"}}, 0.1);  // swapped
  GlobalWeightTable table;
  table.Accumulate(part1.index, part1.data, rules);
  table.Accumulate(part2.index, part2.data, rules);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_NEAR(*table.Lookup(rules, 0, {"DOTHAN"}, {"AL"}), 0.5, 1e-12);
  EXPECT_NEAR(*table.Lookup(rules, 0, {"BOAZ"}, {"AL"}), 0.5, 1e-12);
}

TEST(WeightMergeTest, SortedEntryVisitRoundTripsIds) {
  RuleSet rules = CtStRules();
  Part part = IndexOver({{"DOTHAN", "AL"}, {"BOAZ", "AL"}}, 0.4);
  GlobalWeightTable table;
  table.Accumulate(part.index, part.data, rules);
  GlobalWeightTable restored;
  std::vector<ValueDict> dicts(rules.schema().num_attrs());
  for (size_t a = 0; a < table.num_attr_dicts(); ++a) {
    const ValueDict& dict = table.attr_dict(a);
    for (ValueId id = 1; id < dict.size(); ++id) dicts[a].Intern(dict.value(id));
    dicts[a].RestoreNullRank(dict.null_rank());
  }
  restored.RestoreDicts(std::move(dicts));
  table.ForEachEntrySorted([&](const GlobalWeightTable::EntryView& entry) {
    ASSERT_TRUE(restored.RestoreEntry(rules, entry).ok());
  });
  EXPECT_EQ(restored.size(), table.size());
  EXPECT_NEAR(*restored.Lookup(rules, 0, {"DOTHAN"}, {"AL"}), 0.4, 1e-12);
  EXPECT_NEAR(*restored.Lookup(rules, 0, {"BOAZ"}, {"AL"}), 0.4, 1e-12);
}

TEST(WeightMergeTest, RestoreEntryRejectsOutOfRange) {
  RuleSet rules = CtStRules();
  GlobalWeightTable table;
  table.RestoreDicts(std::vector<ValueDict>(rules.schema().num_attrs()));
  GlobalWeightTable::EntryView entry;
  entry.rule_index = 7;  // no such rule
  EXPECT_TRUE(table.RestoreEntry(rules, entry).IsInvalid());
  entry.rule_index = 0;
  entry.ids = {5, 0};  // 5 is outside the (empty) dictionary
  EXPECT_TRUE(table.RestoreEntry(rules, entry).IsInvalid());
  entry.ids = {0};  // narrower than the rule
  EXPECT_TRUE(table.RestoreEntry(rules, entry).IsInvalid());
}

}  // namespace
}  // namespace mlnclean

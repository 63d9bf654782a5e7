#include "index/mln_index.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cleaning/agp.h"
#include "cleaning/rsc.h"
#include "datagen/sample.h"
#include "testing/hand_built.h"

namespace mlnclean {
namespace {

MlnIndex BuildSampleIndex() {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  return *MlnIndex::Build(dirty, rules);
}

// The sample table, its rules, and the ids of reason keys in its
// dictionaries.
struct Sample {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();

  // Block `block`'s reason key `values` as ids; a value the table lacks
  // gets kInvalidValueId, which no group holds.
  std::vector<ValueId> Key(size_t block, const std::vector<Value>& values) const {
    const std::vector<AttrId>& attrs = rules.rule(block).reason_attrs();
    std::vector<ValueId> ids;
    for (size_t i = 0; i < values.size(); ++i) ids.push_back(dirty.dict(attrs[i]).Find(values[i]));
    return ids;
  }

  // A group's key as values: its first γ's reason values.
  std::vector<Value> KeyValues(const MlnIndex& index, size_t block, size_t group) const {
    return testing::ReasonValues(index.block(block).groups[group].pieces.front(), dirty,
                                 rules.rule(block));
  }
};

TEST(MlnIndexTest, Figure2BlockAndGroupCounts) {
  // Figure 2: blocks B1, B2, B3 with 3, 3, 2 groups respectively.
  MlnIndex index = BuildSampleIndex();
  ASSERT_EQ(index.num_blocks(), 3u);
  EXPECT_EQ(index.block(0).groups.size(), 3u);
  EXPECT_EQ(index.block(1).groups.size(), 3u);
  EXPECT_EQ(index.block(2).groups.size(), 2u);
}

TEST(MlnIndexTest, Figure2GroupKeys) {
  Sample s;
  MlnIndex index = *MlnIndex::Build(s.dirty, s.rules);
  // B1 keyed by CT.
  EXPECT_EQ(s.KeyValues(index, 0, 0), (std::vector<Value>{"DOTHAN"}));
  EXPECT_EQ(s.KeyValues(index, 0, 1), (std::vector<Value>{"DOTH"}));
  EXPECT_EQ(s.KeyValues(index, 0, 2), (std::vector<Value>{"BOAZ"}));
  // B2 keyed by PN.
  EXPECT_EQ(s.KeyValues(index, 1, 0), (std::vector<Value>{"3347938701"}));
  // B3 keyed by (HN, CT).
  EXPECT_EQ(s.KeyValues(index, 2, 0), (std::vector<Value>{"ELIZA", "DOTHAN"}));
  EXPECT_EQ(s.KeyValues(index, 2, 1), (std::vector<Value>{"ELIZA", "BOAZ"}));
  // Every γ of a freshly built group shares the key.
  for (const Block& block : index.blocks()) {
    const Constraint& rule = s.rules.rule(block.rule_index);
    for (const Group& group : block.groups) {
      for (const Piece& piece : group.pieces) {
        EXPECT_EQ(testing::ReasonIds(piece, rule),
                  testing::ReasonIds(group.pieces.front(), rule));
      }
    }
  }
}

TEST(MlnIndexTest, Figure2GroupContents) {
  Sample s;
  MlnIndex index = *MlnIndex::Build(s.dirty, s.rules);
  const Constraint& r1 = s.rules.rule(0);
  // G13 (BOAZ) holds two γs: {BOAZ, AK} (t4) and {BOAZ, AL} (t5, t6).
  const Group& g13 = index.block(0).groups[2];
  ASSERT_EQ(g13.pieces.size(), 2u);
  EXPECT_EQ(testing::AllValues(g13.pieces[0], s.dirty, r1), (std::vector<Value>{"BOAZ", "AK"}));
  EXPECT_EQ(g13.pieces[0].tuples, (std::vector<TupleId>{3}));
  EXPECT_EQ(testing::AllValues(g13.pieces[1], s.dirty, r1), (std::vector<Value>{"BOAZ", "AL"}));
  EXPECT_EQ(g13.pieces[1].tuples, (std::vector<TupleId>{4, 5}));
  EXPECT_EQ(g13.TupleCount(), 3u);
  // γ* of G13 is the better-supported {BOAZ, AL}.
  EXPECT_EQ(testing::AllValues(g13.Star(), s.dirty, r1), (std::vector<Value>{"BOAZ", "AL"}));
}

TEST(MlnIndexTest, BlockCounters) {
  MlnIndex index = BuildSampleIndex();
  // B1: 4 distinct γs over 6 tuples (the M and Σc of Eq. 4).
  EXPECT_EQ(index.block(0).PieceCount(), 4u);
  EXPECT_EQ(index.block(0).TupleCount(), 6u);
  // B3 covers only the four ELIZA tuples.
  EXPECT_EQ(index.block(2).TupleCount(), 4u);
}

TEST(MlnIndexTest, FindGroup) {
  Sample s;
  MlnIndex index = *MlnIndex::Build(s.dirty, s.rules);
  auto idx = index.FindGroup(0, s.Key(0, {"BOAZ"}));
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2u);
  EXPECT_TRUE(index.FindGroup(0, s.Key(0, {"NOWHERE"})).status().IsNotFound());
}

TEST(MlnIndexTest, PriorWeightsMatchEq4) {
  // Section 5.1.2: {CT: BOAZ, ST: AK} in B1 gets prior weight 1/6.
  MlnIndex index = BuildSampleIndex();
  index.AssignPriorWeights();
  const Group& g13 = index.block(0).groups[2];
  EXPECT_DOUBLE_EQ(g13.pieces[0].weight, 1.0 / 6.0);  // {BOAZ, AK}
  EXPECT_DOUBLE_EQ(g13.pieces[1].weight, 2.0 / 6.0);  // {BOAZ, AL}
}

TEST(MlnIndexTest, LearnedWeightsOrderBySupportWithinGroup) {
  MlnIndex index = BuildSampleIndex();
  index.LearnWeights();
  const Group& g13 = index.block(0).groups[2];
  EXPECT_GT(g13.pieces[1].weight, g13.pieces[0].weight);  // AL beats AK
}

TEST(MlnIndexTest, FindGroupSeesMutationWithoutReindex) {
  Sample s;
  MlnIndex index = *MlnIndex::Build(s.dirty, s.rules);
  Block& b1 = index.block(0);
  // Merge group 1 (DOTH) into group 0 (DOTHAN) manually: lookups read the
  // groups as they are, so no reindex step follows.
  for (auto& piece : b1.groups[1].pieces) {
    b1.groups[0].pieces.push_back(std::move(piece));
  }
  b1.groups.erase(b1.groups.begin() + 1);
  EXPECT_TRUE(index.FindGroup(0, s.Key(0, {"DOTH"})).status().IsNotFound());
  EXPECT_EQ(*index.FindGroup(0, s.Key(0, {"BOAZ"})), 1u);
  // A duplicated key answers with its first group, as a first-wins map
  // would.
  b1.groups.push_back(b1.groups[0]);
  EXPECT_EQ(*index.FindGroup(0, s.Key(0, {"DOTHAN"})), 0u);
}

// Every group of every block is found at its own position (keys are
// unique in these indexes).
void ExpectEveryGroupFound(const MlnIndex& index, const RuleSet& rules) {
  for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
    const Constraint& rule = rules.rule(index.block(bi).rule_index);
    const std::vector<Group>& groups = index.block(bi).groups;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      const Result<size_t> found =
          index.FindGroup(bi, testing::ReasonIds(groups[gi].pieces.front(), rule));
      ASSERT_TRUE(found.ok()) << "block " << bi << " group " << gi;
      EXPECT_EQ(*found, gi) << "block " << bi;
    }
  }
}

TEST(MlnIndexTest, FindGroupAfterAgpRscAndFromBlocks) {
  Sample s;
  MlnIndex index = *MlnIndex::Build(s.dirty, s.rules);
  CleaningOptions options;
  options.agp_threshold = 1;
  RunAgpAll(&index, s.dirty, s.rules, options, nullptr);
  ExpectEveryGroupFound(index, s.rules);
  // G12 (DOTH) merged into G11; G13 moved up to position 1.
  EXPECT_TRUE(index.FindGroup(0, s.Key(0, {"DOTH"})).status().IsNotFound());
  EXPECT_EQ(*index.FindGroup(0, s.Key(0, {"BOAZ"})), 1u);

  index.LearnWeights();
  RunRscAll(&index, s.dirty, s.rules, MakeDistanceFn(options.distance), nullptr);
  // RSC leaves one γ per group, its winner, which keys the group.
  ExpectEveryGroupFound(index, s.rules);
  for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
    for (const Group& group : index.block(bi).groups) EXPECT_EQ(group.pieces.size(), 1u);
  }

  const MlnIndex rebuilt = MlnIndex::FromBlocks(index.blocks());
  ExpectEveryGroupFound(rebuilt, s.rules);
  EXPECT_TRUE(rebuilt.FindGroup(2, s.Key(2, {"NOWHERE", "AT ALL"})).status().IsNotFound());
}

TEST(MlnIndexTest, AppendRowsOnFromBlocksBaseEqualsColdBuild) {
  // The snapshot path: a base reassembled from decoded blocks has no
  // lookup state of its own, and appending to it must still land every γ
  // where a cold build over all rows puts it.
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  const MlnIndex cold = *MlnIndex::Build(dirty, rules);
  for (size_t cut = 0; cut <= dirty.num_rows(); ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    const MlnIndex prefix = *MlnIndex::Build(dirty.Slice(0, cut), rules);
    MlnIndex base = MlnIndex::FromBlocks(prefix.blocks());
    ASSERT_TRUE(base.AppendRows(dirty, rules, cut).ok());
    ASSERT_EQ(base.num_blocks(), cold.num_blocks());
    for (size_t bi = 0; bi < cold.num_blocks(); ++bi) {
      const std::vector<Group>& got = base.block(bi).groups;
      const std::vector<Group>& want = cold.block(bi).groups;
      ASSERT_EQ(got.size(), want.size()) << "block " << bi;
      for (size_t gi = 0; gi < want.size(); ++gi) {
        ASSERT_EQ(got[gi].pieces.size(), want[gi].pieces.size());
        for (size_t pi = 0; pi < want[gi].pieces.size(); ++pi) {
          const Piece& g = got[gi].pieces[pi];
          const Piece& w = want[gi].pieces[pi];
          EXPECT_EQ(g.tuples, w.tuples);
          EXPECT_EQ(g.ids, w.ids);
        }
      }
    }
    ExpectEveryGroupFound(base, rules);
  }
}

TEST(MlnIndexTest, ConcurrentFindGroupOnConstIndex) {
  // A served model's snapshot index is shared read-only by every session:
  // FindGroup must not write anything (TSan checks this suite).
  Sample s;
  MlnIndex built = *MlnIndex::Build(s.dirty, s.rules);
  CleaningOptions options;
  options.agp_threshold = 1;
  RunAgpAll(&built, s.dirty, s.rules, options, nullptr);
  const MlnIndex& index = built;
  std::vector<std::thread> threads;
  std::vector<size_t> found(4, 0);
  for (size_t t = 0; t < found.size(); ++t) {
    threads.emplace_back([&index, &s, &found, t] {
      for (int round = 0; round < 200; ++round) {
        for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
          for (const Group& group : index.block(bi).groups) {
            const Constraint& rule = s.rules.rule(index.block(bi).rule_index);
            if (index.FindGroup(bi, testing::ReasonIds(group.pieces.front(), rule)).ok()) {
              ++found[t];
            }
          }
          if (index.FindGroup(bi, {kInvalidValueId}).ok()) --found[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t count : found) EXPECT_EQ(count, 200u * 5u);  // 2 + 2 + 1 groups
}

TEST(MlnIndexTest, ValidateRejectsSwappedTupleLists) {
  // G13 (BOAZ) holds {BOAZ, AK} (t4) and {BOAZ, AL} (t5, t6). With their
  // tuple lists swapped, every id still names a value of the table's
  // dictionaries and every list is sorted and in bounds, but t5's ST cell
  // is AL, not AK: the index does not describe this table.
  Sample s;
  MlnIndex index = *MlnIndex::Build(s.dirty, s.rules);
  ASSERT_TRUE(index.Validate(s.dirty, s.rules).ok());
  Group& g13 = index.block(0).groups[2];
  ASSERT_EQ(g13.pieces.size(), 2u);
  std::swap(g13.pieces[0].tuples, g13.pieces[1].tuples);
  const Status status = index.Validate(s.dirty, s.rules);
  EXPECT_TRUE(status.IsInvalid()) << status.ToString();
}

TEST(MlnIndexTest, GeneralDcRejectedAtBuild) {
  Schema s = *Schema::Make({"Salary", "Tax"});
  Dataset d = *Dataset::Make(s, {{"1", "2"}});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeDc(s, {{0, PredOp::kGt, 0}, {1, PredOp::kLt, 1}}));
  auto r = MlnIndex::Build(d, rules);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST(MlnIndexTest, SchemaMismatchRejectedAtBuild) {
  // A dataset narrower than the rules' schema: grounding would read
  // columns the dataset does not have.
  Schema narrow = *Schema::Make({"HN", "CT"});
  Dataset d = *Dataset::Make(narrow, {{"ALABAMA", "DOTHAN"}});
  RuleSet rules = *SampleHospitalRules();
  auto r = MlnIndex::Build(d, rules);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid()) << r.status().ToString();

  // AppendRows has the same guard.
  MlnIndex index = BuildSampleIndex();
  EXPECT_TRUE(index.AppendRows(d, rules, 0).IsInvalid());
}

TEST(MlnIndexTest, EmptyRuleSetYieldsEmptyIndex) {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules(dirty.schema());
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  EXPECT_EQ(index.num_blocks(), 0u);
}

}  // namespace
}  // namespace mlnclean

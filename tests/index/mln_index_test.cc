#include "index/mln_index.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "cleaning/agp.h"
#include "cleaning/rsc.h"
#include "datagen/sample.h"

namespace mlnclean {
namespace {

MlnIndex BuildSampleIndex() {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  return *MlnIndex::Build(dirty, rules);
}

TEST(MlnIndexTest, Figure2BlockAndGroupCounts) {
  // Figure 2: blocks B1, B2, B3 with 3, 3, 2 groups respectively.
  MlnIndex index = BuildSampleIndex();
  ASSERT_EQ(index.num_blocks(), 3u);
  EXPECT_EQ(index.block(0).groups.size(), 3u);
  EXPECT_EQ(index.block(1).groups.size(), 3u);
  EXPECT_EQ(index.block(2).groups.size(), 2u);
}

TEST(MlnIndexTest, Figure2GroupKeys) {
  MlnIndex index = BuildSampleIndex();
  // B1 keyed by CT.
  EXPECT_EQ(index.block(0).groups[0].key, (std::vector<Value>{"DOTHAN"}));
  EXPECT_EQ(index.block(0).groups[1].key, (std::vector<Value>{"DOTH"}));
  EXPECT_EQ(index.block(0).groups[2].key, (std::vector<Value>{"BOAZ"}));
  // B2 keyed by PN.
  EXPECT_EQ(index.block(1).groups[0].key, (std::vector<Value>{"3347938701"}));
  // B3 keyed by (HN, CT).
  EXPECT_EQ(index.block(2).groups[0].key,
            (std::vector<Value>{"ELIZA", "DOTHAN"}));
  EXPECT_EQ(index.block(2).groups[1].key, (std::vector<Value>{"ELIZA", "BOAZ"}));
}

TEST(MlnIndexTest, Figure2GroupContents) {
  MlnIndex index = BuildSampleIndex();
  // G13 (BOAZ) holds two γs: {BOAZ, AK} (t4) and {BOAZ, AL} (t5, t6).
  const Group& g13 = index.block(0).groups[2];
  ASSERT_EQ(g13.pieces.size(), 2u);
  EXPECT_EQ(g13.pieces[0].result, (std::vector<Value>{"AK"}));
  EXPECT_EQ(g13.pieces[0].tuples, (std::vector<TupleId>{3}));
  EXPECT_EQ(g13.pieces[1].result, (std::vector<Value>{"AL"}));
  EXPECT_EQ(g13.pieces[1].tuples, (std::vector<TupleId>{4, 5}));
  EXPECT_EQ(g13.TupleCount(), 3u);
  // γ* of G13 is the better-supported {BOAZ, AL}.
  EXPECT_EQ(g13.Star().result, (std::vector<Value>{"AL"}));
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
  MlnIndex index = BuildSampleIndex();
  auto idx = index.FindGroup(0, {"BOAZ"});
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 2u);
  EXPECT_TRUE(index.FindGroup(0, {"NOWHERE"}).status().IsNotFound());
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
  MlnIndex index = BuildSampleIndex();
  Block& b1 = index.block(0);
  // Merge group 1 (DOTH) into group 0 (DOTHAN) manually: lookups read the
  // groups as they are, so no reindex step follows.
  for (auto& piece : b1.groups[1].pieces) {
    b1.groups[0].pieces.push_back(std::move(piece));
  }
  b1.groups.erase(b1.groups.begin() + 1);
  EXPECT_TRUE(index.FindGroup(0, {"DOTH"}).status().IsNotFound());
  EXPECT_EQ(*index.FindGroup(0, {"BOAZ"}), 1u);
  // A duplicated key answers with its first group, as a first-wins map
  // would.
  b1.groups.push_back(b1.groups[0]);
  EXPECT_EQ(*index.FindGroup(0, {"DOTHAN"}), 0u);
}

// Every group of every block is found at its own position (keys are
// unique in these indexes).
void ExpectEveryGroupFound(const MlnIndex& index) {
  for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
    const std::vector<Group>& groups = index.block(bi).groups;
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      const Result<size_t> found = index.FindGroup(bi, groups[gi].key);
      ASSERT_TRUE(found.ok()) << "block " << bi << " group " << gi;
      EXPECT_EQ(*found, gi) << "block " << bi;
    }
  }
}

TEST(MlnIndexTest, FindGroupAfterAgpRscAndFromBlocks) {
  MlnIndex index = BuildSampleIndex();
  CleaningOptions options;
  options.agp_threshold = 1;
  RunAgpAll(&index, options, nullptr);
  ExpectEveryGroupFound(index);
  // G12 (DOTH) merged into G11; G13 moved up to position 1.
  EXPECT_TRUE(index.FindGroup(0, {"DOTH"}).status().IsNotFound());
  EXPECT_EQ(*index.FindGroup(0, {"BOAZ"}), 1u);

  index.LearnWeights();
  RunRscAll(&index, MakeDistanceFn(options.distance), nullptr);
  ExpectEveryGroupFound(index);
  // RSC rekeys each group by its winner's reason values.
  for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
    for (const Group& group : index.block(bi).groups) {
      EXPECT_EQ(group.key, group.pieces.front().reason);
    }
  }

  const MlnIndex rebuilt = MlnIndex::FromBlocks(index.blocks());
  ExpectEveryGroupFound(rebuilt);
  EXPECT_TRUE(rebuilt.FindGroup(2, {"NOWHERE", "AT ALL"}).status().IsNotFound());
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
        EXPECT_EQ(got[gi].key, want[gi].key);
        ASSERT_EQ(got[gi].pieces.size(), want[gi].pieces.size());
        for (size_t pi = 0; pi < want[gi].pieces.size(); ++pi) {
          const Piece& g = got[gi].pieces[pi];
          const Piece& w = want[gi].pieces[pi];
          EXPECT_EQ(g.reason, w.reason);
          EXPECT_EQ(g.result, w.result);
          EXPECT_EQ(g.tuples, w.tuples);
          EXPECT_EQ(g.reason_ids, w.reason_ids);
          EXPECT_EQ(g.result_ids, w.result_ids);
        }
      }
    }
    ExpectEveryGroupFound(base);
  }
}

TEST(MlnIndexTest, ConcurrentFindGroupOnConstIndex) {
  // A served model's snapshot index is shared read-only by every session:
  // FindGroup must not write anything (TSan checks this suite).
  MlnIndex built = BuildSampleIndex();
  CleaningOptions options;
  options.agp_threshold = 1;
  RunAgpAll(&built, options, nullptr);
  const MlnIndex& index = built;
  std::vector<std::thread> threads;
  std::vector<size_t> found(4, 0);
  for (size_t t = 0; t < found.size(); ++t) {
    threads.emplace_back([&index, &found, t] {
      for (int round = 0; round < 200; ++round) {
        for (size_t bi = 0; bi < index.num_blocks(); ++bi) {
          for (const Group& group : index.block(bi).groups) {
            if (index.FindGroup(bi, group.key).ok()) ++found[t];
          }
          if (index.FindGroup(bi, {"NOWHERE"}).ok()) --found[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t count : found) EXPECT_EQ(count, 200u * 5u);  // 2 + 2 + 1 groups
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

#include "cleaning/dedup.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>

namespace mlnclean {
namespace {

TEST(DedupTest, RemovesExactDuplicates) {
  Schema s = *Schema::Make({"A", "B"});
  Dataset d = *Dataset::Make(
      s, {{"x", "1"}, {"y", "2"}, {"x", "1"}, {"x", "1"}, {"z", "3"}});
  std::vector<std::pair<TupleId, TupleId>> removed;
  Dataset out = RemoveDuplicates(d, &removed);
  EXPECT_EQ(out.num_rows(), 3u);
  EXPECT_EQ(out.row(0), (std::vector<Value>{"x", "1"}));
  EXPECT_EQ(out.row(1), (std::vector<Value>{"y", "2"}));
  EXPECT_EQ(out.row(2), (std::vector<Value>{"z", "3"}));
  ASSERT_EQ(removed.size(), 2u);
  EXPECT_EQ(removed[0], (std::pair<TupleId, TupleId>{2, 0}));
  EXPECT_EQ(removed[1], (std::pair<TupleId, TupleId>{3, 0}));
}

TEST(DedupTest, NoDuplicatesNoChange) {
  Schema s = *Schema::Make({"A"});
  Dataset d = *Dataset::Make(s, {{"x"}, {"y"}});
  std::vector<std::pair<TupleId, TupleId>> removed;
  Dataset out = RemoveDuplicates(d, &removed);
  EXPECT_EQ(out, d);
  EXPECT_TRUE(removed.empty());
}

TEST(DedupTest, EmptyDataset) {
  Schema s = *Schema::Make({"A"});
  Dataset d(s);
  Dataset out = RemoveDuplicates(d, nullptr);
  EXPECT_EQ(out.num_rows(), 0u);
}

TEST(DedupTest, ValuesDifferingOnlyInOneAttrAreKept) {
  Schema s = *Schema::Make({"A", "B"});
  Dataset d = *Dataset::Make(s, {{"x", "1"}, {"x", "2"}});
  Dataset out = RemoveDuplicates(d, nullptr);
  EXPECT_EQ(out.num_rows(), 2u);
}

TEST(DedupTest, SeparatorInjectionDoesNotConfuseKeys) {
  // Values containing the internal separator must not collide.
  Schema s = *Schema::Make({"A", "B"});
  Dataset d = *Dataset::Make(s, {{"x\x1fy", "z"}, {"x", "\x1fy z"}});
  Dataset out = RemoveDuplicates(d, nullptr);
  // These two rows are different; a naive concatenation would merge them.
  EXPECT_EQ(out.num_rows(), 2u);
}

// Brute-force reference: a row is kept iff no earlier row has equal cells,
// and a removed row is paired with the first such row.
struct ReferenceDedup {
  std::vector<TupleId> kept;
  std::vector<std::pair<TupleId, TupleId>> removed;
};

ReferenceDedup BruteForceDedup(const Dataset& data) {
  ReferenceDedup ref;
  for (TupleId t = 0; t < static_cast<TupleId>(data.num_rows()); ++t) {
    TupleId first = -1;
    for (TupleId prev = 0; prev < t && first < 0; ++prev) {
      if (data.row(prev) == data.row(t)) first = prev;
    }
    if (first < 0) {
      ref.kept.push_back(t);
    } else {
      ref.removed.emplace_back(t, first);
    }
  }
  return ref;
}

TEST(DedupOracleTest, RandomTablesMatchBruteForce) {
  for (uint32_t seed = 0; seed < 60; ++seed) {
    std::mt19937 rng(seed);
    const size_t attrs = 1 + rng() % 6;
    const size_t domain = 1 + rng() % 4;
    const size_t rows = rng() % 401;
    std::vector<std::string> names;
    for (size_t a = 0; a < attrs; ++a) names.push_back("A" + std::to_string(a));
    std::vector<std::vector<Value>> cells(rows, std::vector<Value>(attrs));
    for (auto& row : cells) {
      for (auto& cell : row) cell = "v" + std::to_string(rng() % domain);
    }
    Dataset d = *Dataset::Make(*Schema::Make(names), cells);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", " + std::to_string(attrs) +
                 " attrs, domain " + std::to_string(domain) + ", " +
                 std::to_string(rows) + " rows");

    const ReferenceDedup ref = BruteForceDedup(d);
    std::vector<std::pair<TupleId, TupleId>> removed;
    Dataset out = RemoveDuplicates(d, &removed);
    ASSERT_EQ(out.num_rows(), ref.kept.size());
    for (size_t i = 0; i < ref.kept.size(); ++i) {
      for (AttrId a = 0; a < static_cast<AttrId>(attrs); ++a) {
        ASSERT_EQ(out.at(static_cast<TupleId>(i), a), d.at(ref.kept[i], a));
        // Survivors are copied by id into a copy of the input's dictionaries.
        ASSERT_EQ(out.id_at(static_cast<TupleId>(i), a), d.id_at(ref.kept[i], a));
      }
    }
    EXPECT_EQ(removed, ref.removed);
  }
}

TEST(DedupOracleTest, StoppedContextReturnsWithoutCrashing) {
  Schema s = *Schema::Make({"A", "B"});
  Dataset d = *Dataset::Make(s, {{"x", "1"}, {"x", "1"}, {"y", "2"}});
  std::atomic<bool> cancel{true};
  ExecContext ctx;
  ctx.cancel = &cancel;
  std::vector<std::pair<TupleId, TupleId>> removed;
  Dataset out = RemoveDuplicates(d, &removed, ctx);
  // The first stop check comes before row 0: nothing is kept or paired.
  EXPECT_EQ(out.num_rows(), 0u);
  EXPECT_TRUE(out.schema() == d.schema());
  EXPECT_TRUE(removed.empty());
}

}  // namespace
}  // namespace mlnclean

#include "index/piece.h"

#include <gtest/gtest.h>

#include "testing/hand_built.h"

namespace mlnclean {
namespace {

using testing::MakePiece;

// γs of CT -> ST over an empty dataset whose dictionaries the tests fill.
struct CtSt {
  Schema schema = *Schema::Make({"HN", "CT", "ST", "PN"});
  Dataset data{schema};
  Constraint rule = *Constraint::MakeFd(schema, {1}, {2});

  Piece Make(const Value& ct, const Value& st, std::vector<TupleId> tuples) {
    return MakePiece(&data, rule, {ct}, {st}, std::move(tuples));
  }
};

TEST(PieceTest, AllValuesConcatenatesReasonThenResult) {
  CtSt f;
  Piece p = f.Make("BOAZ", "AL", {4, 5});
  EXPECT_EQ(testing::AllValues(p, f.data, f.rule), (std::vector<Value>{"BOAZ", "AL"}));
  EXPECT_EQ(testing::ReasonValues(p, f.data, f.rule), (std::vector<Value>{"BOAZ"}));
  EXPECT_EQ(p.support(), 2u);
}

TEST(PieceTest, ToStringRendering) {
  CtSt f;
  Piece p = f.Make("BOAZ", "AL", {4});
  EXPECT_EQ(p.ToString(f.data, f.rule), "{CT: BOAZ, ST: AL}");
}

TEST(PieceDistanceTest, SumsAttributeWiseDistances) {
  CtSt f;
  auto lev = MakeDistanceFn(DistanceMetric::kLevenshtein);
  Piece a = f.Make("DOTH", "AL", {1});
  Piece b = f.Make("DOTHAN", "AL", {0, 2});
  EXPECT_DOUBLE_EQ(PieceDistance(a, b, f.data, f.rule, lev), 2.0);  // DOTH->DOTHAN only
  Piece c = f.Make("BOAZ", "AK", {3});
  // lev(DOTHAN, BOAZ) = 4 plus lev(AL, AK) = 1.
  EXPECT_DOUBLE_EQ(PieceDistance(b, c, f.data, f.rule, lev), 5.0);
}

TEST(PieceDistanceTest, IdFastPathMatchesStringDistance) {
  CtSt f;
  auto lev = MakeDistanceFn(DistanceMetric::kLevenshtein);
  // Equal ids skip the kernel, yet the total is the sum of the kernel
  // over every position's strings.
  Piece a = f.Make("DOTH", "AL", {1});
  Piece b = f.Make("DOTHAN", "AL", {0, 2});
  ASSERT_EQ(a.ids[1], b.ids[1]);  // the same ST id
  EXPECT_DOUBLE_EQ(PieceDistance(a, b, f.data, f.rule, lev),
                   lev("DOTH", "DOTHAN") + lev("AL", "AL"));
}

TEST(PieceDistanceTest, Example2Distances) {
  // Figure 3: γ1 = {BOAZ, AL}, γ2 = {BOAZ, AK}: distance 1 (AL vs AK).
  CtSt f;
  auto lev = MakeDistanceFn(DistanceMetric::kLevenshtein);
  Piece g1 = f.Make("BOAZ", "AL", {4, 5});
  Piece g2 = f.Make("BOAZ", "AK", {3});
  EXPECT_DOUBLE_EQ(PieceDistance(g1, g2, f.data, f.rule, lev), 1.0);
  EXPECT_DOUBLE_EQ(PieceDistance(g1, g1, f.data, f.rule, lev), 0.0);
  EXPECT_DOUBLE_EQ(PieceDistance(g1, g2, f.data, f.rule, lev),
                   PieceDistance(g2, g1, f.data, f.rule, lev));
}

}  // namespace
}  // namespace mlnclean

#include "index/piece.h"

#include <gtest/gtest.h>

namespace mlnclean {
namespace {

TEST(PieceTest, AllValuesConcatenatesReasonThenResult) {
  Piece p{{"BOAZ"}, {"AL"}, {4, 5}, 0.0};
  EXPECT_EQ(p.AllValues(), (std::vector<Value>{"BOAZ", "AL"}));
  EXPECT_EQ(p.support(), 2u);
}

TEST(PieceTest, ToStringRendering) {
  Schema s = *Schema::Make({"HN", "CT", "ST", "PN"});
  Piece p{{"BOAZ"}, {"AL"}, {4}, 0.0};
  EXPECT_EQ(p.ToString(s, {1}, {2}), "{CT: BOAZ, ST: AL}");
}

TEST(PieceDistanceTest, SumsAttributeWiseDistances) {
  auto lev = MakeDistanceFn(DistanceMetric::kLevenshtein);
  Piece a{{"DOTH"}, {"AL"}, {1}, 0.0};
  Piece b{{"DOTHAN"}, {"AL"}, {0, 2}, 0.0};
  EXPECT_DOUBLE_EQ(PieceDistance(a, b, lev), 2.0);  // DOTH->DOTHAN only
  Piece c{{"BOAZ"}, {"AK"}, {3}, 0.0};
  // lev(DOTHAN, BOAZ) = 4 plus lev(AL, AK) = 1.
  EXPECT_DOUBLE_EQ(PieceDistance(b, c, lev), 5.0);
}

TEST(PieceDistanceTest, IdFastPathMatchesStringDistance) {
  auto lev = MakeDistanceFn(DistanceMetric::kLevenshtein);
  // Same values, ids attached (as grounding produces): equal ids skip the
  // kernel but the total must match the string-only computation.
  Piece a{{"DOTH"}, {"AL"}, {1}, 0.0, {1}, {5}};
  Piece b{{"DOTHAN"}, {"AL"}, {0, 2}, 0.0, {2}, {5}};
  EXPECT_DOUBLE_EQ(PieceDistance(a, b, lev), 2.0);
  EXPECT_DOUBLE_EQ(PieceDistanceBounded(a, b, lev, 100.0), 2.0);
  // Bounded abandon still returns >= bound.
  EXPECT_GE(PieceDistanceBounded(a, b, lev, 1.0), 1.0);
}

TEST(PieceDistanceTest, Example2Distances) {
  // Figure 3: γ1 = {BOAZ, AL}, γ2 = {BOAZ, AK}: distance 1 (AL vs AK).
  auto lev = MakeDistanceFn(DistanceMetric::kLevenshtein);
  Piece g1{{"BOAZ"}, {"AL"}, {4, 5}, 0.0};
  Piece g2{{"BOAZ"}, {"AK"}, {3}, 0.0};
  EXPECT_DOUBLE_EQ(PieceDistance(g1, g2, lev), 1.0);
  EXPECT_DOUBLE_EQ(PieceDistance(g1, g1, lev), 0.0);
  EXPECT_DOUBLE_EQ(PieceDistance(g1, g2, lev), PieceDistance(g2, g1, lev));
}

}  // namespace
}  // namespace mlnclean

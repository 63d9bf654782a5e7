// Full structural equality of two MlnIndexes: blocks, groups and γs in
// order, ids, tuple lists and weights bit for bit. The index half of the
// bit-identity contracts (1 vs N threads, incremental == cold, save∘load
// == id).

#ifndef MLNCLEAN_TESTS_TESTING_SAME_INDEX_H_
#define MLNCLEAN_TESTS_TESTING_SAME_INDEX_H_

#include <gtest/gtest.h>

#include "index/mln_index.h"

namespace mlnclean {
namespace testing {

inline void ExpectSameIndex(const MlnIndex& a, const MlnIndex& b) {
  ASSERT_EQ(a.num_blocks(), b.num_blocks());
  for (size_t bi = 0; bi < a.num_blocks(); ++bi) {
    const Block& ba = a.block(bi);
    const Block& bb = b.block(bi);
    EXPECT_EQ(ba.rule_index, bb.rule_index);
    ASSERT_EQ(ba.groups.size(), bb.groups.size()) << "block " << bi;
    for (size_t gi = 0; gi < ba.groups.size(); ++gi) {
      const Group& ga = ba.groups[gi];
      const Group& gb = bb.groups[gi];
      ASSERT_EQ(ga.pieces.size(), gb.pieces.size())
          << "block " << bi << " group " << gi;
      for (size_t pi = 0; pi < ga.pieces.size(); ++pi) {
        const Piece& pa = ga.pieces[pi];
        const Piece& pb = gb.pieces[pi];
        EXPECT_EQ(pa.tuples, pb.tuples);
        EXPECT_EQ(pa.ids, pb.ids);
        EXPECT_EQ(pa.weight, pb.weight);
      }
    }
  }
}

}  // namespace testing
}  // namespace mlnclean

#endif  // MLNCLEAN_TESTS_TESTING_SAME_INDEX_H_

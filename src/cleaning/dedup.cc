#include "cleaning/dedup.h"

#include <cstdint>
#include <vector>

namespace mlnclean {

Dataset RemoveDuplicates(const Dataset& data,
                         std::vector<std::pair<TupleId, TupleId>>* removed,
                         const ExecContext& ctx) {
  // Within one dataset, rows are equal iff their id rows are equal, so
  // duplicate detection never touches value bytes. Each distinct row has
  // one slot (its hash and first tid) in a flat open-addressing table of
  // at least 2n slots, probed linearly; equal hashes are confirmed id by
  // id. Survivors are gathered column by column at the end.
  const size_t n = data.num_rows();
  size_t capacity = 1;
  while (capacity < 2 * n) capacity <<= 1;
  struct Slot {
    uint64_t hash;
    TupleId first;  // -1 = empty
  };
  std::vector<Slot> table(capacity, Slot{0, -1});
  const size_t mask = capacity - 1;
  std::vector<TupleId> kept;
  kept.reserve(n);
  for (TupleId tid = 0; tid < static_cast<TupleId>(n); ++tid) {
    // Stop checks are batched: a clock read per row would dominate the
    // hash probe the row actually pays for.
    if ((tid & 0x3ff) == 0 && ctx.Stopped()) return data.Gather(kept);
    const uint64_t hash = HashRowIds(data, tid);
    size_t i = hash & mask;
    while (table[i].first >= 0 &&
           !(table[i].hash == hash && SameRowIds(data, table[i].first, tid))) {
      i = (i + 1) & mask;
    }
    if (table[i].first < 0) {
      table[i] = Slot{hash, tid};
      kept.push_back(tid);
    } else if (removed != nullptr) {
      removed->emplace_back(tid, table[i].first);
    }
  }
  return data.Gather(kept);
}

}  // namespace mlnclean

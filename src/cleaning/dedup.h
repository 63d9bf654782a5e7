// Duplicate elimination (Section 5.2, final step): after FSCR has unified
// the clean versions, tuples that became exact copies of one another refer
// to the same real-world entity and all but one representative are removed.
//
// Rows are compared by dictionary id. Each distinct row takes one slot
// (row hash, first tid) of a flat open-addressing table sized once to a
// power of two >= 2n and probed linearly; a hash match is confirmed id by
// id. The survivors are then gathered column by column (Dataset::Gather),
// so the pass allocates a fixed handful of buffers, not one per row.

#ifndef MLNCLEAN_CLEANING_DEDUP_H_
#define MLNCLEAN_CLEANING_DEDUP_H_

#include <utility>
#include <vector>

#include "common/executor.h"
#include "dataset/dataset.h"

namespace mlnclean {

/// Returns `data` with exact duplicate rows removed (first occurrence
/// kept). Appends one (removed, kept) pair per dropped tuple to `removed`
/// when non-null. The hash pass is inherently sequential (survivorship
/// depends on every earlier row), so `ctx` contributes stop checks
/// only: when `ctx` is stopped the partial
/// result is returned and the caller reports the terminal Status.
Dataset RemoveDuplicates(const Dataset& data,
                         std::vector<std::pair<TupleId, TupleId>>* removed,
                         const ExecContext& ctx = {});

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_DEDUP_H_

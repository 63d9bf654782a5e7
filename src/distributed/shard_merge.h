// The shard shipping/merging protocol shared by the distributed driver
// (distributed_pipeline.cc) and the serving fleet (src/fleet/): materialize
// dictionary-bearing shards from a global table, and copy cleaned shard
// rows back into the global rows they own with the id-remap merge.
//
// The id contract, in one place: a shard is built with
// Dataset::EmptyLike(source) + AppendRowFrom, so it ships with a copy of
// the source's dictionaries — every id below the shipped dictionary size
// means the same value in the shard, in its siblings, and in the global
// table. Cleaning may intern repaired values *on top* of the shipped
// dictionaries; those ids are shard-local and are re-interned globally by
// value at merge time. Capturing the shipped sizes *before* merging any
// shard (not the global dictionary sizes mid-merge, which grow as shards
// intern) is what makes the merge order-independent per cell and the
// whole gather deterministic in shard order.

#ifndef MLNCLEAN_DISTRIBUTED_SHARD_MERGE_H_
#define MLNCLEAN_DISTRIBUTED_SHARD_MERGE_H_

#include <vector>

#include "dataset/dataset.h"

namespace mlnclean {

/// Per-attribute dictionary sizes of `source` — the shipped-size watermark
/// the merge remaps against. Capture once, before any shard merges back.
std::vector<size_t> ShippedDictSizes(const Dataset& source);

/// Builds one sub-dataset per group: EmptyLike(source) + AppendRowFrom for
/// every tuple id in the group, in group order. Each shard carries a copy
/// of the global dictionaries, so shard ids stay aligned with the source.
std::vector<Dataset> MaterializeShards(
    const Dataset& source, const std::vector<std::vector<TupleId>>& groups);

/// Copies shard row `local` (for every local row) into global row
/// `mapping[local]` of `*global`: ids below the shipped watermark pass
/// through untouched, anything the shard interned on top is re-interned
/// globally by value. Sequential by design — re-interning mutates the
/// global dictionaries — so callers merge shards one at a time, in
/// deterministic shard order.
void MergeShardRows(const Dataset& shard_clean,
                    const std::vector<TupleId>& mapping,
                    const std::vector<size_t>& shipped_sizes, Dataset* global);

}  // namespace mlnclean

#endif  // MLNCLEAN_DISTRIBUTED_SHARD_MERGE_H_

// The Section 6 cross-shard protocol, shared by the distributed driver
// (distributed_pipeline.cc) and the serving fleet (src/fleet/): ship
// dictionary-bearing shards from a global table, run them as staged
// server legs through the Eq. 6 weight merge, and copy the cleaned shard
// rows back into the global rows they own with the id-remap merge.
//
// The dataflow, in one place (RunShardProtocol):
//
//   per leg:     RunUntil(kLearn)                  (submitter's SubmitStaged)
//   barrier:     CleanModel::AdjustWeightsAcross   (Eq. 6, skipped at 1 leg)
//   per leg:     RunUntil(kFscr)                   (ResumeJob)
//   reassembly:  id-remap merge in leg order, then global dedup
//
// The id contract: a shard is built with Dataset::Gather on the source,
// so it ships with a copy of the source's dictionaries —
// every id below the shipped dictionary size means the same value in the
// shard, in its siblings, and in the global table. Cleaning may intern
// repaired values *on top* of the shipped dictionaries; those ids are
// shard-local and are re-interned globally by value at merge time.
// Capturing the shipped sizes *before* merging any shard (not the global
// dictionary sizes mid-merge, which grow as shards intern) is what makes
// the merge order-independent per cell and the whole gather
// deterministic in shard order.

#ifndef MLNCLEAN_DISTRIBUTED_SHARD_MERGE_H_
#define MLNCLEAN_DISTRIBUTED_SHARD_MERGE_H_

#include <vector>

#include "cleaning/server.h"
#include "dataset/dataset.h"

namespace mlnclean {

/// Per-attribute dictionary sizes of `source` — the shipped-size watermark
/// the merge remaps against. Capture once, before any shard merges back.
std::vector<size_t> ShippedDictSizes(const Dataset& source);

/// Builds one sub-dataset per group: source.Gather(group), the group's
/// tuples in group order. Each shard carries a copy
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

/// What one protocol run produces.
struct ShardProtocolResult {
  /// Reassembled output: `cleaned` is row-aligned with the input,
  /// `deduped` is its global duplicate elimination, and `report` holds
  /// the legs' spliced traces (tuple ids rewritten to input rows) when
  /// requested.
  CleanResult result;
  /// γs in the Eq. 6 global weight table; 0 when fewer than two legs ran
  /// (merging one session is the identity, so the merge is skipped).
  size_t global_weights = 0;
};

/// Runs the protocol over `legs`: staged tickets submitted with
/// SubmitStaged(shard, Stage::kLearn, Stage::kFscr), all with
/// `model`'s server, where leg i's shard row `local` came from input row
/// `mappings[i][local]`. `assembled` is a Clone() of the input (the
/// shards' dictionary universe) and becomes the merge target.
/// `collect_report` splices the legs' traces into the result.
///
/// Blocks the calling thread, which must not be one of the servers'
/// executor workers. Legs run server-side; the Eq. 6 merge skips at one
/// leg (bit-identity with a plain server), and zero legs yield the empty
/// `assembled` back. A failing leg cancels its siblings through their
/// shared CancelToken, every leg reaches a terminal state, and the first
/// failure is returned.
Result<ShardProtocolResult> RunShardProtocol(
    const CleanModel& model, std::vector<CleanTicket>* legs,
    const std::vector<std::vector<TupleId>>& mappings, Dataset assembled,
    bool collect_report);

/// Error-path teardown for a submitter whose fan-out failed part-way:
/// cancels every leg, nudges parked legs through a throwaway resume so
/// they reach a terminal state (and release their session), and waits
/// them out. Blocking the aborting caller briefly beats leaking parked
/// sessions for the server's lifetime.
void AbortShardLegs(std::vector<CleanTicket>* legs);

}  // namespace mlnclean

#endif  // MLNCLEAN_DISTRIBUTED_SHARD_MERGE_H_

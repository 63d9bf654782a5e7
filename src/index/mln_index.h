// The MLN index (Section 4, Figure 2): a two-layer hash table. The first
// layer has one Block per MLN rule; the second layer divides each block
// into Groups of γs sharing the same reason-part values. Cleaning within a
// block never consults data outside it, which is what shrinks the search
// space of the two-stage cleaner.

#ifndef MLNCLEAN_INDEX_MLN_INDEX_H_
#define MLNCLEAN_INDEX_MLN_INDEX_H_

#include <vector>

#include "common/executor.h"
#include "common/result.h"
#include "index/piece.h"
#include "rules/constraint.h"

namespace mlnclean {

/// Second-layer entry: γs sharing one reason key. The key is the first
/// γ's reason ids: Build creates a group from its first γ, AGP appends
/// merged-in γs (whose own reason values may differ) at the back, and RSC
/// puts its winner at the front and leaves exactly one γ.
struct Group {
  std::vector<Piece> pieces;

  /// Total number of tuples across all γs (the AGP size criterion).
  size_t TupleCount() const;

  /// γ*: the piece related to the most tuples (ties: first built).
  const Piece& Star() const;
  Piece& Star();
};

/// First-layer entry: all groups of one rule.
struct Block {
  size_t rule_index = 0;
  std::vector<Group> groups;

  /// Sum of γ supports in the whole block (the Eq. 4 denominator).
  size_t TupleCount() const;
  /// Number of distinct γs in the block (the M of Eq. 4).
  size_t PieceCount() const;
};

/// The two-layer index over a dataset and rule set.
class MlnIndex {
 public:
  /// Builds the index: one block per rule, groups keyed by reason values
  /// (lines 1-13 of Algorithm 1). A build is AppendRows from row 0 into
  /// one empty block per rule, so grounding and grouping have one
  /// implementation. Fails on rules the index cannot host (general DCs)
  /// and, with Invalid, on a dataset whose schema is not the rule set's.
  /// When `ctx` is stopped (cancelled or past its deadline), Build returns
  /// Status::Cancelled (or DeadlineExceeded) instead of a half-built index.
  static Result<MlnIndex> Build(const Dataset& data, const RuleSet& rules,
                                const ExecContext& ctx = {});

  /// Extends a pre-AGP index in place with the grounding of rows
  /// [first_row, data.num_rows()) — the incremental-append path and the
  /// body of Build. Only the new rows are ground, and only groups whose
  /// reason bindings gained members are touched: an existing γ gains tuple
  /// ids, a new binding becomes a new γ at the end of its group, and a new
  /// reason key becomes a new group at the end of the block — exactly the
  /// first-appearance positions a cold Build over the whole dataset would
  /// produce, so the appended index is bit-identical to that cold build.
  /// A group is found by its first γ's reason ids (the first
  /// reason_attrs().size() ids); the γs of one range grounding are
  /// distinct, so an equal γ is looked for only in groups that predate the
  /// call. `data` must be the same dataset the index was built over plus
  /// the appended rows (same dictionaries; Append only grows them, so
  /// existing ids are stable). Rules ground in parallel on `ctx`'s
  /// executor; the result is identical for any executor or worker cap.
  /// Weights of touched γs are stale
  /// after an append; callers re-run the learn stage downstream. When
  /// `ctx` is stopped mid-append the index is left partially appended —
  /// callers must treat it as unusable (sessions go terminal).
  Status AppendRows(const Dataset& data, const RuleSet& rules,
                    size_t first_row, const ExecContext& ctx = {});

  /// Checks that this index is a plausible pre-AGP index over `data` and
  /// `rules`: block/rule alignment, per-γ arity, ids inside the dataset's
  /// dictionaries, one reason binding per group, in-bounds strictly
  /// increasing tuple lists, and every supporting tuple's cells holding
  /// its γ's ids (an index over another dataset fails this). The
  /// cross-process resume path runs this on a snapshot-loaded index
  /// before serving from it.
  Status Validate(const Dataset& data, const RuleSet& rules) const;

  /// Reassembles an index from externally decoded blocks (the snapshot
  /// loader).
  static MlnIndex FromBlocks(std::vector<Block> blocks);

  size_t num_blocks() const { return blocks_.size(); }
  const Block& block(size_t i) const { return blocks_[i]; }
  Block& block(size_t i) { return blocks_[i]; }
  const std::vector<Block>& blocks() const { return blocks_; }
  std::vector<Block>& blocks() { return blocks_; }

  /// Looks up the first group of the block whose key (its first γ's
  /// reason ids) is `key`, the whole reason part of the block's rule;
  /// NotFound if absent or merged away. A scan of the block's groups: it
  /// reads the groups as they are, whatever mutated them, and never
  /// writes, so concurrent calls on a shared const index are safe.
  Result<size_t> FindGroup(size_t block_index,
                           const std::vector<ValueId>& key) const;

  /// Learns MLN weights for every γ of every block: Eq. 4 priors refined
  /// by an exact Newton solve per reason-key group (mln/weight_learner.h)
  /// over the current (post-AGP) grouping. Blocks are learned in parallel
  /// on `ctx`'s executor (deterministic: each block's problem is
  /// independent and computed identically).
  /// When `ctx` is stopped, blocks not yet learned are skipped
  /// (cooperative cancellation; the caller reports the terminal Status).
  /// Returns the number of groups whose solve stopped at the step cap
  /// unconverged (expected 0).
  size_t LearnWeights(const ExecContext& ctx = {});

  /// Learns weights for a single block; returns its capped group count.
  static size_t LearnBlockWeights(Block* block);

  /// Sets every γ weight to its Eq. 4 prior (no Newton refinement); the
  /// ablation counterpart of LearnWeights.
  void AssignPriorWeights();

 private:
  std::vector<Block> blocks_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_INDEX_MLN_INDEX_H_

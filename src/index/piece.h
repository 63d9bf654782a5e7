// Piece of data (γ, Section 4): the attribute values of one tuple with
// respect to one rule — reason-part values plus result-part values —
// together with the set of tuples exhibiting exactly those values.
//
// Grounded pieces carry their values twice: as strings (for reports and
// cross-shard weight merging) and as the source dataset's dictionary ids.
// The stage-I distance scans compare ids first — equal ids are distance 0
// without touching value bytes.

#ifndef MLNCLEAN_INDEX_PIECE_H_
#define MLNCLEAN_INDEX_PIECE_H_

#include <string>
#include <vector>

#include "common/distance.h"
#include "dataset/dataset.h"

namespace mlnclean {

/// A γ: one distinct (reason, result) binding inside a block, its
/// supporting tuples, and its learned MLN weight. `reason_ids`/
/// `result_ids` mirror the value vectors as dictionary ids of the dataset
/// the γ was grounded over (empty on hand-built pieces, in which case the
/// distance paths fall back to plain string comparison).
struct Piece {
  std::vector<Value> reason;
  std::vector<Value> result;
  std::vector<TupleId> tuples;
  double weight = 0.0;
  std::vector<ValueId> reason_ids;
  std::vector<ValueId> result_ids;

  /// Tuple support c(γ) (Eq. 4).
  size_t support() const { return tuples.size(); }

  /// True when the id mirrors are populated for every value.
  bool has_ids() const {
    return reason_ids.size() == reason.size() && result_ids.size() == result.size();
  }

  /// All values, reason part first (the unit RSC compares and replaces).
  std::vector<Value> AllValues() const;

  /// Debug rendering, e.g. `{CT: DOTHAN, ST: AL}`.
  std::string ToString(const Schema& schema, const std::vector<AttrId>& reason_attrs,
                       const std::vector<AttrId>& result_attrs) const;
};

/// Distance between two γs: the sum of attribute-wise distances over
/// reason and result values (both γs must come from the same rule, so the
/// attribute lists align). Positions with equal dictionary ids cost an
/// integer compare, not a kernel call.
double PieceDistance(const Piece& a, const Piece& b, const DistanceFn& dist);

}  // namespace mlnclean

#endif  // MLNCLEAN_INDEX_PIECE_H_

// Piece of data (γ, Section 4): the attribute values of one tuple with
// respect to one rule — reason-part values plus result-part values —
// together with the set of tuples exhibiting exactly those values.
//
// A γ holds its values only as dictionary ids of the dataset its index
// was built over, one id per attribute of its rule in the rule's order
// (Constraint::attrs(): the reason attributes, then the result
// attributes); its reason part is the first reason_attrs().size() ids.
// Every γ has its rule's full arity. The strings live once, in that
// dataset's dictionaries (whose storage keeps `value(id)` references
// stable as they grow); code that needs bytes reads them through the
// dataset and the rule (ResolveIds in cleaning/report.h). Within one
// attribute's dictionary, id equality is value equality, so the distance
// scans compare ids first.

#ifndef MLNCLEAN_INDEX_PIECE_H_
#define MLNCLEAN_INDEX_PIECE_H_

#include <string>
#include <vector>

#include "common/distance.h"
#include "dataset/dataset.h"
#include "rules/constraint.h"

namespace mlnclean {

/// A γ: one distinct binding of its rule's attributes inside a block, its
/// supporting tuples, and its learned MLN weight.
struct Piece {
  std::vector<ValueId> ids;  // in rule.attrs() order
  std::vector<TupleId> tuples;
  double weight = 0.0;

  /// Tuple support c(γ) (Eq. 4).
  size_t support() const { return tuples.size(); }

  /// Debug rendering, e.g. `{CT: DOTHAN, ST: AL}`.
  std::string ToString(const Dataset& data, const Constraint& rule) const;
};

/// Distance between two γs of `rule`'s block: the sum of attribute-wise
/// distances over their values, read from `data`'s dictionaries and
/// folded left in position order. Positions with equal ids cost an
/// integer compare, not a kernel call.
double PieceDistance(const Piece& a, const Piece& b, const Dataset& data,
                     const Constraint& rule, const DistanceFn& dist);

}  // namespace mlnclean

#endif  // MLNCLEAN_INDEX_PIECE_H_

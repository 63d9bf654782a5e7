// Hand-built γs for tests. A γ holds only dictionary ids, so a test that
// builds one by hand interns its values into a small dataset's
// dictionaries (Dataset::InternValue) and reads them back through it
// (`AllValues`, `ReasonValues`).

#ifndef MLNCLEAN_TESTS_TESTING_HAND_BUILT_H_
#define MLNCLEAN_TESTS_TESTING_HAND_BUILT_H_

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "cleaning/report.h"
#include "dataset/dataset.h"
#include "index/piece.h"
#include "rules/constraint.h"

namespace mlnclean {
namespace testing {

/// A γ of `rule` with the given values, interned into `data`'s
/// dictionaries (values it does not hold yet are added). `reason` and
/// `result` must have the rule's reason and result arities: every γ has
/// its rule's full arity.
inline Piece MakePiece(Dataset* data, const Constraint& rule, const std::vector<Value>& reason,
                       const std::vector<Value>& result, std::vector<TupleId> tuples,
                       double weight = 0.0) {
  Piece piece;
  if (reason.size() != rule.reason_attrs().size() ||
      result.size() != rule.result_attrs().size()) {
    ADD_FAILURE() << "MakePiece: the values do not have the rule's arity";
    return piece;
  }
  std::vector<Value> values = reason;
  values.insert(values.end(), result.begin(), result.end());
  for (size_t p = 0; p < values.size(); ++p) {
    piece.ids.push_back(data->InternValue(rule.attrs()[p], values[p]));
  }
  piece.tuples = std::move(tuples);
  piece.weight = weight;
  return piece;
}

/// The reason part of `piece`: its first rule.reason_attrs().size() ids.
inline std::vector<ValueId> ReasonIds(const Piece& piece, const Constraint& rule) {
  return {piece.ids.begin(), piece.ids.begin() + rule.reason_attrs().size()};
}

/// The values of `piece`, reason part first, read through `data`'s
/// dictionaries (ResolveIds).
inline std::vector<Value> AllValues(const Piece& piece, const Dataset& data,
                                    const Constraint& rule) {
  return ResolveIds(piece.ids, data, rule);
}

/// The values of `piece`'s reason part.
inline std::vector<Value> ReasonValues(const Piece& piece, const Dataset& data,
                                       const Constraint& rule) {
  return ResolveIds(ReasonIds(piece, rule), data, rule);
}

}  // namespace testing
}  // namespace mlnclean

#endif  // MLNCLEAN_TESTS_TESTING_HAND_BUILT_H_

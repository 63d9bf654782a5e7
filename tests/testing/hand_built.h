// Hand-built γs for tests. A γ holds only dictionary ids, so a test that
// builds one by hand interns its values into a small dataset's
// dictionaries (Dataset::InternValue) and reads them back through it.

#ifndef MLNCLEAN_TESTS_TESTING_HAND_BUILT_H_
#define MLNCLEAN_TESTS_TESTING_HAND_BUILT_H_

#include <utility>
#include <vector>

#include "dataset/dataset.h"
#include "index/piece.h"
#include "rules/constraint.h"

namespace mlnclean {
namespace testing {

/// A γ of `rule` with the given values, interned into `data`'s
/// dictionaries (values it does not hold yet are added). `reason` and
/// `result` may be narrower than the rule.
inline Piece MakePiece(Dataset* data, const Constraint& rule, const std::vector<Value>& reason,
                       const std::vector<Value>& result, std::vector<TupleId> tuples,
                       double weight = 0.0) {
  auto intern = [data](const std::vector<AttrId>& attrs, const std::vector<Value>& values) {
    std::vector<ValueId> ids;
    for (size_t i = 0; i < values.size(); ++i) ids.push_back(data->InternValue(attrs[i], values[i]));
    return ids;
  };
  Piece piece;
  piece.reason_ids = intern(rule.reason_attrs(), reason);
  piece.result_ids = intern(rule.result_attrs(), result);
  piece.tuples = std::move(tuples);
  piece.weight = weight;
  return piece;
}

}  // namespace testing
}  // namespace mlnclean

#endif  // MLNCLEAN_TESTS_TESTING_HAND_BUILT_H_

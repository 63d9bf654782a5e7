#include "mln/ground_rule.h"

#include <algorithm>

namespace mlnclean {

namespace {

size_t NextPowerOfTwo(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

Result<std::vector<Piece>> GroundConstraint(const Dataset& data,
                                            const Constraint& rule) {
  return GroundConstraintRange(data, rule, 0,
                               static_cast<TupleId>(data.num_rows()));
}

Result<std::vector<Piece>> GroundConstraintRange(const Dataset& data,
                                                 const Constraint& rule,
                                                 TupleId first, TupleId end) {
  if (!rule.IndexCompatible()) {
    return Status::Invalid(
        "rule '" + rule.name() +
        "' is not index-compatible: DC reason predicates must be same-attribute "
        "equalities and the result predicate a same-attribute disequality");
  }
  if (first < 0 || end < first || static_cast<size_t>(end) > data.num_rows()) {
    return Status::Invalid("grounding range [" + std::to_string(first) + ", " +
                           std::to_string(end) + ") is out of bounds for " +
                           std::to_string(data.num_rows()) + " rows");
  }
  const auto& reason_attrs = rule.reason_attrs();
  const auto& result_attrs = rule.result_attrs();
  const size_t n_reason = reason_attrs.size();
  const size_t arity = n_reason + result_attrs.size();
  // Column pointers in binding order (reason attrs then result attrs).
  std::vector<const ValueId*> cols;
  cols.reserve(arity);
  for (AttrId a : reason_attrs) cols.push_back(data.column(a).data());
  for (AttrId a : result_attrs) cols.push_back(data.column(a).data());

  const ScopeFilter scope = rule.MakeScopeFilter(data);

  std::vector<Piece> out;
  // Flat open-addressing binding table: slots hold (hash, γ index + 1);
  // matches are confirmed against the stored γ's id vectors. Sized for the
  // worst case (every tuple a distinct binding) so it never rehashes.
  const size_t cap =
      NextPowerOfTwo(static_cast<size_t>(end - first) * 2 + 1);
  const size_t mask = cap - 1;
  std::vector<uint64_t> slot_hash(cap);
  std::vector<uint32_t> slot_idx(cap, 0);

  std::vector<ValueId> ids(arity);
  for (TupleId tid = first; tid < end; ++tid) {
    if (!scope.InScope(tid)) continue;
    for (size_t p = 0; p < arity; ++p) ids[p] = cols[p][tid];
    const uint64_t h = HashValueIds(ids);
    size_t i = h & mask;
    while (true) {
      if (slot_idx[i] == 0) {
        // First sight of this binding: a new γ.
        slot_hash[i] = h;
        slot_idx[i] = static_cast<uint32_t>(out.size()) + 1;
        Piece g;
        g.reason_ids.assign(ids.begin(), ids.begin() + n_reason);
        g.result_ids.assign(ids.begin() + n_reason, ids.end());
        g.tuples.push_back(tid);
        out.push_back(std::move(g));
        break;
      }
      if (slot_hash[i] == h) {
        Piece& g = out[slot_idx[i] - 1];
        if (std::equal(ids.begin(), ids.begin() + n_reason, g.reason_ids.begin()) &&
            std::equal(ids.begin() + n_reason, ids.end(), g.result_ids.begin())) {
          g.tuples.push_back(tid);
          break;
        }
      }
      i = (i + 1) & mask;
    }
  }
  return out;
}

std::string GroundClauseToString(const Dataset& data, const Constraint& rule,
                                 const Piece& ground) {
  std::string out;
  auto append = [&out](bool negated, const std::string& pred, const Value& constant) {
    if (!out.empty()) out += " | ";
    if (negated) out += "!";
    out += pred + "(\"" + constant + "\")";
  };
  const auto& reason_attrs = rule.reason_attrs();
  for (size_t i = 0; i < reason_attrs.size(); ++i) {
    append(true, data.schema().name(reason_attrs[i]),
           data.dict(reason_attrs[i]).value(ground.reason_ids[i]));
  }
  const auto& result_attrs = rule.result_attrs();
  for (size_t i = 0; i < result_attrs.size(); ++i) {
    append(false, data.schema().name(result_attrs[i]),
           data.dict(result_attrs[i]).value(ground.result_ids[i]));
  }
  return out;
}

}  // namespace mlnclean

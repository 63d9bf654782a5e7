#include "mln/ground_rule.h"

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
  const std::vector<AttrId>& attrs = rule.attrs();
  const size_t arity = attrs.size();
  // Column pointers in binding order (reason attrs then result attrs).
  std::vector<const ValueId*> cols;
  cols.reserve(arity);
  for (AttrId a : attrs) cols.push_back(data.column(a).data());

  const ScopeFilter scope = rule.MakeScopeFilter(data);

  std::vector<Piece> out;
  // Flat open-addressing binding table: slots hold (hash, γ index + 1);
  // matches are confirmed against the stored γ's id tuple. Sized for the
  // worst case (every tuple a distinct binding) so it never rehashes.
  const size_t cap =
      NextPowerOfTwo(static_cast<size_t>(end - first) * 2 + 1);
  const size_t mask = cap - 1;
  std::vector<uint64_t> slot_hash(cap);
  std::vector<uint32_t> slot_idx(cap, 0);

  // Pass 1 finds each in-scope tuple's γ (index + 1; 0 = out of scope)
  // and counts its support; pass 2 fills each γ's tuple list, sized once.
  std::vector<uint32_t> gamma_of(static_cast<size_t>(end - first), 0);
  std::vector<uint32_t> support;
  std::vector<ValueId> ids(arity);
  for (TupleId tid = first; tid < end; ++tid) {
    if (!scope.InScope(tid)) continue;
    for (size_t p = 0; p < arity; ++p) ids[p] = cols[p][tid];
    const uint64_t h = HashValueIds(ids);
    size_t i = h & mask;
    while (slot_idx[i] != 0 &&
           (slot_hash[i] != h || out[slot_idx[i] - 1].ids != ids)) {
      i = (i + 1) & mask;
    }
    if (slot_idx[i] == 0) {
      // First sight of this binding: a new γ.
      slot_hash[i] = h;
      slot_idx[i] = static_cast<uint32_t>(out.size()) + 1;
      out.push_back(Piece{ids, {}});
      support.push_back(0);
    }
    ++support[slot_idx[i] - 1];
    gamma_of[static_cast<size_t>(tid - first)] = slot_idx[i];
  }
  for (size_t g = 0; g < out.size(); ++g) out[g].tuples.reserve(support[g]);
  for (TupleId tid = first; tid < end; ++tid) {
    const uint32_t g = gamma_of[static_cast<size_t>(tid - first)];
    if (g != 0) out[g - 1].tuples.push_back(tid);
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
  const std::vector<AttrId>& attrs = rule.attrs();
  const size_t n_reason = rule.reason_attrs().size();
  for (size_t p = 0; p < attrs.size(); ++p) {
    append(p < n_reason, data.schema().name(attrs[p]),
           data.dict(attrs[p]).value(ground.ids[p]));
  }
  return out;
}

}  // namespace mlnclean

#include "index/piece.h"

#include <algorithm>

namespace mlnclean {

std::vector<Value> Piece::AllValues() const {
  std::vector<Value> out = reason;
  out.insert(out.end(), result.begin(), result.end());
  return out;
}

std::string Piece::ToString(const Schema& schema,
                            const std::vector<AttrId>& reason_attrs,
                            const std::vector<AttrId>& result_attrs) const {
  std::string out = "{";
  bool first = true;
  auto append = [&](const std::vector<AttrId>& attrs, const std::vector<Value>& vals) {
    for (size_t i = 0; i < attrs.size() && i < vals.size(); ++i) {
      if (!first) out += ", ";
      first = false;
      out += schema.name(attrs[i]) + ": " + vals[i];
    }
  };
  append(reason_attrs, reason);
  append(result_attrs, result);
  out += "}";
  return out;
}

namespace {

// Attribute-wise accumulation. `kUseIds` callers guarantee both γs carry
// complete id mirrors.
template <bool kUseIds>
double Accumulate(const Piece& a, const Piece& b, const DistanceFn& dist) {
  double total = 0.0;
  const size_t nr = std::min(a.reason.size(), b.reason.size());
  for (size_t i = 0; i < nr; ++i) {
    if (kUseIds) {
      if (a.reason_ids[i] == b.reason_ids[i]) continue;
    }
    total += dist(a.reason[i], b.reason[i]);
  }
  const size_t ns = std::min(a.result.size(), b.result.size());
  for (size_t i = 0; i < ns; ++i) {
    if (kUseIds) {
      if (a.result_ids[i] == b.result_ids[i]) continue;
    }
    total += dist(a.result[i], b.result[i]);
  }
  return total;
}

}  // namespace

double PieceDistance(const Piece& a, const Piece& b, const DistanceFn& dist) {
  if (a.has_ids() && b.has_ids()) return Accumulate<true>(a, b, dist);
  return Accumulate<false>(a, b, dist);
}

}  // namespace mlnclean

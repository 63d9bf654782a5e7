#include "index/piece.h"

namespace mlnclean {

std::string Piece::ToString(const Dataset& data, const Constraint& rule) const {
  const std::vector<AttrId>& attrs = rule.attrs();
  std::string out = "{";
  for (size_t p = 0; p < ids.size(); ++p) {
    if (p > 0) out += ", ";
    out += data.schema().name(attrs[p]) + ": " + data.dict(attrs[p]).value(ids[p]);
  }
  out += "}";
  return out;
}

double PieceDistance(const Piece& a, const Piece& b, const Dataset& data,
                     const Constraint& rule, const DistanceFn& dist) {
  // One term at a time: the fold AGP's bounded scan reproduces.
  const std::vector<AttrId>& attrs = rule.attrs();
  double total = 0.0;
  for (size_t p = 0; p < attrs.size(); ++p) {
    if (a.ids[p] == b.ids[p]) continue;
    const ValueDict& dict = data.dict(attrs[p]);
    total += dist(dict.value(a.ids[p]), dict.value(b.ids[p]));
  }
  return total;
}

}  // namespace mlnclean

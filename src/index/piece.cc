#include "index/piece.h"

namespace mlnclean {

namespace {

// The values of the first `n` ids, read through their attributes'
// dictionaries.
std::vector<Value> ValuesOf(const Piece& piece, const Dataset& data, const Constraint& rule,
                            size_t n) {
  const std::vector<AttrId>& attrs = rule.attrs();
  std::vector<Value> out;
  out.reserve(n);
  for (size_t p = 0; p < n; ++p) out.push_back(data.dict(attrs[p]).value(piece.ids[p]));
  return out;
}

}  // namespace

std::vector<Value> Piece::ReasonValues(const Dataset& data, const Constraint& rule) const {
  return ValuesOf(*this, data, rule, rule.reason_attrs().size());
}

std::vector<Value> Piece::AllValues(const Dataset& data, const Constraint& rule) const {
  return ValuesOf(*this, data, rule, ids.size());
}

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

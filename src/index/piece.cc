#include "index/piece.h"

#include <algorithm>

namespace mlnclean {

namespace {

// Appends the values of `ids` read through `attrs`' dictionaries.
void AppendValues(const Dataset& data, const std::vector<AttrId>& attrs,
                  const std::vector<ValueId>& ids, std::vector<Value>* out) {
  const size_t n = std::min(attrs.size(), ids.size());
  for (size_t i = 0; i < n; ++i) out->push_back(data.dict(attrs[i]).value(ids[i]));
}

// Adds one side's (reason or result) attribute-wise distances to *total,
// one term at a time: the fold AGP's bounded scan reproduces.
void AddSideDistance(const Dataset& data, const std::vector<AttrId>& attrs,
                     const std::vector<ValueId>& a, const std::vector<ValueId>& b,
                     const DistanceFn& dist, double* total) {
  const size_t n = std::min({attrs.size(), a.size(), b.size()});
  for (size_t i = 0; i < n; ++i) {
    if (a[i] == b[i]) continue;
    const ValueDict& dict = data.dict(attrs[i]);
    *total += dist(dict.value(a[i]), dict.value(b[i]));
  }
}

}  // namespace

std::vector<Value> Piece::ReasonValues(const Dataset& data, const Constraint& rule) const {
  std::vector<Value> out;
  out.reserve(reason_ids.size());
  AppendValues(data, rule.reason_attrs(), reason_ids, &out);
  return out;
}

std::vector<Value> Piece::AllValues(const Dataset& data, const Constraint& rule) const {
  std::vector<Value> out;
  out.reserve(reason_ids.size() + result_ids.size());
  AppendValues(data, rule.reason_attrs(), reason_ids, &out);
  AppendValues(data, rule.result_attrs(), result_ids, &out);
  return out;
}

std::string Piece::ToString(const Dataset& data, const Constraint& rule) const {
  std::string out = "{";
  bool first = true;
  auto append = [&](const std::vector<AttrId>& attrs, const std::vector<ValueId>& ids) {
    for (size_t i = 0; i < attrs.size() && i < ids.size(); ++i) {
      if (!first) out += ", ";
      first = false;
      out += data.schema().name(attrs[i]) + ": " + data.dict(attrs[i]).value(ids[i]);
    }
  };
  append(rule.reason_attrs(), reason_ids);
  append(rule.result_attrs(), result_ids);
  out += "}";
  return out;
}

double PieceDistance(const Piece& a, const Piece& b, const Dataset& data,
                     const Constraint& rule, const DistanceFn& dist) {
  double total = 0.0;
  AddSideDistance(data, rule.reason_attrs(), a.reason_ids, b.reason_ids, dist, &total);
  AddSideDistance(data, rule.result_attrs(), a.result_ids, b.result_ids, dist, &total);
  return total;
}

}  // namespace mlnclean

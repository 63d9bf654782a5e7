#include "index/weight_merge.h"

#include <algorithm>
#include <cstring>

namespace mlnclean {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char bytes[4];
  std::memcpy(bytes, &v, 4);
  out->append(bytes, 4);
}

uint32_t ReadU32(const std::string& s, size_t pos) {
  uint32_t v = 0;
  std::memcpy(&v, s.data() + pos, 4);
  return v;
}

}  // namespace

void GlobalWeightTable::PackKey(size_t rule_index, const std::vector<ValueId>& ids,
                                std::string* key) {
  key->clear();
  key->reserve(4 * (ids.size() + 1));
  AppendU32(key, static_cast<uint32_t>(rule_index));
  for (ValueId id : ids) AppendU32(key, id);
}

namespace {

// Resolves the values value_of(p) of attributes attrs[p] to table ids via
// `lookup(attr, value)`; false when a value cannot be resolved.
template <typename ValueOf, typename LookupFn>
bool ResolveIds(const std::vector<AttrId>& attrs, ValueOf value_of, LookupFn lookup,
                std::vector<ValueId>* out) {
  out->clear();
  for (size_t p = 0; p < attrs.size(); ++p) {
    const ValueId id = lookup(static_cast<size_t>(attrs[p]), value_of(p));
    if (id == kInvalidValueId) return false;
    out->push_back(id);
  }
  return true;
}

// Resolves a γ of `rule`'s block, its values read through `data`'s
// dictionaries, to table ids.
template <typename LookupFn>
bool ResolvePiece(const Constraint& rule, const Piece& piece, const Dataset& data,
                  LookupFn lookup, std::vector<ValueId>* out) {
  const std::vector<AttrId>& attrs = rule.attrs();
  if (piece.ids.size() != attrs.size()) return false;  // not built from this rule set
  return ResolveIds(
      attrs, [&](size_t p) -> const Value& { return data.dict(attrs[p]).value(piece.ids[p]); },
      lookup, out);
}

}  // namespace

void GlobalWeightTable::Accumulate(const MlnIndex& part_index, const Dataset& data,
                                   const RuleSet& rules) {
  if (dicts_.empty()) dicts_.resize(rules.schema().num_attrs());
  auto intern = [this](size_t a, const Value& v) {
    return a < dicts_.size() ? dicts_[a].Intern(v) : kInvalidValueId;
  };
  std::vector<ValueId> ids;
  std::string key;
  for (const Block& block : part_index.blocks()) {
    if (block.rule_index >= rules.size()) continue;  // foreign index; skip
    const Constraint& rule = rules.rule(block.rule_index);
    for (const Group& group : block.groups) {
      for (const Piece& piece : group.pieces) {
        if (!ResolvePiece(rule, piece, data, intern, &ids)) continue;
        PackKey(block.rule_index, ids, &key);
        Entry& entry = table_[key];
        const double n = static_cast<double>(piece.support());
        entry.weighted_sum += n * piece.weight;
        entry.support += n;
      }
    }
  }
}

void GlobalWeightTable::Apply(MlnIndex* part_index, const Dataset& data,
                              const RuleSet& rules) const {
  auto find = [this](size_t a, const Value& v) { return FindValue(a, v); };
  std::vector<ValueId> ids;
  std::string key;
  for (Block& block : part_index->blocks()) {
    if (block.rule_index >= rules.size()) continue;
    const Constraint& rule = rules.rule(block.rule_index);
    for (Group& group : block.groups) {
      for (Piece& piece : group.pieces) {
        if (!ResolvePiece(rule, piece, data, find, &ids)) {
          continue;  // a value the table never saw: no merged weight
        }
        PackKey(block.rule_index, ids, &key);
        auto it = table_.find(key);
        if (it != table_.end() && it->second.support > 0.0) {
          piece.weight = it->second.weighted_sum / it->second.support;
        }
      }
    }
  }
}

Result<double> GlobalWeightTable::Lookup(const RuleSet& rules, size_t rule_index,
                                         const std::vector<Value>& reason,
                                         const std::vector<Value>& result) const {
  if (rule_index >= rules.size()) {
    return Status::Invalid("Lookup: rule index " + std::to_string(rule_index) +
                           " outside the rule set");
  }
  const Constraint& rule = rules.rule(rule_index);
  const size_t n_reason = rule.reason_attrs().size();
  auto find = [this](size_t a, const Value& v) { return FindValue(a, v); };
  auto value_of = [&](size_t p) -> const Value& {
    return p < n_reason ? reason[p] : result[p - n_reason];
  };
  std::vector<ValueId> ids;
  if (reason.size() != n_reason || result.size() != rule.result_attrs().size() ||
      !ResolveIds(rule.attrs(), value_of, find, &ids)) {
    return Status::NotFound("no merged weight for the given γ");
  }
  std::string key;
  PackKey(rule_index, ids, &key);
  auto it = table_.find(key);
  if (it == table_.end() || it->second.support <= 0.0) {
    return Status::NotFound("no merged weight for the given γ");
  }
  return it->second.weighted_sum / it->second.support;
}

ValueId GlobalWeightTable::FindValue(size_t attr, const Value& value) const {
  return attr < dicts_.size() ? dicts_[attr].Find(value) : kInvalidValueId;
}

void GlobalWeightTable::ForEachEntrySorted(
    const std::function<void(const EntryView&)>& fn) const {
  std::vector<const std::pair<const std::string, Entry>*> sorted;
  sorted.reserve(table_.size());
  for (const auto& kv : table_) sorted.push_back(&kv);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  EntryView view;
  for (const auto* kv : sorted) {
    const std::string& key = kv->first;
    view.rule_index = ReadU32(key, 0);
    view.ids.clear();
    for (size_t pos = 4; pos < key.size(); pos += 4) view.ids.push_back(ReadU32(key, pos));
    view.weighted_sum = kv->second.weighted_sum;
    view.support = kv->second.support;
    fn(view);
  }
}

void GlobalWeightTable::RestoreDicts(std::vector<ValueDict> dicts) {
  dicts_ = std::move(dicts);
}

Status GlobalWeightTable::RestoreEntry(const RuleSet& rules, const EntryView& entry) {
  if (entry.rule_index >= rules.size()) {
    return Status::Invalid("weight entry references rule index " +
                           std::to_string(entry.rule_index) + " but the model has " +
                           std::to_string(rules.size()) + " rules");
  }
  const Constraint& rule = rules.rule(entry.rule_index);
  const std::vector<AttrId>& attrs = rule.attrs();
  if (entry.ids.size() != attrs.size()) {
    return Status::Invalid("weight entry arity " + std::to_string(entry.ids.size()) +
                           " does not match rule '" + rule.name() + "' (" +
                           std::to_string(attrs.size()) + ")");
  }
  for (size_t p = 0; p < attrs.size(); ++p) {
    const size_t a = static_cast<size_t>(attrs[p]);
    if (a >= dicts_.size() || entry.ids[p] >= dicts_[a].size()) {
      return Status::Invalid("weight entry id " + std::to_string(entry.ids[p]) +
                             " outside attribute dictionary " + std::to_string(a));
    }
  }
  std::string key;
  PackKey(entry.rule_index, entry.ids, &key);
  Entry& e = table_[key];
  e.weighted_sum = entry.weighted_sum;
  e.support = entry.support;
  return Status::OK();
}

}  // namespace mlnclean

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

std::string GlobalWeightTable::PackKey(size_t rule_index,
                                       const std::vector<ValueId>& reason_ids,
                                       const std::vector<ValueId>& result_ids) {
  std::string key;
  key.reserve(8 + 4 * (reason_ids.size() + result_ids.size()));
  AppendU32(&key, static_cast<uint32_t>(rule_index));
  AppendU32(&key, static_cast<uint32_t>(reason_ids.size()));
  for (ValueId id : reason_ids) AppendU32(&key, id);
  for (ValueId id : result_ids) AppendU32(&key, id);
  return key;
}

namespace {

// Resolves `n` values of one side of a γ — value_of(i) of attribute
// attrs[i] — to table ids via `lookup(attr, value)`; false when the arity
// mismatches or a value cannot be resolved.
template <typename ValueOf, typename LookupFn>
bool ResolveSide(const std::vector<AttrId>& attrs, size_t n, ValueOf value_of,
                 LookupFn lookup, std::vector<ValueId>* out) {
  if (attrs.size() != n) return false;
  out->clear();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ValueId id = lookup(static_cast<size_t>(attrs[i]), value_of(i));
    if (id == kInvalidValueId) return false;
    out->push_back(id);
  }
  return true;
}

// Resolves a γ of `rule`'s block, its values read through `data`'s
// dictionaries, to table ids.
template <typename LookupFn>
bool ResolvePiece(const Constraint& rule, const Piece& piece, const Dataset& data,
                  LookupFn lookup, std::vector<ValueId>* reason_ids,
                  std::vector<ValueId>* result_ids) {
  auto side = [&](const std::vector<AttrId>& attrs, const std::vector<ValueId>& ids,
                  std::vector<ValueId>* out) {
    return ResolveSide(
        attrs, ids.size(),
        [&](size_t i) -> const Value& { return data.dict(attrs[i]).value(ids[i]); },
        lookup, out);
  };
  return side(rule.reason_attrs(), piece.reason_ids, reason_ids) &&
         side(rule.result_attrs(), piece.result_ids, result_ids);
}

}  // namespace

void GlobalWeightTable::Accumulate(const MlnIndex& part_index, const Dataset& data,
                                   const RuleSet& rules) {
  if (dicts_.empty()) dicts_.resize(rules.schema().num_attrs());
  auto intern = [this](size_t a, const Value& v) {
    return a < dicts_.size() ? dicts_[a].Intern(v) : kInvalidValueId;
  };
  std::vector<ValueId> reason_ids, result_ids;
  for (const Block& block : part_index.blocks()) {
    if (block.rule_index >= rules.size()) continue;  // foreign index; skip
    const Constraint& rule = rules.rule(block.rule_index);
    for (const Group& group : block.groups) {
      for (const Piece& piece : group.pieces) {
        if (!ResolvePiece(rule, piece, data, intern, &reason_ids, &result_ids)) {
          continue;  // arity mismatch: γ not built from this rule set
        }
        Entry& entry = table_[PackKey(block.rule_index, reason_ids, result_ids)];
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
  std::vector<ValueId> reason_ids, result_ids;
  for (Block& block : part_index->blocks()) {
    if (block.rule_index >= rules.size()) continue;
    const Constraint& rule = rules.rule(block.rule_index);
    for (Group& group : block.groups) {
      for (Piece& piece : group.pieces) {
        if (!ResolvePiece(rule, piece, data, find, &reason_ids, &result_ids)) {
          continue;  // a value the table never saw: no merged weight
        }
        auto it = table_.find(PackKey(block.rule_index, reason_ids, result_ids));
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
  auto find = [this](size_t a, const Value& v) { return FindValue(a, v); };
  std::vector<ValueId> reason_ids, result_ids;
  if (!ResolveSide(rule.reason_attrs(), reason.size(),
                   [&](size_t i) -> const Value& { return reason[i]; }, find,
                   &reason_ids) ||
      !ResolveSide(rule.result_attrs(), result.size(),
                   [&](size_t i) -> const Value& { return result[i]; }, find,
                   &result_ids)) {
    return Status::NotFound("no merged weight for the given γ");
  }
  auto it = table_.find(PackKey(rule_index, reason_ids, result_ids));
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
    const size_t num_ids = key.size() / 4 - 2;
    const size_t n_reason = ReadU32(key, 4);
    view.rule_index = ReadU32(key, 0);
    view.reason_ids.clear();
    view.result_ids.clear();
    for (size_t i = 0; i < num_ids; ++i) {
      ValueId id = ReadU32(key, 8 + 4 * i);
      (i < n_reason ? view.reason_ids : view.result_ids).push_back(id);
    }
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
  auto check = [&](const std::vector<AttrId>& attrs, const std::vector<ValueId>& ids,
                   const char* side) -> Status {
    if (attrs.size() != ids.size()) {
      return Status::Invalid(std::string("weight entry ") + side + " arity " +
                             std::to_string(ids.size()) + " does not match rule '" +
                             rule.name() + "' (" + std::to_string(attrs.size()) + ")");
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      const size_t a = static_cast<size_t>(attrs[i]);
      if (a >= dicts_.size() || ids[i] >= dicts_[a].size()) {
        return Status::Invalid(std::string("weight entry ") + side + " id " +
                               std::to_string(ids[i]) +
                               " outside attribute dictionary " + std::to_string(a));
      }
    }
    return Status::OK();
  };
  MLN_RETURN_NOT_OK(check(rule.reason_attrs(), entry.reason_ids, "reason"));
  MLN_RETURN_NOT_OK(check(rule.result_attrs(), entry.result_ids, "result"));
  Entry& e = table_[PackKey(entry.rule_index, entry.reason_ids, entry.result_ids)];
  e.weighted_sum = entry.weighted_sum;
  e.support = entry.support;
  return Status::OK();
}

}  // namespace mlnclean

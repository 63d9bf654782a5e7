#include "rules/violation.h"

#include <cstdint>
#include <unordered_map>

namespace mlnclean {

namespace {

// FD-style detection: group tuples by their reason-part dictionary ids; a
// group whose tuples disagree on the result ids is a violation. Within one
// dataset, id equality is value equality, so no keys or value strings are
// built. Groups are emitted in first-appearance order.
void DetectGrouped(const Dataset& data, const Constraint& rule, size_t rule_index,
                   bool require_all_constants, std::vector<Violation>* out) {
  const std::vector<AttrId>& reason_attrs = rule.reason_attrs();
  const std::vector<AttrId>& result_attrs = rule.result_attrs();
  std::vector<std::vector<TupleId>> groups;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets;
  for (TupleId tid = 0; tid < static_cast<TupleId>(data.num_rows()); ++tid) {
    if (require_all_constants && !rule.MatchesAllLhsConstants(data, tid)) continue;
    auto& bucket = buckets[HashRowIds(data, tid, reason_attrs)];
    size_t group_idx = groups.size();
    for (size_t gi : bucket) {
      if (SameRowIds(data, groups[gi].front(), tid, reason_attrs)) {
        group_idx = gi;
        break;
      }
    }
    if (group_idx == groups.size()) {
      bucket.push_back(group_idx);
      groups.emplace_back();
    }
    groups[group_idx].push_back(tid);
  }
  for (const auto& tids : groups) {
    if (tids.size() < 2) continue;
    bool conflict = false;
    for (size_t i = 1; i < tids.size(); ++i) {
      if (!SameRowIds(data, tids[0], tids[i], result_attrs)) {
        conflict = true;
        break;
      }
    }
    if (conflict) {
      out->push_back(Violation{rule_index, tids, result_attrs});
    }
  }
}

// Constant-rhs CFD: a tuple matching every lhs constant must carry the rhs
// constants.
void DetectCfdConstants(const Dataset& data, const Constraint& rule,
                        size_t rule_index, std::vector<Violation>* out) {
  for (TupleId tid = 0; tid < static_cast<TupleId>(data.num_rows()); ++tid) {
    if (!rule.MatchesAllLhsConstants(data, tid)) continue;
    for (const auto& p : rule.rhs_patterns()) {
      if (p.is_constant() && data.at(tid, p.attr) != *p.constant) {
        out->push_back(Violation{rule_index, {tid}, {p.attr}});
        break;
      }
    }
  }
}

// General DC: quadratic scan evaluating every predicate on ordered pairs.
// Predicates may be asymmetric (<, >), so both orders must be checked; the
// violating pair is reported in predicate order (t1, t2).
void DetectDcPairwise(const Dataset& data, const Constraint& rule, size_t rule_index,
                      std::vector<Violation>* out) {
  const auto n = static_cast<TupleId>(data.num_rows());
  for (TupleId i = 0; i < n; ++i) {
    for (TupleId j = 0; j < n; ++j) {
      if (i == j) continue;
      bool all_hold = true;
      for (const auto& p : rule.predicates()) {
        if (!p.Eval(data.at(i, p.left_attr), data.at(j, p.right_attr))) {
          all_hold = false;
          break;
        }
      }
      if (all_hold) {
        out->push_back(Violation{rule_index, {i, j}, rule.result_attrs()});
      }
    }
  }
}

}  // namespace

std::vector<Violation> FindViolations(const Dataset& data, const Constraint& rule,
                                      size_t rule_index) {
  std::vector<Violation> out;
  switch (rule.kind()) {
    case RuleKind::kFd:
      DetectGrouped(data, rule, rule_index, /*require_all_constants=*/false, &out);
      break;
    case RuleKind::kCfd: {
      bool rhs_has_constant = false;
      bool rhs_has_variable = false;
      for (const auto& p : rule.rhs_patterns()) {
        (p.is_constant() ? rhs_has_constant : rhs_has_variable) = true;
      }
      if (rhs_has_constant) DetectCfdConstants(data, rule, rule_index, &out);
      if (rhs_has_variable) {
        DetectGrouped(data, rule, rule_index, /*require_all_constants=*/true, &out);
      }
      break;
    }
    case RuleKind::kDc:
      if (rule.IndexCompatible()) {
        // The equality/disequality class admits hash-based detection.
        DetectGrouped(data, rule, rule_index, /*require_all_constants=*/false, &out);
      } else {
        DetectDcPairwise(data, rule, rule_index, &out);
      }
      break;
  }
  return out;
}

std::vector<Violation> FindAllViolations(const Dataset& data, const RuleSet& rules) {
  std::vector<Violation> out;
  for (size_t i = 0; i < rules.size(); ++i) {
    auto found = FindViolations(data, rules.rule(i), i);
    out.insert(out.end(), found.begin(), found.end());
  }
  return out;
}

}  // namespace mlnclean

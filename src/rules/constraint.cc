#include "rules/constraint.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <unordered_set>

#include "rules/rule_parser.h"

namespace mlnclean {

const char* RuleKindName(RuleKind kind) {
  switch (kind) {
    case RuleKind::kFd:
      return "FD";
    case RuleKind::kCfd:
      return "CFD";
    case RuleKind::kDc:
      return "DC";
  }
  return "?";
}

const char* PredOpSymbol(PredOp op) {
  switch (op) {
    case PredOp::kEq:
      return "=";
    case PredOp::kNeq:
      return "!=";
    case PredOp::kLt:
      return "<";
    case PredOp::kLeq:
      return "<=";
    case PredOp::kGt:
      return ">";
    case PredOp::kGeq:
      return ">=";
  }
  return "?";
}

namespace {

bool ParseNumber(const Value& v, double* out) {
  if (v.empty()) return false;
  const char* begin = v.data();
  const char* end = begin + v.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

int CompareValues(const Value& a, const Value& b) {
  double na = 0, nb = 0;
  if (ParseNumber(a, &na) && ParseNumber(b, &nb)) {
    if (na < nb) return -1;
    if (na > nb) return 1;
    return 0;
  }
  return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
}

Status ValidateAttrs(const Schema& schema, const std::vector<AttrId>& attrs,
                     const char* side) {
  if (attrs.empty()) {
    return Status::Invalid(std::string(side) + " attribute list is empty");
  }
  for (AttrId a : attrs) {
    if (!schema.Contains(a)) {
      return Status::Invalid(std::string(side) + " references attribute id " +
                             std::to_string(a) + " outside the schema");
    }
  }
  return Status::OK();
}

}  // namespace

bool DcPredicate::Eval(const Value& left, const Value& right) const {
  int cmp = CompareValues(left, right);
  switch (op) {
    case PredOp::kEq:
      return cmp == 0;
    case PredOp::kNeq:
      return cmp != 0;
    case PredOp::kLt:
      return cmp < 0;
    case PredOp::kLeq:
      return cmp <= 0;
    case PredOp::kGt:
      return cmp > 0;
    case PredOp::kGeq:
      return cmp >= 0;
  }
  return false;
}

Result<Constraint> Constraint::MakeFd(const Schema& schema, std::vector<AttrId> lhs,
                                      std::vector<AttrId> rhs) {
  MLN_RETURN_NOT_OK(ValidateAttrs(schema, lhs, "FD lhs"));
  MLN_RETURN_NOT_OK(ValidateAttrs(schema, rhs, "FD rhs"));
  std::unordered_set<AttrId> lhs_set(lhs.begin(), lhs.end());
  for (AttrId a : rhs) {
    if (lhs_set.count(a) > 0) {
      return Status::Invalid("FD attribute '" + schema.name(a) +
                             "' appears on both sides");
    }
  }
  Constraint c;
  c.kind_ = RuleKind::kFd;
  c.reason_attrs_ = std::move(lhs);
  c.result_attrs_ = std::move(rhs);
  c.CacheAttrs();
  return c;
}

Result<Constraint> Constraint::MakeCfd(const Schema& schema,
                                       std::vector<CfdPattern> lhs,
                                       std::vector<CfdPattern> rhs) {
  if (lhs.empty() || rhs.empty()) {
    return Status::Invalid("CFD pattern lists must be non-empty");
  }
  Constraint c;
  c.kind_ = RuleKind::kCfd;
  std::unordered_set<AttrId> seen;
  for (const auto& p : lhs) {
    if (!schema.Contains(p.attr)) {
      return Status::Invalid("CFD lhs attribute id out of range");
    }
    if (!seen.insert(p.attr).second) {
      return Status::Invalid("CFD repeats attribute '" + schema.name(p.attr) + "'");
    }
    c.reason_attrs_.push_back(p.attr);
  }
  for (const auto& p : rhs) {
    if (!schema.Contains(p.attr)) {
      return Status::Invalid("CFD rhs attribute id out of range");
    }
    if (!seen.insert(p.attr).second) {
      return Status::Invalid("CFD repeats attribute '" + schema.name(p.attr) + "'");
    }
    c.result_attrs_.push_back(p.attr);
  }
  c.lhs_patterns_ = std::move(lhs);
  c.rhs_patterns_ = std::move(rhs);
  c.CacheAttrs();
  return c;
}

Result<Constraint> Constraint::MakeDc(const Schema& schema,
                                      std::vector<DcPredicate> predicates) {
  if (predicates.size() < 2) {
    return Status::Invalid("DC needs at least two predicates (reason + result)");
  }
  for (const auto& p : predicates) {
    if (!schema.Contains(p.left_attr) || !schema.Contains(p.right_attr)) {
      return Status::Invalid("DC predicate references attribute outside the schema");
    }
  }
  Constraint c;
  c.kind_ = RuleKind::kDc;
  // Section 4: the last predicate is the result part, the rest the reason.
  for (size_t i = 0; i + 1 < predicates.size(); ++i) {
    c.reason_attrs_.push_back(predicates[i].left_attr);
  }
  c.result_attrs_.push_back(predicates.back().left_attr);
  c.predicates_ = std::move(predicates);
  c.CacheAttrs();
  return c;
}

void Constraint::CacheAttrs() {
  attrs_ = reason_attrs_;
  attrs_.insert(attrs_.end(), result_attrs_.begin(), result_attrs_.end());
}

namespace {

// The row-based and columnar overload pairs below share these bodies;
// `get(attr)` reads one cell of the tuple under test.

template <typename GetCell>
bool InScopeImpl(RuleKind kind, const std::vector<CfdPattern>& lhs_patterns,
                 GetCell get) {
  if (kind != RuleKind::kCfd) return true;
  bool has_constant = false;
  for (const auto& p : lhs_patterns) {
    if (!p.is_constant()) continue;
    has_constant = true;
    if (get(p.attr) == *p.constant) return true;
  }
  // A CFD without lhs constants behaves like an FD: every tuple in scope.
  return !has_constant;
}

template <typename GetCell>
bool MatchesAllLhsConstantsImpl(RuleKind kind,
                                const std::vector<CfdPattern>& lhs_patterns,
                                GetCell get) {
  if (kind != RuleKind::kCfd) return true;
  for (const auto& p : lhs_patterns) {
    if (p.is_constant() && get(p.attr) != *p.constant) return false;
  }
  return true;
}

template <typename GetCell>
std::vector<Value> GatherValues(const std::vector<AttrId>& attrs, GetCell get) {
  std::vector<Value> out;
  out.reserve(attrs.size());
  for (AttrId a : attrs) out.push_back(get(a));
  return out;
}

// Cell accessors over the two tuple representations.
auto CellOf(const std::vector<Value>& row) {
  return [&row](AttrId a) -> const Value& { return row[static_cast<size_t>(a)]; };
}
auto CellOf(const Dataset& data, TupleId tid) {
  return [&data, tid](AttrId a) -> const Value& { return data.at(tid, a); };
}

}  // namespace

bool Constraint::InScope(const std::vector<Value>& row) const {
  return InScopeImpl(kind_, lhs_patterns_, CellOf(row));
}

bool Constraint::InScope(const Dataset& data, TupleId tid) const {
  return InScopeImpl(kind_, lhs_patterns_, CellOf(data, tid));
}

bool Constraint::MatchesAllLhsConstants(const std::vector<Value>& row) const {
  return MatchesAllLhsConstantsImpl(kind_, lhs_patterns_, CellOf(row));
}

bool Constraint::MatchesAllLhsConstants(const Dataset& data, TupleId tid) const {
  return MatchesAllLhsConstantsImpl(kind_, lhs_patterns_, CellOf(data, tid));
}

ScopeFilter Constraint::MakeScopeFilter(const Dataset& data) const {
  // Mirrors InScopeImpl ("at least one lhs constant matches; a CFD
  // without constants admits every tuple"), resolved to ids once.
  ScopeFilter f;
  if (kind_ != RuleKind::kCfd) return f;
  bool has_constant = false;
  for (const auto& p : lhs_patterns_) {
    if (!p.is_constant()) continue;
    has_constant = true;
    ValueId id = data.dict(p.attr).Find(*p.constant);
    if (id != kInvalidValueId) {
      f.matchers_.emplace_back(&data.column(p.attr), id);
    }
  }
  f.check_ = has_constant;
  return f;
}

bool Constraint::IndexCompatible() const {
  if (kind_ != RuleKind::kDc) return true;
  for (size_t i = 0; i + 1 < predicates_.size(); ++i) {
    const auto& p = predicates_[i];
    if (p.op != PredOp::kEq || p.left_attr != p.right_attr) return false;
  }
  const auto& last = predicates_.back();
  return last.op == PredOp::kNeq && last.left_attr == last.right_attr;
}

std::vector<Value> Constraint::ReasonValues(const std::vector<Value>& row) const {
  return GatherValues(reason_attrs_, CellOf(row));
}

std::vector<Value> Constraint::ReasonValues(const Dataset& data, TupleId tid) const {
  return GatherValues(reason_attrs_, CellOf(data, tid));
}

std::vector<Value> Constraint::ResultValues(const std::vector<Value>& row) const {
  return GatherValues(result_attrs_, CellOf(row));
}

std::vector<Value> Constraint::ResultValues(const Dataset& data, TupleId tid) const {
  return GatherValues(result_attrs_, CellOf(data, tid));
}

std::string Constraint::MlnClause(const Schema& schema) const {
  std::string out;
  auto append_lit = [&](bool negated, const std::string& pred,
                        const std::optional<Value>& constant) {
    if (!out.empty()) out += " | ";
    if (negated) out += "!";
    out += pred;
    if (constant.has_value()) out += "(\"" + *constant + "\")";
  };
  switch (kind_) {
    case RuleKind::kFd:
      for (AttrId a : reason_attrs_) append_lit(true, schema.name(a), std::nullopt);
      for (AttrId a : result_attrs_) append_lit(false, schema.name(a), std::nullopt);
      break;
    case RuleKind::kCfd:
      for (const auto& p : lhs_patterns_) {
        append_lit(true, schema.name(p.attr), p.constant);
      }
      for (const auto& p : rhs_patterns_) {
        append_lit(false, schema.name(p.attr), p.constant);
      }
      break;
    case RuleKind::kDc:
      // ¬(p1 ∧ … ∧ pn) == ¬p1 ∨ … ∨ ¬pn.
      for (const auto& p : predicates_) {
        if (!out.empty()) out += " | ";
        out += "!(";
        out += schema.name(p.left_attr) + "(t1) ";
        out += PredOpSymbol(p.op);
        out += " " + schema.name(p.right_attr) + "(t2))";
      }
      break;
  }
  return out;
}

std::string Constraint::ToString(const Schema& schema) const {
  std::string out = RuleKindName(kind_);
  out += ": ";
  switch (kind_) {
    case RuleKind::kFd: {
      for (size_t i = 0; i < reason_attrs_.size(); ++i) {
        if (i > 0) out += ", ";
        out += schema.name(reason_attrs_[i]);
      }
      out += " -> ";
      for (size_t i = 0; i < result_attrs_.size(); ++i) {
        if (i > 0) out += ", ";
        out += schema.name(result_attrs_[i]);
      }
      break;
    }
    case RuleKind::kCfd: {
      auto render = [&](const std::vector<CfdPattern>& ps) {
        std::string s;
        for (size_t i = 0; i < ps.size(); ++i) {
          if (i > 0) s += ", ";
          s += schema.name(ps[i].attr);
          if (ps[i].is_constant()) s += "=" + *ps[i].constant;
        }
        return s;
      };
      out += render(lhs_patterns_) + " -> " + render(rhs_patterns_);
      break;
    }
    case RuleKind::kDc: {
      out += "!(";
      for (size_t i = 0; i < predicates_.size(); ++i) {
        if (i > 0) out += " & ";
        const auto& p = predicates_[i];
        out += schema.name(p.left_attr) + "(t1)";
        out += PredOpSymbol(p.op);
        out += schema.name(p.right_attr) + "(t2)";
      }
      out += ")";
      break;
    }
  }
  return out;
}

std::string Constraint::CanonicalText(const Schema& schema) const {
  std::string out = RuleKindName(kind_);
  out += ": ";
  switch (kind_) {
    case RuleKind::kFd: {
      for (size_t i = 0; i < reason_attrs_.size(); ++i) {
        if (i > 0) out += ", ";
        out += QuoteRuleToken(schema.name(reason_attrs_[i]));
      }
      out += " -> ";
      for (size_t i = 0; i < result_attrs_.size(); ++i) {
        if (i > 0) out += ", ";
        out += QuoteRuleToken(schema.name(result_attrs_[i]));
      }
      break;
    }
    case RuleKind::kCfd: {
      auto render = [&](const std::vector<CfdPattern>& ps) {
        std::string s;
        for (size_t i = 0; i < ps.size(); ++i) {
          if (i > 0) s += ", ";
          s += QuoteRuleToken(schema.name(ps[i].attr));
          // Wildcards are canonically bare attribute names; the parser
          // reads a pattern without '=' as a wildcard.
          if (ps[i].is_constant()) s += "=" + QuoteRuleToken(*ps[i].constant);
        }
        return s;
      };
      out += render(lhs_patterns_) + " -> " + render(rhs_patterns_);
      break;
    }
    case RuleKind::kDc: {
      // The DC grammar has no quoting; this matches ToString (and is
      // round-trippable for any attribute name free of DSL
      // metacharacters, which MakeDc-hosted schemas are in practice).
      out += "!(";
      for (size_t i = 0; i < predicates_.size(); ++i) {
        if (i > 0) out += " & ";
        const auto& p = predicates_[i];
        out += schema.name(p.left_attr) + "(t1)";
        out += PredOpSymbol(p.op);
        out += schema.name(p.right_attr) + "(t2)";
      }
      out += ")";
      break;
    }
  }
  return out;
}

void RuleSet::Add(Constraint rule) {
  if (rule.name().empty()) {
    std::string name = "r";
    name += std::to_string(rules_.size() + 1);
    rule.set_name(std::move(name));
  }
  rules_.push_back(std::move(rule));
}

}  // namespace mlnclean

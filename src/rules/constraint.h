// Integrity constraints (Section 3): functional dependencies (FDs),
// conditional functional dependencies (CFDs), and denial constraints (DCs),
// plus their decomposition into a *reason part* and a *result part*
// (Section 4) and their clausal MLN form.

#ifndef MLNCLEAN_RULES_CONSTRAINT_H_
#define MLNCLEAN_RULES_CONSTRAINT_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/dataset.h"
#include "dataset/schema.h"

namespace mlnclean {

/// The three constraint classes MLNClean supports.
enum class RuleKind { kFd, kCfd, kDc };

const char* RuleKindName(RuleKind kind);

/// Comparison operator of a DC predicate.
enum class PredOp { kEq, kNeq, kLt, kLeq, kGt, kGeq };

const char* PredOpSymbol(PredOp op);

/// One DC predicate `left_attr(t) op right_attr(t')` over a tuple pair.
struct DcPredicate {
  AttrId left_attr;
  PredOp op;
  AttrId right_attr;

  /// Evaluates the predicate on concrete values, comparing numerically when
  /// both sides parse as numbers and lexicographically otherwise.
  bool Eval(const Value& left, const Value& right) const;
};

/// One CFD pattern cell: an attribute plus either a constant or a wildcard.
struct CfdPattern {
  AttrId attr;
  std::optional<Value> constant;  // nullopt = wildcard variable "_"

  bool is_constant() const { return constant.has_value(); }
};

/// Id-resolved tuple-scope test bound to one dataset (see
/// Constraint::MakeScopeFilter). Per tuple it compares column ids against
/// pre-resolved CFD constant ids — no string compares on the hot path.
class ScopeFilter {
 public:
  bool InScope(TupleId tid) const {
    if (!check_) return true;
    for (const auto& [col, id] : matchers_) {
      if ((*col)[static_cast<size_t>(tid)] == id) return true;
    }
    return false;
  }

 private:
  friend class Constraint;
  bool check_ = false;  // false: every tuple in scope
  // (column, constant id) per lhs constant present in the dictionary.
  std::vector<std::pair<const std::vector<ValueId>*, ValueId>> matchers_;
};

/// An integrity constraint with its reason/result decomposition.
///
/// * FD   `A1,..,Ak -> B1,..,Bm`: reason = lhs attrs, result = rhs attrs.
/// * CFD  `A1=c1,..,Ak -> B=c`: patterns may carry constants; reason = lhs
///   attrs, result = rhs attrs.
/// * DC   `!(p1 & .. & pn)`: the last predicate is the result part, the
///   others the reason part (Section 4).
class Constraint {
 public:
  /// Builds an FD. Attribute lists must be non-empty and disjoint.
  static Result<Constraint> MakeFd(const Schema& schema, std::vector<AttrId> lhs,
                                   std::vector<AttrId> rhs);

  /// Builds a CFD from lhs/rhs patterns.
  static Result<Constraint> MakeCfd(const Schema& schema, std::vector<CfdPattern> lhs,
                                    std::vector<CfdPattern> rhs);

  /// Builds a DC from its predicate list (>= 2 predicates).
  static Result<Constraint> MakeDc(const Schema& schema,
                                   std::vector<DcPredicate> predicates);

  RuleKind kind() const { return kind_; }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Rule-level MLN weight (Definition 1). Defaults to 1; ground-rule
  /// weights are learned separately (Section 5).
  double rule_weight() const { return rule_weight_; }
  void set_rule_weight(double w) { rule_weight_ = w; }

  /// Attributes of the reason part, in declaration order.
  const std::vector<AttrId>& reason_attrs() const { return reason_attrs_; }
  /// Attributes of the result part, in declaration order.
  const std::vector<AttrId>& result_attrs() const { return result_attrs_; }

  /// All attributes this rule touches (reason then result): the position
  /// order of its γs' ids.
  const std::vector<AttrId>& attrs() const { return attrs_; }

  const std::vector<CfdPattern>& lhs_patterns() const { return lhs_patterns_; }
  const std::vector<CfdPattern>& rhs_patterns() const { return rhs_patterns_; }
  const std::vector<DcPredicate>& predicates() const { return predicates_; }

  /// Whether a tuple contributes a piece of data (γ) to this rule's block.
  /// FDs and DCs admit every tuple. CFDs admit a tuple when it matches at
  /// least one lhs constant pattern — the membership criterion implied by
  /// Figure 2 of the paper (Section 4). The (data, tid) overload reads
  /// the cells straight off the columns without materializing a row.
  bool InScope(const std::vector<Value>& row) const;
  bool InScope(const Dataset& data, TupleId tid) const;

  /// The scope test pre-resolved against `data`'s dictionaries for
  /// whole-table scans (grounding): CFD lhs constants become ids up
  /// front (a constant absent from an attribute's dictionary can never
  /// match), and InScope(tid) is id compares only. The filter borrows
  /// `data`'s columns and must not outlive them or survive appends.
  ScopeFilter MakeScopeFilter(const Dataset& data) const;

  /// Whether a tuple matches *all* lhs constants (CFD antecedent holds).
  bool MatchesAllLhsConstants(const std::vector<Value>& row) const;
  bool MatchesAllLhsConstants(const Dataset& data, TupleId tid) const;

  /// True when the index builder can use this rule: FDs, CFDs, and DCs
  /// whose reason predicates are same-attribute equalities and whose result
  /// predicate is a same-attribute disequality.
  bool IndexCompatible() const;

  /// Reason-part values of a tuple (the group key of Section 4).
  std::vector<Value> ReasonValues(const std::vector<Value>& row) const;
  std::vector<Value> ReasonValues(const Dataset& data, TupleId tid) const;
  /// Result-part values of a tuple.
  std::vector<Value> ResultValues(const std::vector<Value>& row) const;
  std::vector<Value> ResultValues(const Dataset& data, TupleId tid) const;

  /// Clausal MLN form, e.g. "!CT | ST" for the FD CT -> ST (Section 3).
  std::string MlnClause(const Schema& schema) const;

  /// Human-readable rendering, e.g. "FD: CT -> ST".
  std::string ToString(const Schema& schema) const;

  /// Round-trippable DSL rendering: ParseRule(schema, CanonicalText(schema))
  /// reconstructs this constraint exactly (kind, attributes, patterns,
  /// predicates — name and rule weight travel beside the text, not in it).
  /// Unlike ToString, attribute names and CFD constants are quoted via
  /// QuoteRuleToken whenever they could be misparsed. This is the rule
  /// encoding the model snapshot persists. DC attribute names cannot be
  /// quoted by the DSL grammar, so DCs over names containing DSL
  /// metacharacters ('(', ')', '&', operators) are not representable.
  std::string CanonicalText(const Schema& schema) const;

 private:
  Constraint() = default;
  void CacheAttrs();

  RuleKind kind_ = RuleKind::kFd;
  std::string name_;
  double rule_weight_ = 1.0;
  std::vector<AttrId> reason_attrs_;
  std::vector<AttrId> result_attrs_;
  std::vector<AttrId> attrs_;             // reason_attrs_ then result_attrs_
  std::vector<CfdPattern> lhs_patterns_;  // CFD only
  std::vector<CfdPattern> rhs_patterns_;  // CFD only
  std::vector<DcPredicate> predicates_;   // DC only
};

/// A named, ordered collection of constraints over one schema.
class RuleSet {
 public:
  explicit RuleSet(Schema schema) : schema_(std::move(schema)) {}

  /// Adds a rule, assigning the name "r<k>" if it has none.
  void Add(Constraint rule);

  const Schema& schema() const { return schema_; }
  size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }
  const Constraint& rule(size_t i) const { return rules_[i]; }
  const std::vector<Constraint>& rules() const { return rules_; }

 private:
  Schema schema_;
  std::vector<Constraint> rules_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_RULES_CONSTRAINT_H_

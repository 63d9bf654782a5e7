// Violation detection: finds the tuples/cells that breach a constraint.
// Used by tests and for schema-level error accounting (before and after
// cleaning, as examples/custom_rules.cpp does).

#ifndef MLNCLEAN_RULES_VIOLATION_H_
#define MLNCLEAN_RULES_VIOLATION_H_

#include <cstddef>
#include <vector>

#include "rules/constraint.h"

namespace mlnclean {

/// One detected inconsistency: the set of tuples that jointly violate the
/// rule (2+ for FD/DC conflicts, 1 for constant-CFD mismatches) and the
/// attributes implicated (the rule's result part).
struct Violation {
  size_t rule_index = 0;
  std::vector<TupleId> tuples;
  std::vector<AttrId> attrs;
};

/// Finds all violations of `rule` in `data`. For FD-style rules a single
/// Violation covers one conflicting reason-group (all its tuples).
std::vector<Violation> FindViolations(const Dataset& data, const Constraint& rule,
                                      size_t rule_index = 0);

/// Finds violations of every rule in the set.
std::vector<Violation> FindAllViolations(const Dataset& data, const RuleSet& rules);

}  // namespace mlnclean

#endif  // MLNCLEAN_RULES_VIOLATION_H_

// Grounding (Section 3, Table 3): instantiating an MLN rule's variables
// with the constants found in a dataset. A ground rule of an
// index-compatible constraint is a distinct binding of the rule's
// attributes (reason values, then result values) together with its
// supporting tuples; its learned weight reflects the probability of those
// attribute values being clean.
//
// Grounding runs entirely on the dataset's dictionary ids: per tuple it
// gathers the rule's attribute ids straight from the columns into one id
// tuple in the rule's attribute order, hashes it, and dedups bindings in a
// flat open-addressing table; a second pass fills each γ's tuple list,
// sized once. A ground rule is the γ (index/piece.h) of its binding: that
// id tuple, no strings.

#ifndef MLNCLEAN_MLN_GROUND_RULE_H_
#define MLNCLEAN_MLN_GROUND_RULE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "index/piece.h"
#include "rules/constraint.h"

namespace mlnclean {

/// Grounds `rule` over `data`: one γ per distinct binding of the rule's
/// attributes among in-scope tuples, with the tuples exhibiting it, in
/// first-appearance order. Fails with Invalid for rules the MLN index cannot handle
/// (general DCs; see Constraint::IndexCompatible).
Result<std::vector<Piece>> GroundConstraint(const Dataset& data,
                                            const Constraint& rule);

/// Grounds `rule` over the tuple range [first, end) only — the
/// incremental-append primitive. Bindings and tuples come out in the same
/// first-appearance order a full grounding would visit them in, so merging
/// a range grounding into an index built over [0, first) reproduces the
/// full build exactly (MlnIndex::AppendRows relies on this).
Result<std::vector<Piece>> GroundConstraintRange(const Dataset& data,
                                                 const Constraint& rule,
                                                 TupleId first, TupleId end);

/// Renders a ground rule (a γ of `rule` grounded over `data`) in the
/// clausal form of Table 3, e.g. `!CT("DOTHAN") | ST("AL")`.
std::string GroundClauseToString(const Dataset& data, const Constraint& rule,
                                 const Piece& ground);

}  // namespace mlnclean

#endif  // MLNCLEAN_MLN_GROUND_RULE_H_

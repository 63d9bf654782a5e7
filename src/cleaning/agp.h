// AGP — abnormal group processing (Section 5.1.1). Groups whose tuple
// count is at most the threshold τ are considered abnormal (they likely
// exist only because an error in a rule's reason part spawned a spurious
// reason key) and are merged into the nearest normal group of the same
// block, where "distance between groups" is the distance between their γ*
// representatives: PieceDistance under MakeNormalizedDistanceFn(
// options.distance), over the values of the dataset the index was built
// over.
//
// Exactness and ties. The merges are those of the all-pairs scan that
// compares each abnormal γ* with every normal γ* in group order and keeps
// the first strict minimum, so ties go to the earliest normal group. The
// scan here gets there without the all-pairs cost: per block, each
// distinct value of each γ* position among the normal γ*s gets a slot;
// a position with fewer slots than candidates is tabled with one kernel
// call per slot, every other unequal position is bounded from below
// (NormalizedDistanceLowerBound), and only candidates whose bound can
// still win get an exact distance. Terms and bounds are folded in
// PieceDistance's attribute order, skipping equal positions, so a bound
// never exceeds the rounded distance it bounds and every comparison is
// the one the all-pairs scan makes. Term rows are computed once per block
// and abnormal value (or length), and candidates are bucketed by their
// tabled slots, so a whole bucket whose tabled terms alone exceed the
// best is skipped. A merge that changes the target's γ* reloads only that
// target's slots.

#ifndef MLNCLEAN_CLEANING_AGP_H_
#define MLNCLEAN_CLEANING_AGP_H_

#include "cleaning/options.h"
#include "cleaning/report.h"
#include "common/executor.h"
#include "index/mln_index.h"

namespace mlnclean {

/// Runs AGP over one block of `rule` in place, appending a record per
/// detected abnormal group to `report` (which may be null). `data` is the
/// dataset the index was built over: γ ids are read through its
/// dictionaries. Returns the number of abnormal groups that were actually
/// merged.
size_t RunAgp(Block* block, const Dataset& data, const Constraint& rule,
              const CleaningOptions& options, CleaningReport* report);

/// Runs AGP over every block of the index (built over `data` and `rules`).
/// Blocks run in parallel on `ctx`'s executor, and their records reach
/// `report` in block order; when `ctx` is stopped (cancelled or past its
/// deadline), blocks not yet started are skipped (cooperative; the caller reports the
/// terminal Status).
void RunAgpAll(MlnIndex* index, const Dataset& data, const RuleSet& rules,
               const CleaningOptions& options, CleaningReport* report,
               const ExecContext& ctx = {});

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_AGP_H_

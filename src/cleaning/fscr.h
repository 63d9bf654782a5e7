// FSCR — fusion-score based conflict resolution (Section 5.2,
// Algorithm 2). After stage 1 every block holds one clean γ per group, so
// each tuple has up to |B| clean "versions" (one per rule it is in scope
// for). FSCR fuses them into a single clean tuple: it walks the merge
// orders of the versions and keeps the fusion with the largest fusion
// score f-score(t) = Π w(γ), the product over the γs merged. When a
// version conflicts with the fusion on a shared attribute, it is
// substituted by the highest-weight conflict-free γ' of the same block,
// or the merge order is abandoned (f = 0).
//
// On top of the Eq. 5 product, candidate fusions are discounted per cell
// they change on the dirty tuple (CleaningOptions::fscr_minimality_discount)
// so that near-tied fusions resolve toward the minimal repair; the
// reported f_score includes this factor. A fusion's score is a function
// of the fusion, not of the order that found it: the weights of the γs
// merged for the versions (each one's own, or its γ') are folded in
// version order, and the distance sum is taken over the fused cells in
// attribute order.
//
// Only the versions that can conflict are permuted. A version is active
// when it conflicts with another version or shares an attribute with an
// active one (the closure of that rule); every other version is inert.
// No active version and no γ' substitute (which comes from an active
// version's block, so it assigns that version's attributes) touches an
// inert version's attributes, so its cells are the same in every fusion:
// inert versions are merged once at the root.
//
// The search is exact and allocation-free in steady state: one cell stack
// per shard, backtracked by popping, and a per-tuple visited set. A
// node's state (remaining versions, assigned cells) fixes the γ merged
// for every version merged so far, so everything below a node is a
// function of its state, whatever the weights' signs, and each state is
// explored once. Merges that commute (versions whose rules share no
// attribute, or two that merge as their own γ and agree) are not
// re-ordered: sleep sets with the state-caching correction. A tuple with
// at most 32 versions (the search's mask width) of which at most 7 are
// active (the paper's rule sets have at most 7 rules) is searched
// exhaustively, in at most 13,700 nodes; any other is fused greedily by
// descending weight, and FscrRecord::outcome says which, beside the
// number of active versions and the search's work counters.
//
// Building the search's input costs a handful of allocations per call,
// not one per tuple: every tuple's versions sit in one CSR array over the
// tuples (a count pass over every γ's tuples, a prefix sum, then a fill
// in block order), and a search reads its tuple's slice of it.
//
// Each node is cheap: γ' candidates are looked up in per-block posting
// lists keyed by dictionary id, a tuple whose versions conflict keeps the
// set of versions its stack conflicts with as a bitmask (one bit test per
// conflict check), the visited-set hash is updated incrementally as cells
// are pushed and popped, and cell distances are memoized per shard. A
// tuple whose versions agree is fused at the root without any of it.
// docs/perf.md ("FSCR search") has the argument and the measurements.

#ifndef MLNCLEAN_CLEANING_FSCR_H_
#define MLNCLEAN_CLEANING_FSCR_H_

#include "cleaning/options.h"
#include "cleaning/report.h"
#include "common/executor.h"
#include "index/mln_index.h"
#include "rules/constraint.h"

namespace mlnclean {

/// Runs FSCR: starting from the dirty dataset, writes the fused clean
/// values into `cleaned` (which must start as a copy of the dirty data)
/// and appends one FscrRecord per tuple to `report` (may be null).
/// `index` must have been built over `dirty` and `rules` (its γ ids are
/// read through `dirty`'s dictionaries) and been through AGP + weight
/// learning + RSC, i.e. every group holds exactly one γ. Tuples run
/// sharded on `ctx`'s executor; when `ctx` is stopped, tuples not yet
/// fused are skipped and the run appends no records to `report`, on every
/// executor (cooperative; the caller reports the terminal Status and
/// discards the partially fused copy). Returns the number of tuples
/// fused greedily (FusionOutcome::kGreedy: more than 7 active versions,
/// or more than 32 versions), whether or not `report` is null.
size_t RunFscr(const Dataset& dirty, const RuleSet& rules, const MlnIndex& index,
               const CleaningOptions& options, Dataset* cleaned,
               CleaningReport* report, const ExecContext& ctx = {});

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_FSCR_H_

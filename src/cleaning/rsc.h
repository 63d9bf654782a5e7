// RSC — reliability-score based cleaning (Section 5.1.2, Definition 2).
// Within each group, the γ with the highest reliability score
//     r-score(γi) = min_{γ* in G - {γi}} dist(γi, γ*) · w(γi),
//     dist(γi, γ*) = n/Z · d(γi, γ*),
// is declared clean and every other γ in the group is rewritten to it
// (its tuples are re-associated with the winner), leaving exactly one γ
// per group.

#ifndef MLNCLEAN_CLEANING_RSC_H_
#define MLNCLEAN_CLEANING_RSC_H_

#include <vector>

#include "cleaning/report.h"
#include "common/executor.h"
#include "index/mln_index.h"

namespace mlnclean {

/// Reliability scores of every γ in `group`, in piece order. Groups with a
/// single γ get the score n/Z·w with dist treated as 1 (they are skipped by
/// RSC anyway). Z is the maximum raw pairwise distance within the group.
std::vector<double> ReliabilityScores(const Group& group, const DistanceFn& dist);

/// Runs RSC over one group in place; appends one record per replaced γ.
void RunRscGroup(Group* group, size_t block_rule_index, const DistanceFn& dist,
                 CleaningReport* report);

/// Runs RSC over every group of every block and refreshes the group maps.
/// Blocks run in parallel on `ctx`'s executor (one progress unit per
/// block); when `ctx` is stopped, blocks not yet started are skipped
/// (cooperative; the caller reports the terminal Status).
void RunRscAll(MlnIndex* index, const DistanceFn& dist, CleaningReport* report,
               const ExecContext& ctx = {});

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_RSC_H_

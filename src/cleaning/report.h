// CleaningReport: a structured trace of every decision the pipeline takes.
// The evaluation module joins it with the injected ground truth to compute
// the per-component accuracies of Section 7.3 (Precision/Recall-A, -R, -F
// and #dag).
//
// AGP and RSC records hold what they describe as dictionary ids in their
// rule's order, as a γ does (index/piece.h); `ResolveIds` reads the
// strings when a reader asks for them.

#ifndef MLNCLEAN_CLEANING_REPORT_H_
#define MLNCLEAN_CLEANING_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dataset/dataset.h"
#include "dataset/schema.h"
#include "rules/constraint.h"

namespace mlnclean {

/// One AGP decision: an abnormal group and where it was merged.
struct AgpMergeRecord {
  /// The block's rule index: the rule that resolves the keys.
  size_t block = 0;
  /// Reason ids of the abnormal group (its first γ's reason part), one per
  /// reason attribute in rule order.
  std::vector<ValueId> abnormal_key;
  /// Tuples inside the abnormal group when it was detected.
  std::vector<TupleId> abnormal_tuples;
  /// Number of γs in the abnormal group (contributes to #dag).
  size_t num_pieces = 0;
  /// Reason ids of the normal group it was merged into; empty when the
  /// block had no normal group and the merge was skipped.
  std::vector<ValueId> target_key;
  bool merged = false;
  /// Scan work (all 0 when the group was not merged): normal candidates
  /// covered, bucket bounds and candidate bounds folded, exact γ*
  /// distances, and kernel calls. Term rows are shared by the block's
  /// abnormal groups; their kernel calls count for the first group that
  /// needed them.
  size_t pairs = 0;
  size_t bucket_bounds = 0;
  size_t candidate_bounds = 0;
  size_t exact_evaluations = 0;
  size_t kernel_calls = 0;
};

/// One RSC replacement: a losing γ rewritten to the group's winner.
struct RscRepairRecord {
  /// The block's rule index: the rule that resolves the values.
  size_t block = 0;
  /// Ids of the winning γ, one per rule attribute in rule order (reason,
  /// then result).
  std::vector<ValueId> winner_values;
  /// Ids of the replaced γ, in the same order.
  std::vector<ValueId> loser_values;
  /// Tuples that carried the losing γ.
  std::vector<TupleId> affected_tuples;
};

/// How FSCR searched for one tuple's fusion.
enum class FusionOutcome : uint8_t {
  /// Every merge order was accounted for (also a tuple with no version:
  /// there is nothing to search). At most 7 active versions among at
  /// most 32, so at most 13,700 nodes.
  kExhaustive,
  /// More than 7 active versions, or more than 32 versions: they were
  /// merged once, greedily by weight. The only way FSCR cuts its search
  /// short.
  kGreedy,
};

/// FSCR outcome for one tuple.
struct FscrRecord {
  TupleId tuple = 0;
  /// Attributes on which at least two stage-1 versions disagreed.
  std::vector<AttrId> conflict_attrs;
  /// Whether a non-zero f-score fusion was found.
  bool fused = false;
  double f_score = 0.0;
  FusionOutcome outcome = FusionOutcome::kExhaustive;
  /// Versions the search had to permute: those that conflict with another
  /// version, closed under sharing an attribute with one (0 when the
  /// versions agree; every version past 32). The others are merged once.
  size_t active_versions = 0;
  /// Search work: nodes visited (at most 13,700; 0 on the greedy path),
  /// revisits with nothing left to explore (a state seen before, or one
  /// whose every version still to merge was reached through a sibling),
  /// and γ' substitutions made (Algorithm 2 line 19).
  size_t nodes = 0;
  size_t dominance_hits = 0;
  size_t substitutions = 0;
};

/// Wall-clock breakdown of one pipeline run, in seconds.
struct StageTimings {
  double index = 0.0;
  double agp = 0.0;
  double learn = 0.0;
  double rsc = 0.0;
  double fscr = 0.0;
  double dedup = 0.0;
  double total = 0.0;

  /// Adds `t` field by field: the totals of several runs or shards.
  StageTimings& operator+=(const StageTimings& t) {
    index += t.index;
    agp += t.agp;
    learn += t.learn;
    rsc += t.rsc;
    fscr += t.fscr;
    dedup += t.dedup;
    total += t.total;
    return *this;
  }
};

/// Full decision trace of a cleaning run.
struct CleaningReport {
  std::vector<AgpMergeRecord> agp;
  std::vector<RscRepairRecord> rsc;
  std::vector<FscrRecord> fscr;
  /// (removed tuple, kept representative) pairs from duplicate removal.
  std::vector<std::pair<TupleId, TupleId>> duplicates;
  StageTimings timings;
  /// Set by the session, like `timings`, and kept when it collects no
  /// records: weight-learning groups whose Newton solve stopped at its
  /// step cap unconverged (expected 0), and tuples FSCR fused greedily
  /// (FusionOutcome::kGreedy).
  size_t learn_capped_groups = 0;
  size_t fscr_greedy_tuples = 0;

  /// #dag: total number of γs inside detected abnormal groups (Fig. 8).
  size_t NumDetectedAbnormalPieces() const;

  /// Number of groups AGP flagged abnormal.
  size_t NumDetectedAbnormalGroups() const { return agp.size(); }

  /// Short human-readable summary.
  std::string Summary() const;
};

/// The values behind an id tuple of `rule`: id p is read through the
/// dictionary of `rule.attrs()[p]` in `data`, so a prefix resolves the
/// reason part. A record's tuple (`abnormal_key`, `target_key`,
/// `winner_values`, `loser_values`) resolves through `rules.rule(block)`
/// and the dirty dataset of its run, or its cleaned one: the cleaned
/// dictionaries are a copy of the dirty ones that FSCR only extends.
std::vector<Value> ResolveIds(const std::vector<ValueId>& ids, const Dataset& data,
                              const Constraint& rule);

/// Moves the `field` records of every report in `parts` onto the end of
/// `out`, in part order, with one reservation: how AGP and RSC turn their
/// per-block reports into the report of one pass over the blocks.
template <typename Record>
void SpliceRecords(std::vector<CleaningReport>* parts,
                   std::vector<Record> CleaningReport::*field,
                   std::vector<Record>* out) {
  size_t total = out->size();
  for (const CleaningReport& part : *parts) total += (part.*field).size();
  out->reserve(total);
  for (CleaningReport& part : *parts) {
    for (Record& record : part.*field) out->push_back(std::move(record));
  }
}

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_REPORT_H_

// Rule discovery: mine a RuleSet directly from (dirty) data, so the
// cleaning pipeline can run without hand-written constraints.
//
// Two passes, both deterministic for any executor/thread count:
//
//  1. A TANE/CTane-style level-wise lattice search over the
//     dictionary-encoded columns (discovery/fd_miner) proposes
//     approximate FDs X -> A and constant-pattern CFDs
//     X=c1,..,ck -> A=b, measured by stripped-partition support and
//     majority-agreement confidence (discovery/partition.h). Approximate
//     admission is the point: on dirty data the true dependencies hold
//     on most-but-not-all tuples, exactly the weak-constraint regime the
//     MLN softens anyway (HoloClean's premise).
//  2. An MLN scoring pass: the surviving candidates are compiled into a
//     CleanModel and trial-warmed on a sample (index + AGP + weight
//     learning — exactly CleanModel::Warm's computation, run through a
//     staged session so the learned index stays inspectable). A rule
//     earns its keep when its conflicted γ groups concentrate learned
//     weight on one version (support-weighted star purity >=
//     min_mln_score); rules whose groups stay ambiguous are dropped.
//
// Determinant selection then keeps one FD per result attribute, and
// constant CFDs only for attributes no kept FD determines.
//
// Survivors are emitted as canonical DSL via Constraint::CanonicalText,
// so mined rules round-trip byte-identically through ParseRules and can
// be persisted next to model snapshots. See docs/discovery.md for the
// algorithm, the measures, and knob guidance.

#ifndef MLNCLEAN_DISCOVERY_DISCOVERY_H_
#define MLNCLEAN_DISCOVERY_DISCOVERY_H_

#include <string>
#include <vector>

#include "cleaning/options.h"
#include "common/cancellation.h"
#include "common/executor.h"
#include "common/result.h"
#include "dataset/dataset.h"
#include "rules/constraint.h"

namespace mlnclean {

/// Knobs of DiscoverRules. Defaults are tuned for the 5%-error regime of
/// the paper's workloads; see docs/discovery.md for guidance.
struct DiscoveryOptions {
  /// Largest FD/CFD left-hand side the lattice explores (level cap).
  size_t max_lhs = 2;

  /// Minimum fraction of tuples that must appear in multi-tuple LHS
  /// groups for an FD over that LHS to be emitted (and for the LHS to be
  /// expanded — support is anti-monotone under refinement). Keys and
  /// near-keys have no cleaning evidence and die here.
  double min_support = 0.1;

  /// Minimum majority-agreement confidence for an approximate FD: among
  /// tuples with an LHS partner, the fraction agreeing with their
  /// group's majority result value.
  double min_confidence = 0.85;

  /// Constant-pattern CFDs are mined from the pattern groups of FDs that
  /// failed min_confidence globally. A pattern group must span at least
  /// this many rows ...
  size_t min_cfd_support = 8;
  /// ... and agree with its majority result value at least this often.
  double min_cfd_confidence = 0.95;

  /// Cap on emitted rules; lowest-support rules are dropped first
  /// (ties: later lattice order first). Keeps a pathological input from
  /// flooding the pipeline with thousands of pattern rules.
  size_t max_rules = 64;

  /// Score candidates through a trial-warmed CleanModel and keep only
  /// rules whose conflicted γ groups reach min_mln_score star purity.
  bool score_with_mln = true;
  /// Rows of the scoring sample (a prefix slice of the input).
  size_t mln_sample_rows = 200;
  /// Floor on the support-weighted star purity of a rule's conflicted
  /// groups (1.0 = every conflicted group fully dominated by one γ).
  double min_mln_score = 0.5;

  /// Worker-parallelism cap for the lattice levels and the scoring
  /// session; same semantics as CleaningOptions::num_threads
  /// (1 = sequential, 0 = auto). Results are bit-identical for any
  /// setting.
  size_t num_threads = 1;
  /// Execution backend; null resolves like CleaningOptions::executor.
  Executor* executor = nullptr;
  /// Cooperative cancellation, polled at lattice-level and session stage
  /// boundaries.
  CancelToken cancel;

  /// Validates option consistency (thresholds in range, usable sample
  /// sizes).
  Status Validate() const;

  /// num_threads with 0 resolved to the hardware concurrency (min 1).
  size_t ResolvedNumThreads() const;
  /// The executor discovery runs on; never null.
  Executor* ResolvedExecutor() const;
};

/// One mined FD/CFD candidate with its measures — kept or dropped, in
/// deterministic lattice order (level, then node, then result attribute).
struct MinedRuleInfo {
  /// Canonical DSL text (Constraint::CanonicalText; parses back exactly).
  std::string text;
  RuleKind kind = RuleKind::kFd;
  /// Fraction of rows covered: multi-tuple LHS groups for FDs, the
  /// pattern group for CFDs.
  double support = 0.0;
  /// Majority-agreement confidence on the covered rows.
  double confidence = 0.0;
  /// Support-weighted star purity of the rule's conflicted γ groups
  /// after the trial warm; 1.0 when uncontested (or scoring disabled).
  double mln_score = 1.0;
  /// True when the rule survived every gate and is in the RuleSet.
  bool kept = false;
};

/// Output of DiscoverRules.
struct DiscoveryResult {
  /// The surviving rules, named r1..rn in lattice order — ready for
  /// CleaningEngine::Compile, and round-trippable through ParseRules.
  RuleSet rules;
  /// Every candidate that reached the measurement gates, kept or not.
  std::vector<MinedRuleInfo> mined;
  /// Rows the MLN scoring pass warmed on (0 = scoring skipped).
  size_t sample_rows = 0;

  DiscoveryResult() : rules(Schema()) {}
  explicit DiscoveryResult(Schema schema) : rules(std::move(schema)) {}
};

/// Mines a RuleSet from `data` (see the file comment for the passes).
/// Deterministic: the result is identical for any executor/thread
/// configuration in `options`. Cancellation via options.cancel aborts
/// with Status::Cancelled.
Result<DiscoveryResult> DiscoverRules(const Dataset& data,
                                      const DiscoveryOptions& options = {});

}  // namespace mlnclean

#endif  // MLNCLEAN_DISCOVERY_DISCOVERY_H_

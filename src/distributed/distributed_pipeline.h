// Distributed MLNClean (Section 6). The paper deploys the stand-alone
// cleaner on Spark: partition the data (Algorithm 3), clean every part
// independently on a worker, adjust the learned weights globally (Eq. 6),
// and gather the parts, removing duplicates at the end. This module
// reproduces that dataflow as a thin adapter: one compiled model, the
// Algorithm 3 parts shipped as dictionary-bearing shards, and every part
// submitted as a staged leg (paused after kLearn, final stage kFscr) to
// one CleanServer over the worker set (standing in for Spark's workers).
// RunShardProtocol (shard_merge.h) — the function the serving fleet
// harvests with — then runs the Eq. 6 merge, resumes every part, and
// gathers with the id-remap merge and global duplicate elimination.
// Worker scaling is reported both as wall-clock (bounded by host cores)
// and as a deterministic simulated makespan (LPT scheduling of measured
// per-part costs), which preserves the paper's scaling shape on any host.

#ifndef MLNCLEAN_DISTRIBUTED_DISTRIBUTED_PIPELINE_H_
#define MLNCLEAN_DISTRIBUTED_DISTRIBUTED_PIPELINE_H_

#include <vector>

#include "cleaning/engine.h"
#include "common/cancellation.h"
#include "common/executor.h"
#include "distributed/partitioner.h"

namespace mlnclean {

/// Knobs of the distributed driver.
struct DistributedOptions {
  CleaningOptions cleaning;
  /// Number of data parts (Spark partitions); clamped to the row count.
  size_t num_parts = 8;
  /// Number of concurrent workers executing part jobs (ignored when
  /// `executor` is set — its concurrency rules then).
  size_t num_workers = 4;
  /// Worker set the per-part legs run on. Null spawns one transient
  /// PoolExecutor(num_workers) per Clean call (inline for one worker) —
  /// the simulated Spark worker set whose size the Table 6 sweeps vary.
  /// Set it to schedule part legs onto a shared pool instead (e.g. the
  /// process executor); Clean blocks its calling thread, which must then
  /// not be one of that pool's workers.
  Executor* executor = nullptr;
  uint64_t partition_seed = 99;
  /// Cooperative cancellation: shared with every per-part session, so a
  /// cancelled run aborts at the next per-part block/shard boundary with
  /// Status::Cancelled and leaves the input untouched. A failing part
  /// cancels its siblings through this token, which then stays cancelled.
  CancelToken cancel;
};

/// Output of a distributed run.
struct DistributedResult {
  /// Repaired dataset, row-aligned with the dirty input.
  Dataset cleaned;
  /// After global duplicate elimination.
  Dataset deduped;
  /// Per-part compute cost in seconds (stage I + stage II of that part:
  /// the part session's timings.total), in part order.
  std::vector<double> part_seconds;
  /// Wall-clock of the whole run on this host.
  double wall_seconds = 0.0;
  /// Number of γs in the Eq. 6 global weight table; 0 at one part, where
  /// the merge is skipped (merging one session is the identity).
  size_t global_weights = 0;
  /// Duplicates removed in the gather phase (cleaned rows − deduped rows).
  size_t duplicates_removed = 0;

  /// Deterministic makespan of scheduling part_seconds onto `workers`
  /// identical workers with longest-processing-time-first — the paper's
  /// Table 6 scaling shape independent of host core count.
  double SimulatedMakespan(size_t workers) const;
};

/// The distributed MLNClean driver.
class DistributedMlnClean {
 public:
  explicit DistributedMlnClean(DistributedOptions options);

  const DistributedOptions& options() const { return options_; }

  /// Partition -> per-part stage I (parallel) -> Eq. 6 weight merge ->
  /// per-part stage II (parallel) -> gather + duplicate removal. An empty
  /// table has no parts and yields empty outputs.
  Result<DistributedResult> Clean(const Dataset& dirty, const RuleSet& rules) const;

 private:
  DistributedOptions options_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_DISTRIBUTED_DISTRIBUTED_PIPELINE_H_

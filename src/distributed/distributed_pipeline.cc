#include "distributed/distributed_pipeline.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "cleaning/dedup.h"
#include "common/executor.h"
#include "common/timer.h"
#include "distributed/shard_merge.h"

namespace mlnclean {

double DistributedResult::SimulatedMakespan(size_t workers) const {
  if (workers == 0 || part_seconds.empty()) return 0.0;
  std::vector<double> costs = part_seconds;
  std::sort(costs.begin(), costs.end(), std::greater<double>());
  std::vector<double> load(std::min(workers, costs.size()), 0.0);
  for (double c : costs) {
    auto it = std::min_element(load.begin(), load.end());
    *it += c;
  }
  return *std::max_element(load.begin(), load.end());
}

DistributedMlnClean::DistributedMlnClean(DistributedOptions options)
    : options_(std::move(options)) {}

Result<DistributedResult> DistributedMlnClean::Clean(const Dataset& dirty,
                                                     const RuleSet& rules) const {
  if (options_.num_parts == 0) return Status::Invalid("num_parts must be > 0");
  if (options_.num_workers == 0) return Status::Invalid("num_workers must be > 0");
  // One compiled model serves every part: rule validation happens once,
  // and the Eq. 6 weight adjustment below is a model-level operation.
  MLN_ASSIGN_OR_RETURN(
      CleanModel model,
      CleaningEngine(options_.cleaning).Compile(rules.schema(), rules));

  // The worker set part jobs are scheduled on: the configured executor,
  // or one transient pool per run (which also parallelizes the
  // partitioner's centroid distances below) — one pool for the whole run,
  // not one per phase.
  std::unique_ptr<PoolExecutor> owned_pool;
  Executor* workers = options_.executor;
  if (workers == nullptr) {
    if (options_.num_workers > 1) {
      owned_pool = std::make_unique<PoolExecutor>(options_.num_workers);
      workers = owned_pool.get();
    } else {
      workers = SequentialExecutor();
    }
  }

  Timer wall;
  PartitionOptions popts;
  popts.num_parts = std::min(options_.num_parts, dirty.num_rows());
  popts.distance = options_.cleaning.distance;
  popts.seed = options_.partition_seed;
  popts.executor = workers;
  MLN_ASSIGN_OR_RETURN(Partition partition, PartitionDataset(dirty, popts));
  const size_t k = partition.parts.size();

  // Materialize the per-part sub-datasets (local tid -> global tid) over
  // the shared shipping protocol (shard_merge.h): each shard carries a
  // copy of the global dictionaries, so its rows copy over by id and
  // every shard's ids stay aligned with the global table (the merge
  // below remaps whatever a shard interned on top).
  std::vector<Dataset> part_data = MaterializeShards(dirty, partition.parts);

  // One staged engine session per part; parts run concurrently on the
  // worker pool, each part runs with the model's own thread setting. The
  // per-decision trace is skipped (this driver never reads it) and the
  // shared CancelToken aborts any part at its next block/shard boundary.
  std::vector<CleanSession> sessions;
  sessions.reserve(k);
  for (size_t p = 0; p < k; ++p) {
    SessionOptions sopts;
    sopts.cancel = options_.cancel;
    sopts.collect_report = false;
    sessions.push_back(model.NewSession(part_data[p], std::move(sopts)));
  }

  // ---- Phase A (parallel): per-part index + AGP + local weight learning.
  // RSC is deliberately *not* part of phase A: the Eq. 6 weight merge must
  // happen between learning and RSC so every part cleans with the global
  // weights — which is exactly the RunUntil(kLearn) cut of the stage plan.
  std::vector<double> phase_a(k, 0.0);
  std::vector<Status> statuses(k);
  ParallelFor(k, workers, [&](size_t p) {
    Timer t;
    statuses[p] = sessions[p].RunUntil(Stage::kLearn);
    phase_a[p] = t.ElapsedSeconds();
  });
  for (size_t p = 0; p < k; ++p) MLN_RETURN_NOT_OK(statuses[p]);

  // ---- Global weight adjustment (Eq. 6): a model-level operation over
  // the concurrent sessions.
  std::vector<CleanSession*> session_ptrs;
  session_ptrs.reserve(k);
  for (CleanSession& session : sessions) session_ptrs.push_back(&session);
  MLN_ASSIGN_OR_RETURN(const size_t global_weights,
                       model.AdjustWeightsAcross(session_ptrs));

  // ---- Phase B (parallel): RSC + FSCR per part, into the session-owned
  // cleaned dataset. RunUntil(kFscr) stops short of kDedup: duplicate
  // elimination is global, in the gather phase below. The write-back into
  // the global table happens sequentially below because remapping may
  // intern shard-local values globally.
  DistributedResult result;
  result.cleaned = dirty.Clone();
  result.global_weights = global_weights;
  std::vector<double> phase_b(k, 0.0);
  ParallelFor(k, workers, [&](size_t p) {
    Timer t;
    statuses[p] = sessions[p].RunUntil(Stage::kFscr);
    phase_b[p] = t.ElapsedSeconds();
  });
  for (size_t p = 0; p < k; ++p) MLN_RETURN_NOT_OK(statuses[p]);

  // ---- Merge: copy each shard's cleaned rows back into the global rows
  // it owns with the shared id-remap merge (shard_merge.h), sequentially
  // in part order — merging interns shard-local repairs into the global
  // dictionaries, so the shipped-size watermark is captured once up
  // front.
  const std::vector<size_t> shipped_size = ShippedDictSizes(dirty);
  for (size_t p = 0; p < k; ++p) {
    MergeShardRows(sessions[p].cleaned(), partition.parts[p], shipped_size,
                   &result.cleaned);
  }

  // ---- Gather: global duplicate elimination, as in the stand-alone flow.
  std::vector<std::pair<TupleId, TupleId>> removed;
  if (options_.cleaning.remove_duplicates) {
    result.deduped = RemoveDuplicates(result.cleaned, &removed);
  } else {
    result.deduped = result.cleaned;
  }
  result.duplicates_removed = removed.size();

  result.part_seconds.resize(k);
  for (size_t p = 0; p < k; ++p) result.part_seconds[p] = phase_a[p] + phase_b[p];
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace mlnclean

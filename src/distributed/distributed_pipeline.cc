#include "distributed/distributed_pipeline.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "cleaning/server.h"
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
  if (options_.executor == nullptr && options_.num_workers == 0) {
    return Status::Invalid("num_workers must be > 0");
  }
  // One compiled model serves every part: rule validation happens once,
  // and the Eq. 6 weight adjustment is a model-level operation.
  MLN_ASSIGN_OR_RETURN(
      CleanModel model,
      CleaningEngine(options_.cleaning).Compile(rules.schema(), rules));

  Timer wall;
  // Algorithm 3 parts (none for an empty table), shipped as
  // dictionary-bearing shards (shard_merge.h).
  Partition partition;
  if (dirty.num_rows() > 0) {
    PartitionOptions popts;
    popts.num_parts = std::min(options_.num_parts, dirty.num_rows());
    popts.distance = options_.cleaning.distance;
    popts.seed = options_.partition_seed;
    MLN_ASSIGN_OR_RETURN(partition, PartitionDataset(dirty, popts));
  }
  std::vector<Dataset> parts = MaterializeShards(dirty, partition.parts);
  const size_t k = parts.size();

  // The worker set: the configured executor, or one transient pool of
  // num_workers (inline for one worker) that runs num_workers parts at a
  // time. The server is declared after the pool, so it goes first.
  std::unique_ptr<PoolExecutor> owned_pool;
  ServerOptions sopts;
  sopts.executor = options_.executor;
  if (sopts.executor == nullptr) {
    if (options_.num_workers > 1) {
      owned_pool = std::make_unique<PoolExecutor>(options_.num_workers);
      sopts.executor = owned_pool.get();
    } else {
      sopts.executor = SequentialExecutor();
    }
    sopts.max_concurrent_sessions = options_.num_workers;
  }
  sopts.queue_capacity = std::max<size_t>(k, 1);
  MLN_ASSIGN_OR_RETURN(CleanServer server, CleanServer::Create(model, sopts));

  // Every part is a staged leg paused after kLearn, so the Eq. 6 merge
  // lands between learning and RSC. The per-decision trace is skipped
  // (this driver never reads it) and the shared CancelToken aborts any
  // part at its next block/shard boundary.
  std::vector<CleanTicket> legs;
  legs.reserve(k);
  for (Dataset& part : parts) {
    SessionOptions session_opts;
    session_opts.cancel = options_.cancel;
    session_opts.collect_report = false;
    Result<CleanTicket> leg = server.SubmitStaged(
        std::move(part), Stage::kLearn, Stage::kFscr, std::move(session_opts));
    if (!leg.ok()) {
      AbortShardLegs(&legs);
      return leg.status();
    }
    legs.push_back(std::move(*leg));
  }
  MLN_ASSIGN_OR_RETURN(
      ShardProtocolResult out,
      RunShardProtocol(model, &legs, partition.parts, dirty.Clone(),
                       /*collect_report=*/false));

  DistributedResult result;
  result.cleaned = std::move(out.result.cleaned);
  result.deduped = std::move(out.result.deduped);
  result.global_weights = out.global_weights;
  result.duplicates_removed = result.cleaned.num_rows() - result.deduped.num_rows();
  result.part_seconds.reserve(k);
  for (const CleanTicket& leg : legs) {
    result.part_seconds.push_back(leg.session()->report().timings.total);
  }
  result.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace mlnclean

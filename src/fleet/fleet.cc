#include "fleet/fleet.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "distributed/shard_merge.h"

namespace mlnclean {

/// Shared fleet state: the model, the router, and one server per shard.
/// Tickets pin it, so harvesting outlives the last CleanFleet handle.
struct FleetState {
  FleetState(CleanModel model_in, ShardRouter router_in, FleetOptions options_in)
      : model(std::move(model_in)),
        router(std::move(router_in)),
        options(std::move(options_in)) {}

  const CleanModel model;
  const ShardRouter router;
  const FleetOptions options;
  std::vector<CleanServer> servers;  // one per shard, fixed after Create

  mutable std::mutex mu;  // guards the counters and the reservoir
  size_t submitted = 0;
  size_t completed = 0;
  size_t failed = 0;
  size_t cancelled = 0;
  size_t deadline_expired = 0;
  LatencyReservoir latencies;
};

/// One fleet submission: the routed fan-out plus everything the harvest
/// needs to reassemble. The shard datasets were *moved into* the shard
/// legs (owning SubmitStaged), so this struct owns no data a server
/// still points at — dropping every ticket handle mid-flight is safe.
struct FleetJob {
  std::shared_ptr<FleetState> fleet;
  SessionOptions opts;
  std::chrono::steady_clock::time_point submitted_at;

  Dataset assembled;                          // clone of the input
  std::vector<CleanTicket> tickets;           // one per non-empty shard
  std::vector<std::vector<TupleId>> mapping;  // per leg: local -> input row

  std::mutex mu;
  std::condition_variable cv;
  enum class Harvest { kPending, kRunning, kDone } harvest = Harvest::kPending;
  Status status;
  std::optional<CleanResult> result;
  bool taken = false;
};

namespace {

/// Single-entry lazy harvest: the first caller runs the protocol, racing
/// callers block on the cv, later callers read the recorded outcome.
void EnsureHarvested(const std::shared_ptr<FleetJob>& job) {
  {
    std::unique_lock<std::mutex> lock(job->mu);
    if (job->harvest == FleetJob::Harvest::kDone) return;
    if (job->harvest == FleetJob::Harvest::kRunning) {
      job->cv.wait(lock,
                   [&] { return job->harvest == FleetJob::Harvest::kDone; });
      return;
    }
    job->harvest = FleetJob::Harvest::kRunning;
  }
  std::optional<CleanResult> result;
  Status status;
  try {
    Result<ShardProtocolResult> out = RunShardProtocol(
        job->fleet->model, &job->tickets, job->mapping,
        std::move(job->assembled), job->opts.collect_report);
    status = out.status();
    if (out.ok()) result = std::move(out->result);
  } catch (...) {
    status = StatusFromCurrentException("fleet harvest failed");
    result.reset();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    job->submitted_at)
          .count();
  {
    std::lock_guard<std::mutex> lock(job->fleet->mu);
    job->fleet->latencies.Add(elapsed);
    if (status.ok()) {
      ++job->fleet->completed;
    } else if (status.IsCancelled()) {
      ++job->fleet->cancelled;
    } else if (status.IsDeadlineExceeded()) {
      ++job->fleet->deadline_expired;
    } else {
      ++job->fleet->failed;
    }
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->status = std::move(status);
    job->result = std::move(result);
    job->harvest = FleetJob::Harvest::kDone;
  }
  job->cv.notify_all();
}

}  // namespace

// ------------------------------------------------------------- FleetTicket

Status FleetTicket::Wait() const {
  EnsureHarvested(job_);
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->status;
}

Result<CleanResult> FleetTicket::Take() {
  EnsureHarvested(job_);
  std::lock_guard<std::mutex> lock(job_->mu);
  if (!job_->status.ok()) return job_->status;
  if (job_->taken || !job_->result.has_value()) {
    return Status::Invalid("result already taken from this fleet ticket");
  }
  job_->taken = true;
  Result<CleanResult> out(std::move(*job_->result));
  job_->result.reset();
  return out;
}

void FleetTicket::Cancel() { job_->opts.cancel.RequestCancel(); }

bool FleetTicket::done() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->harvest == FleetJob::Harvest::kDone;
}

// -------------------------------------------------------------- CleanFleet

Result<CleanFleet> CleanFleet::Create(CleanModel model, ShardRouter router,
                                      FleetOptions options) {
  const size_t k = router.num_shards();
  if (!(router.schema() == model.schema())) {
    return Status::Invalid("shard router schema does not match the model's");
  }
  if (options.executor == nullptr) options.executor = ProcessExecutor();

  auto state = std::make_shared<FleetState>(std::move(model), std::move(router),
                                            std::move(options));
  state->servers.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    ServerOptions sopts;
    sopts.executor = state->options.executor;
    sopts.max_concurrent_sessions = state->options.max_concurrent_sessions;
    sopts.queue_capacity = state->options.queue_capacity;
    MLN_ASSIGN_OR_RETURN(CleanServer server,
                         CleanServer::Create(state->model, sopts));
    state->servers.push_back(std::move(server));
  }
  return CleanFleet(std::move(state));
}

Result<FleetTicket> CleanFleet::Submit(const Dataset& dirty, SessionOptions opts) {
  if (opts.incremental) {
    return Status::Invalid("fleet submissions cannot use the incremental lane");
  }
  if (opts.progress) {
    return Status::Invalid(
        "fleet submissions do not support progress callbacks");
  }
  MLN_ASSIGN_OR_RETURN(ShardedBatch sharded, state_->router.Shard(dirty));

  auto job = std::make_shared<FleetJob>();
  job->fleet = state_;
  job->opts = opts;  // copy: the CancelToken handle is shared with shards
  job->submitted_at = std::chrono::steady_clock::now();
  job->assembled = dirty.Clone();

  for (size_t s = 0; s < state_->servers.size(); ++s) {
    if (sharded.mapping[s].empty()) continue;
    SessionOptions sopts = opts;  // shares cancel; copies the deadline
    sopts.progress = nullptr;
    Result<CleanTicket> leg = state_->servers[s].SubmitStaged(
        std::move(sharded.shards[s]), Stage::kLearn, Stage::kFscr,
        std::move(sopts));
    if (!leg.ok()) {
      // A shard queue refused the fan-out: cancel and drain the legs
      // already shipped, then surface the rejection (kUnavailable —
      // retryable upstream, same as a plain server).
      AbortShardLegs(&job->tickets);
      return leg.status();
    }
    job->tickets.push_back(std::move(*leg));
    job->mapping.push_back(std::move(sharded.mapping[s]));
  }
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->submitted;
  }
  return FleetTicket(std::move(job));
}

FleetStats CleanFleet::Stats() const {
  FleetStats stats;
  std::vector<double> window;
  size_t samples = 0;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    stats.submitted = state_->submitted;
    stats.completed = state_->completed;
    stats.failed = state_->failed;
    stats.cancelled = state_->cancelled;
    stats.deadline_expired = state_->deadline_expired;
    window = state_->latencies.Window();
    samples = state_->latencies.samples();
  }
  stats.latency = SummarizeLatencies(std::move(window), samples);
  stats.shards.reserve(state_->servers.size());
  for (const CleanServer& server : state_->servers) {
    stats.shards.push_back(server.Stats());
  }
  return stats;
}

size_t CleanFleet::num_shards() const { return state_->servers.size(); }

}  // namespace mlnclean

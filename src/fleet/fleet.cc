#include "fleet/fleet.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "cleaning/dedup.h"
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
/// jobs (owning SubmitStaged), so this struct owns no data a server
/// still points at — dropping every ticket handle mid-flight is safe.
struct FleetJob {
  std::shared_ptr<FleetState> fleet;
  SessionOptions opts;
  std::chrono::steady_clock::time_point submitted_at;

  Dataset assembled;                  // clone of the input; merge target
  std::vector<size_t> shipped_sizes;  // dict watermark of the input
  std::vector<std::vector<TupleId>> mapping;  // per shard: local -> input row
  std::vector<size_t> active;         // shard indexes that received rows
  std::vector<CleanTicket> tickets;   // parallel to `active`

  std::mutex mu;
  std::condition_variable cv;
  enum class Harvest { kPending, kRunning, kDone } harvest = Harvest::kPending;
  Status status;
  std::optional<CleanResult> result;
  bool taken = false;
};

namespace {

/// Splices one shard session's decision trace into the fleet report,
/// rewriting shard-local tuple ids to input rows. Value fields carry no
/// ids and pass through.
void SpliceShardReport(const CleaningReport& shard,
                       const std::vector<TupleId>& mapping,
                       CleaningReport* into) {
  for (AgpMergeRecord rec : shard.agp) {
    for (TupleId& t : rec.abnormal_tuples) t = mapping[static_cast<size_t>(t)];
    into->agp.push_back(std::move(rec));
  }
  for (RscRepairRecord rec : shard.rsc) {
    for (TupleId& t : rec.affected_tuples) t = mapping[static_cast<size_t>(t)];
    into->rsc.push_back(std::move(rec));
  }
  for (FscrRecord rec : shard.fscr) {
    rec.tuple = mapping[static_cast<size_t>(rec.tuple)];
    into->fscr.push_back(std::move(rec));
  }
  into->timings.index += shard.timings.index;
  into->timings.agp += shard.timings.agp;
  into->timings.learn += shard.timings.learn;
  into->timings.rsc += shard.timings.rsc;
  into->timings.fscr += shard.timings.fscr;
  into->timings.dedup += shard.timings.dedup;
  into->timings.total += shard.timings.total;
}

/// Error-path teardown: cancel every shard leg, nudge parked legs through
/// a throwaway resume so they reach a terminal state (and release their
/// session), and wait them out. Blocking the aborting caller briefly
/// beats leaking parked sessions for the server's lifetime.
void AbortShardLegs(std::vector<CleanTicket>* tickets) {
  for (CleanTicket& t : *tickets) t.Cancel();
  for (CleanTicket& t : *tickets) {
    if (t.WaitPaused().ok()) {
      t.ResumeJob();  // a cancelled resume leg dies at its first boundary
    }
  }
  for (CleanTicket& t : *tickets) t.Wait();
}

/// The cross-shard protocol, on the harvesting caller's thread. Returns
/// the fleet status; on OK, `*result` holds the assembled output.
Status HarvestLocked(FleetJob* job, std::optional<CleanResult>* result) {
  const size_t k = job->active.size();

  // Barrier 1: every shard leg parked at kLearn (or terminal-failed).
  Status first_bad;
  for (CleanTicket& t : job->tickets) {
    Status st = t.WaitPaused();
    if (!st.ok() && first_bad.ok()) first_bad = st;
  }
  if (!first_bad.ok()) {
    AbortShardLegs(&job->tickets);
    return first_bad;
  }

  // Eq. 6 cross-shard weight merge. Skipped at one shard: merging a
  // single session is semantically the identity, and skipping it keeps
  // the 1-shard fleet bit-identical to a plain server (the (1·w)/1
  // round trip is not an FP no-op).
  if (k > 1) {
    std::vector<CleanSession*> sessions;
    sessions.reserve(k);
    for (CleanTicket& t : job->tickets) sessions.push_back(t.session());
    Result<size_t> merged = job->fleet->model.AdjustWeightsAcross(sessions);
    if (!merged.ok()) {
      AbortShardLegs(&job->tickets);
      return merged.status();
    }
  }

  // Resume every leg to kFscr; a leg that cannot re-enqueue is the only
  // one we must not Wait on (it never reaches a terminal state).
  std::vector<bool> resumed(k, false);
  Status resume_bad;
  for (size_t i = 0; i < k; ++i) {
    Status st = job->tickets[i].ResumeJob();
    resumed[i] = st.ok();
    if (!st.ok() && resume_bad.ok()) resume_bad = st;
  }
  if (!resume_bad.ok()) {
    for (CleanTicket& t : job->tickets) t.Cancel();
  }
  for (size_t i = 0; i < k; ++i) {
    if (!resumed[i]) continue;
    Status st = job->tickets[i].Wait();
    if (!st.ok() && first_bad.ok()) first_bad = st;
  }
  if (!resume_bad.ok()) return resume_bad;
  if (!first_bad.ok()) {
    AbortShardLegs(&job->tickets);
    return first_bad;
  }

  // Reassembly: id-remap merge in shard order (deterministic — merging
  // interns shard-local repairs, so order is part of the contract), then
  // report splicing and the global dedup the shard legs stopped short of.
  CleanResult out;
  for (size_t i = 0; i < k; ++i) {
    const CleanSession* session = job->tickets[i].session();
    MergeShardRows(session->cleaned(), job->mapping[job->active[i]],
                   job->shipped_sizes, &job->assembled);
    if (job->opts.collect_report) {
      SpliceShardReport(session->report(), job->mapping[job->active[i]],
                        &out.report);
    }
  }
  out.cleaned = std::move(job->assembled);
  if (job->fleet->model.options().remove_duplicates) {
    out.deduped = RemoveDuplicates(
        out.cleaned, job->opts.collect_report ? &out.report.duplicates : nullptr);
  } else {
    out.deduped = out.cleaned;
  }
  *result = std::move(out);
  return Status::OK();
}

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
    status = HarvestLocked(job.get(), &result);
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
  if (!options.shard_executors.empty() && options.shard_executors.size() != k) {
    return Status::Invalid("shard_executors must be empty or hold one executor "
                           "per shard (" +
                           std::to_string(k) + ")");
  }
  if (options.executor == nullptr) options.executor = ProcessExecutor();

  auto state = std::make_shared<FleetState>(std::move(model), std::move(router),
                                            std::move(options));
  state->servers.reserve(k);
  for (size_t s = 0; s < k; ++s) {
    ServerOptions sopts;
    sopts.executor = state->options.shard_executors.empty()
                         ? state->options.executor
                         : state->options.shard_executors[s];
    sopts.max_concurrent_sessions = state->options.max_concurrent_sessions;
    sopts.queue_capacity = state->options.queue_capacity;
    sopts.coalesce_max_rows = state->options.coalesce_max_rows;
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
  job->shipped_sizes = ShippedDictSizes(dirty);
  job->mapping = std::move(sharded.mapping);

  for (size_t s = 0; s < state_->servers.size(); ++s) {
    if (job->mapping[s].empty()) continue;
    SessionOptions sopts = opts;  // shares cancel; copies deadline/priority
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
    job->active.push_back(s);
    job->tickets.push_back(std::move(*leg));
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

const ShardRouter& CleanFleet::router() const { return state_->router; }

const CleanModel& CleanFleet::model() const { return state_->model; }

const CleanServer& CleanFleet::shard_server(size_t shard) const {
  return state_->servers[shard];
}

}  // namespace mlnclean

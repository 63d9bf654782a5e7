#include "cleaning/server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"

namespace mlnclean {

/// One submission. The ticket and the worker share it; its own mutex
/// covers only the pause/terminal hand-off (paused/status/result/done),
/// so a ticket waiting on one job never contends with the server's
/// admission lock.
struct ServerJob {
  const Dataset* dirty = nullptr;
  /// Set by the owning Submit overloads; `dirty` then points here.
  std::optional<Dataset> owned;
  SessionOptions opts;

  std::chrono::steady_clock::time_point submitted_at;  // set at admission

  // Every job runs in legs over one session, created on the first leg. A
  // plain job is one leg to `final_stage` = kDedup; a staged job
  // (SubmitStaged) runs its first leg to `pause_after` and parks, and its
  // second leg (after ResumeJob) to `final_stage`. `server` is what
  // ResumeJob re-enqueues into (set only for staged jobs — a plain job
  // never needs the server back).
  std::optional<Stage> pause_after;
  Stage final_stage = Stage::kDedup;
  std::unique_ptr<CleanSession> session;
  std::shared_ptr<ServerState> server;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool paused = false;   // staged: parked at pause_after, session readable
  bool resumed = false;  // staged: ResumeJob already re-enqueued it
  bool done = false;
  Status status;
  std::optional<CleanResult> result;
};

/// State shared by the server handle, its tickets, and the worker tasks
/// scheduled on the executor. Worker tasks hold a shared_ptr, so work
/// drains even after the last CleanServer handle is gone.
struct ServerState {
  ServerState(CleanModel model_in, ServerOptions options_in)
      : model(std::move(model_in)), options(options_in) {}

  const CleanModel model;
  const ServerOptions options;

  std::mutex mu;  // guards everything below
  /// The pending queue, popped from the front: fresh jobs join at the
  /// back, resumed staged legs ahead of every fresh job (see
  /// EnqueueResumed).
  std::deque<std::shared_ptr<ServerJob>> queue;
  size_t workers = 0;  // worker loops scheduled or running
  size_t running = 0;  // jobs currently executing
  ServerStats totals;  // queued/running/latency are derived on snapshot
  /// Submit-to-terminal latencies, recorded under `mu` at job completion;
  /// Stats() copies the window out and sorts outside the lock.
  LatencyReservoir latencies;
};

namespace {

// The one completion of every job. `running` drops in the same critical
// section as the terminal counters, *before* the done flag wakes
// Wait()ers — a caller snapshotting Stats() right after Wait() must never
// see this job still counted as running.
void FinishJob(const std::shared_ptr<ServerState>& state,
               const std::shared_ptr<ServerJob>& job, Status status,
               std::optional<CleanResult> result, const StageTimings& timings) {
  {
    std::lock_guard<std::mutex> lock(state->mu);
    --state->running;
    state->totals.stage_seconds += timings;
    state->latencies.Add(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - job->submitted_at)
                             .count());
    if (status.ok()) {
      ++state->totals.completed;
    } else if (status.IsCancelled()) {
      ++state->totals.cancelled;
    } else if (status.IsDeadlineExceeded()) {
      ++state->totals.deadline_expired;
    } else {
      ++state->totals.failed;
    }
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->status = std::move(status);
    job->result = std::move(result);
    job->done = true;
  }
  job->cv.notify_all();
}

// Runs one leg of `job`: its session to pause_after on the first leg of
// a staged job, else to final_stage. A pausing leg that succeeds parks;
// any other leg is terminal and ends in FinishJob.
void RunJob(const std::shared_ptr<ServerState>& state,
            const std::shared_ptr<ServerJob>& job) {
  Status status;
  std::optional<CleanResult> result;
  StageTimings timings;
  bool park = false;
  // Backstop exception boundary: the session already converts stage and
  // progress-callback exceptions to Status, but anything that still
  // escapes (session construction, result hand-off, injected faults)
  // must become a failed ticket — an exception leaving this frame would
  // take down the executor thread and strand every waiter.
  try {
    MLN_FAILPOINT("server/worker-loop");
    // The worker is the only writer of `session`; legs hand the job off
    // through the queue lock, and the coordinating caller reads it only
    // while the job is parked.
    const bool first_leg = job->session == nullptr;
    if (first_leg) {
      job->session = std::make_unique<CleanSession>(
          state->model.NewSession(*job->dirty, job->opts));
    }
    const bool pausing = first_leg && job->pause_after.has_value();
    CleanSession& session = *job->session;
    status = session.RunUntil(pausing ? *job->pause_after : job->final_stage);
    park = pausing && status.ok();
    if (!park) {
      timings = session.report().timings;
      // With a final stage short of kDedup the outputs deliberately stay
      // on the session — the shard protocol's merge reads
      // session()->cleaned(), there is no CleanResult to move.
      if (status.ok() && job->final_stage == Stage::kDedup) {
        Result<CleanResult> taken = session.TakeResult();
        if (taken.ok()) {
          result = std::move(taken).ValueUnsafe();
        } else {
          status = taken.status();
        }
      }
    }
  } catch (...) {
    status = StatusFromCurrentException("serving job failed");
    result.reset();
  }
  if (park) {
    // Parked OK at the pause stage: wake WaitPaused() callers and leave
    // the job non-terminal. Timings, terminal counters, and the latency
    // sample are all recorded once, when the resumed leg finishes.
    {
      std::lock_guard<std::mutex> lock(state->mu);
      --state->running;
    }
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->paused = true;
    }
    job->cv.notify_all();
    return;
  }
  if (job->final_stage == Stage::kDedup) {
    // The result (if any) has moved out: a finished ticket pins no
    // session and no index. The session is destroyed after the job lock
    // drops (`released` outlives `lock`).
    std::unique_ptr<CleanSession> released;
    std::lock_guard<std::mutex> lock(job->mu);
    released = std::move(job->session);
  }
  FinishJob(state, job, std::move(status), std::move(result), timings);
}

// One worker task: runs queued jobs until the queue is empty, then
// retires. Submit schedules a new worker whenever fewer than
// max_concurrent_sessions are alive, so the worker count breathes with
// the load instead of parking executor threads on an idle server. Jobs
// pop one per lock acquisition from the front of the queue.
void RunWorker(const std::shared_ptr<ServerState>& state) {
  for (;;) {
    std::shared_ptr<ServerJob> job;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->queue.empty()) {
        --state->workers;
        return;
      }
      job = std::move(state->queue.front());
      state->queue.pop_front();
      ++state->running;
    }
    RunJob(state, job);  // decrements `running` when it parks or finishes
  }
}

// Re-admission for a resumed staged job: no capacity check (the job was
// admitted once and merely parked). The leg queues ahead of every fresh
// job, which was admitted after it, and behind the legs resumed before
// it. A queued job has a session exactly when it is a resumed leg: the
// first leg created it, and a fresh job gets one only once popped.
// Shared by CleanTicket::ResumeJob, which has a job handle but no server
// handle.
Status EnqueueResumed(const std::shared_ptr<ServerState>& state,
                      std::shared_ptr<ServerJob> job) {
  bool spawn = false;
  try {
    std::lock_guard<std::mutex> lock(state->mu);
    const auto first_fresh =
        std::find_if(state->queue.begin(), state->queue.end(),
                     [](const std::shared_ptr<ServerJob>& queued) {
                       return queued->session == nullptr;
                     });
    state->queue.insert(first_fresh, std::move(job));
    if (state->workers < state->options.max_concurrent_sessions) {
      ++state->workers;
      spawn = true;
    }
  } catch (...) {
    return StatusFromCurrentException("resume failed");
  }
  if (spawn) {
    state->options.executor->Submit([state] { RunWorker(state); });
  }
  return Status::OK();
}

}  // namespace

// ------------------------------------------------------------- CleanTicket

bool CleanTicket::done() const {
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->done;
}

Status CleanTicket::Wait() const {
  std::unique_lock<std::mutex> lock(job_->mu);
  job_->cv.wait(lock, [this] { return job_->done; });
  return job_->status;
}

Result<CleanResult> CleanTicket::Take() {
  std::unique_lock<std::mutex> lock(job_->mu);
  job_->cv.wait(lock, [this] { return job_->done; });
  if (!job_->status.ok()) return job_->status;
  if (job_->final_stage != Stage::kDedup) {
    return Status::Invalid(std::string("staged ticket's final stage is ") +
                           StageName(job_->final_stage) +
                           ": its outputs stay on the session; there is no result to take");
  }
  if (!job_->result.has_value()) {
    return Status::Invalid("result already taken from this ticket");
  }
  Result<CleanResult> out(std::move(*job_->result));
  job_->result.reset();
  return out;
}

void CleanTicket::Cancel() { job_->opts.cancel.RequestCancel(); }

Status CleanTicket::WaitPaused() const {
  std::unique_lock<std::mutex> lock(job_->mu);
  job_->cv.wait(lock, [this] { return job_->paused || job_->done; });
  return job_->done ? job_->status : Status::OK();
}

CleanSession* CleanTicket::session() const {
  if (!job_->pause_after.has_value()) return nullptr;  // staged-only accessor
  std::lock_guard<std::mutex> lock(job_->mu);
  return job_->session.get();
}

Status CleanTicket::ResumeJob() {
  std::shared_ptr<ServerState> server;
  {
    std::lock_guard<std::mutex> lock(job_->mu);
    if (!job_->pause_after.has_value()) {
      return Status::Invalid("ResumeJob on a ticket that was not staged");
    }
    // Checked before `done`: the resumed leg may already have finished,
    // and a second ResumeJob must still be Invalid, not its status.
    if (job_->resumed) return Status::Invalid("job already resumed");
    if (job_->done) return job_->status;  // the first leg already failed
    if (!job_->paused) {
      return Status::Invalid("job has not reached its pause stage yet");
    }
    job_->resumed = true;
    server = job_->server;
  }
  return EnqueueResumed(server, job_);
}

// ------------------------------------------------------------- CleanServer

Result<CleanServer> CleanServer::Create(CleanModel model, ServerOptions options) {
  if (options.executor == nullptr) options.executor = ProcessExecutor();
  if (options.max_concurrent_sessions == 0) {
    options.max_concurrent_sessions = options.executor->concurrency();
  }
  if (options.queue_capacity == 0) {
    return Status::Invalid("queue_capacity must be at least 1");
  }
  return CleanServer(std::make_shared<ServerState>(std::move(model), options));
}

Result<CleanTicket> CleanServer::Submit(const Dataset& dirty, SessionOptions opts) {
  return Enqueue(&dirty, std::nullopt, std::move(opts), std::nullopt, Stage::kDedup);
}

Result<CleanTicket> CleanServer::Submit(Dataset&& dirty, SessionOptions opts) {
  return Enqueue(nullptr, std::move(dirty), std::move(opts), std::nullopt,
                 Stage::kDedup);
}

Result<CleanTicket> CleanServer::SubmitStaged(const Dataset& dirty,
                                              Stage pause_after,
                                              Stage final_stage,
                                              SessionOptions opts) {
  return Enqueue(&dirty, std::nullopt, std::move(opts), pause_after, final_stage);
}

Result<CleanTicket> CleanServer::SubmitStaged(Dataset&& dirty, Stage pause_after,
                                              Stage final_stage,
                                              SessionOptions opts) {
  return Enqueue(nullptr, std::move(dirty), std::move(opts), pause_after,
                 final_stage);
}

Result<CleanTicket> CleanServer::Enqueue(const Dataset* dirty,
                                         std::optional<Dataset> owned,
                                         SessionOptions opts,
                                         std::optional<Stage> pause_after,
                                         Stage final_stage) {
  if (pause_after.has_value() &&
      static_cast<int>(*pause_after) >= static_cast<int>(final_stage)) {
    return Status::Invalid("pause_after must precede final_stage");
  }
  auto job = std::make_shared<ServerJob>();
  job->owned = std::move(owned);
  job->dirty = job->owned.has_value() ? &*job->owned : dirty;
  job->opts = std::move(opts);
  job->pause_after = pause_after;
  job->final_stage = final_stage;
  if (pause_after.has_value()) job->server = state_;

  bool spawn = false;
  try {
    MLN_FAILPOINT("server/admission");
    std::lock_guard<std::mutex> lock(state_->mu);
    const size_t depth = state_->queue.size();
    if (depth >= state_->options.queue_capacity) {
      ++state_->totals.rejected;
      return Status::Unavailable(
          "server queue is full (" + std::to_string(depth) + " of " +
          std::to_string(state_->options.queue_capacity) +
          " pending submissions); retry later");
    }
    job->submitted_at = std::chrono::steady_clock::now();
    state_->queue.push_back(job);
    ++state_->totals.submitted;
    if (state_->workers < state_->options.max_concurrent_sessions) {
      ++state_->workers;
      spawn = true;
    }
  } catch (...) {
    // The job was not enqueued (push_back is the only throwing statement
    // past the capacity check, and a failed push leaves the deque
    // unchanged), so rejecting here keeps the queue and counters
    // consistent for the next Submit.
    return StatusFromCurrentException("submit failed");
  }
  // Submitted outside the admission lock: an InlineExecutor runs the
  // whole worker loop right here, and it must be free to take that lock.
  if (spawn) {
    std::shared_ptr<ServerState> state = state_;
    state_->options.executor->Submit([state] { RunWorker(state); });
  }
  return CleanTicket(std::move(job));
}

ServerStats CleanServer::Stats() const {
  ServerStats stats;
  std::vector<double> window;
  size_t samples = 0;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    stats = state_->totals;
    stats.queued = state_->queue.size();
    stats.running = state_->running;
    window = state_->latencies.Window();
    samples = state_->latencies.samples();
  }
  // Percentile sort outside the lock: Stats() holds `mu` only for the
  // counter copy and the bounded window memcpy.
  stats.latency = SummarizeLatencies(std::move(window), samples);
  return stats;
}

}  // namespace mlnclean

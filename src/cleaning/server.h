// CleanServer: concurrent multi-session serving of one prepared
// CleanModel on a shared executor — the long-lived service front door the
// paper's deployable-cleaner pitch implies (its Section 6 maps the same
// pipeline onto a Spark worker set; HoloClean-style systems win in
// practice by serving, not batch-scripting).
//
//   CleanServer server = *CleanServer::Create(model, {&executor});
//   CleanTicket t1 = *server.Submit(batch1);       // non-blocking
//   CleanTicket t2 = *server.Submit(batch2, opts); // runs concurrently
//   CleanResult r1 = *t1.Take();                   // future-style harvest
//
// Submission is asynchronous; at most `max_concurrent_sessions` jobs run
// at a time, each as one task on the shared executor. The pending queue
// is FIFO: submissions run in submit order, and a resumed staged leg
// (ResumeJob) runs ahead of every queued submission, behind legs resumed
// before it. Deadlines stop a run; they do not reorder the queue.
// When the pending queue is full, Submit returns
// StatusCode::kUnavailable immediately (backpressure — the caller sheds
// or retries; nothing blocks). Every ticket carries its session's
// CancelToken and optional deadline, both enforced cooperatively at
// block/shard boundaries, and `Stats()` reports queue depth, terminal
// counts, cumulative per-stage seconds, and ticket-latency percentiles
// from a fixed-size reservoir.
//
// Staged submissions (`SubmitStaged`) are the coordination primitive of
// the cross-shard protocol (RunShardProtocol in distributed/shard_merge.h,
// run by the fleet and the distributed driver): the job runs to a pause
// stage, parks with its live session exposed through the ticket
// (`WaitPaused` + `session()`), and re-enters the queue on `ResumeJob()`
// to run to its final stage — which is exactly the RunUntil(kLearn) /
// AdjustWeightsAcross / resume cut the Eq. 6 cross-shard weight merge
// needs. Every cold-lane job runs this way: a plain submission is a
// staged one with no pause and final stage kDedup, and every job on
// either lane ends in one shared completion (terminal counters, stage
// seconds, latency sample, then the ticket's done flag).
//
// Determinism: with weight reuse off (or a warmed, no-longer-written
// store), K sessions served concurrently produce results bit-identical to
// K sequential cold runs of the same batches — sessions share nothing
// mutable but the lock-protected weight store, and every stage driver is
// executor-agnostic by construction. tests/cleaning/server_test.cc pins
// this under ThreadSanitizer in CI.
//
// Incremental lane: submissions with SessionOptions::incremental set feed
// one live row-incremental session (CleanModel::NewIncrementalSession)
// through a dedicated FIFO drained by a single task, so batches append in
// strict submission order and each ticket resolves to the *accumulated*
// cleaned output over every batch appended so far — bit-identical to a
// cold session over the concatenation (docs/streaming.md). The lane adds
// at most one concurrently executing session on top of
// max_concurrent_sessions and shares queue_capacity: admission counts the
// pending jobs of both lanes against the one capacity.

#ifndef MLNCLEAN_CLEANING_SERVER_H_
#define MLNCLEAN_CLEANING_SERVER_H_

#include <memory>
#include <optional>

#include "cleaning/engine.h"
#include "common/executor.h"
#include "common/latency_reservoir.h"
#include "common/result.h"
#include "common/retry.h"

namespace mlnclean {

struct ServerJob;    // internal per-submission state (server.cc)
struct ServerState;  // internal shared server state (server.cc)

/// Server tuning knobs.
struct ServerOptions {
  /// Worker set sessions run on. Null = the shared process executor.
  /// Borrowed; must outlive the server and every outstanding ticket.
  /// With an InlineExecutor, Submit degrades gracefully to synchronous
  /// execution (it returns a completed ticket). Note the split: this
  /// executor schedules *sessions*; the parallelism *inside* a session
  /// follows the model's own CleaningOptions (executor / num_threads) —
  /// point both at the same pool to share one worker set end to end.
  Executor* executor = nullptr;
  /// Sessions allowed to execute simultaneously. 0 = the executor's
  /// concurrency. More concurrent sessions than executor workers simply
  /// queue inside the executor.
  size_t max_concurrent_sessions = 0;
  /// Submissions allowed to wait for a session slot, summed over the
  /// cold and incremental lanes. A Submit that would push the pending
  /// jobs past this returns kUnavailable.
  size_t queue_capacity = 64;
};

/// A snapshot of server counters (all since Create).
struct ServerStats {
  size_t queued = 0;     // submitted, not yet running
  size_t running = 0;    // sessions currently executing
  size_t submitted = 0;  // admitted submissions (excludes kUnavailable)
  size_t completed = 0;  // finished OK
  size_t failed = 0;     // finished with an error status
  size_t cancelled = 0;  // finished kCancelled
  size_t deadline_expired = 0;  // finished kDeadlineExceeded
  size_t rejected = 0;   // Submits refused with kUnavailable (queue full)
  /// Cumulative wall seconds spent per stage across every finished
  /// session (partial stages of cancelled/expired sessions included).
  StageTimings stage_seconds;
  /// Submit-to-terminal ticket latency percentiles over a sliding window
  /// of the last 1024 finished jobs (common/latency_reservoir.h; the
  /// percentile sort runs on the Stats() caller, outside the server
  /// lock). `latency.samples` counts all-time finished jobs.
  LatencySnapshot latency;
};

/// Future-style handle to one submitted cleaning job. Cheap to copy (a
/// shared handle); the last copy going away never blocks — the job keeps
/// itself alive until it finishes.
class CleanTicket {
 public:
  /// True once the job reached a terminal state.
  bool done() const;

  /// Blocks until terminal; returns the final status (OK, kCancelled,
  /// kDeadlineExceeded, or the failure).
  Status Wait() const;

  /// Wait() + move the result out (or return the terminal error). Like
  /// CleanSession::TakeResult, the result can be taken exactly once —
  /// later calls return kInvalid.
  Result<CleanResult> Take();

  /// Requests cooperative cancellation of this job (same semantics as
  /// the session CancelToken: the run stops at the next block/shard
  /// boundary; a still-queued job cancels when it reaches a worker).
  void Cancel();

  // ---- staged tickets (SubmitStaged) -------------------------------------

  /// Blocks until a staged job parks at its pause stage (returns OK) or
  /// reaches a terminal state first (returns that status — the pause
  /// point was never reached). On a plain ticket this is Wait().
  Status WaitPaused() const;

  /// The parked live session of a staged job — valid between a WaitPaused
  /// that returned OK and the matching ResumeJob(), exclusively for the
  /// coordinating caller (inspect weights, AdjustWeightsAcross). Null for
  /// plain tickets. With a final stage short of kDedup the session lives
  /// until the last ticket handle drops (its outputs stay on it); with
  /// kDedup it is released once the result has moved into the ticket.
  /// Must not be touched while the server is running it.
  CleanSession* session() const;

  /// Re-enqueues a parked staged job to run to its final stage. Bypasses
  /// the admission capacity check (the job was admitted once) and queues
  /// ahead of every fresh submission, behind legs resumed earlier. Invalid on
  /// plain tickets, before the pause point, or twice; returns the
  /// terminal status if the first leg already failed.
  Status ResumeJob();

 private:
  friend class CleanServer;
  explicit CleanTicket(std::shared_ptr<ServerJob> job) : job_(std::move(job)) {}
  std::shared_ptr<ServerJob> job_;
};

/// The serving front door. Cheap to copy (a shared handle). Destroying
/// the last handle does not abort outstanding work: queued and running
/// jobs finish (they pin the shared state), only new submissions become
/// impossible. The datasets behind outstanding tickets are borrowed and
/// must stay alive until their tickets are terminal — unless submitted
/// through the owning overloads (Submit(Dataset&&), SubmitStaged(Dataset&&)),
/// where the job keeps the batch alive itself.
class CleanServer {
 public:
  /// Validates `options` and returns a server over `model`.
  static Result<CleanServer> Create(CleanModel model, ServerOptions options = {});

  /// Enqueues one batch for cleaning and returns its ticket without
  /// waiting for execution. `dirty` is borrowed (the session contract)
  /// and must outlive the ticket's terminal state. Fails with
  /// kUnavailable when the pending queue is at capacity. `opts` is the
  /// per-session configuration (progress callback — which fires on the
  /// executor thread serving this job — cancel token, deadline, weight
  /// reuse); the ticket's Cancel() shares `opts.cancel`.
  Result<CleanTicket> Submit(const Dataset& dirty, SessionOptions opts = {});

  /// Owning Submit: the batch moves into the job, so the caller needs no
  /// dataset outliving the ticket.
  Result<CleanTicket> Submit(Dataset&& dirty, SessionOptions opts = {});

  /// Submit with capped-exponential-backoff retries on retryable
  /// rejections (kUnavailable backpressure, kResourceExhausted). Sleeps
  /// between attempts on the calling thread; the delay sequence is
  /// RetrySchedule(policy) — deterministic, so retried runs reproduce.
  /// On an uncontended server the first attempt is admitted and no delay
  /// is ever drawn, making this byte-identical to plain Submit.
  /// `retries_out` (optional) receives the number of retries performed.
  Result<CleanTicket> SubmitWithRetry(const Dataset& dirty, SessionOptions opts = {},
                                      const RetryPolicy& policy = {},
                                      size_t* retries_out = nullptr);

  /// Staged submission: the job runs RunUntil(pause_after), parks with
  /// its live session reachable via CleanTicket::session() (after
  /// WaitPaused()), and on CleanTicket::ResumeJob() re-enters the queue
  /// to run RunUntil(final_stage). `pause_after` must precede
  /// `final_stage`; the incremental lane does not support staging. With
  /// final_stage == Stage::kDedup the ticket resolves to a CleanResult
  /// like a plain submission; with an earlier final stage the outputs
  /// stay on the session (Take() has nothing to move) — the shard
  /// protocol's merge reads session()->cleaned() directly.
  Result<CleanTicket> SubmitStaged(const Dataset& dirty, Stage pause_after,
                                   Stage final_stage, SessionOptions opts = {});

  /// Owning SubmitStaged: the batch moves into the job (the fleet ships
  /// routed shards this way, so a fleet ticket never borrows).
  Result<CleanTicket> SubmitStaged(Dataset&& dirty, Stage pause_after,
                                   Stage final_stage, SessionOptions opts = {});

  /// Counter snapshot (queue depth, terminal counts, stage seconds).
  ServerStats Stats() const;

 private:
  explicit CleanServer(std::shared_ptr<ServerState> state)
      : state_(std::move(state)) {}
  /// Builds the job behind every Submit/SubmitStaged overload — over
  /// `owned` when set, else the borrowed `dirty` — validates staging (an
  /// empty `pause_after` is a plain job), and admits it.
  Result<CleanTicket> Enqueue(const Dataset* dirty, std::optional<Dataset> owned,
                              SessionOptions opts, std::optional<Stage> pause_after,
                              Stage final_stage);
  std::shared_ptr<ServerState> state_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_CLEANING_SERVER_H_

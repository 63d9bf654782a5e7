// CleanFleet: one logical cleaning service over N shards — the scale-out
// layer of the serving stack (docs/fleet.md).
//
// A fleet fronts M CleanServer instances, every one serving the same
// prepared CleanModel (typically loaded from one snapshot). Submit routes
// the incoming batch through the fleet's ShardRouter, ships each
// non-empty shard to its server as a *staged* submission paused at
// Stage::kLearn, and returns a FleetTicket. Harvesting the ticket drives
// the cross-shard protocol (kLearn on every shard, the Eq. 6 weight
// merge, kFscr on every shard, reassembly and global dedup) through
// RunShardProtocol (distributed/shard_merge.h), the same function the
// distributed driver runs its parts through.
//
// The Eq. 6 barrier is what makes a fleet more than N independent
// servers: every shard repairs with the support-weighted global γ
// weights, exactly like the paper's Section 6 worker set.
//
// Determinism contract: a 1-shard fleet is bit-identical to a plain
// CleanServer over the same model and batches, at any thread count and
// with weight reuse on or off (the Eq. 6 barrier is skipped at one shard
// — merging one session is the identity, and skipping it avoids the
// (1·w)/1 floating-point round trip). Multi-shard results are
// bit-identical across processes, thread counts, and executors for a
// fixed router; they differ from the 1-shard result in general,
// because grounding sees per-shard groups (same trade as the distributed
// driver).
//
// Coordination runs on the *harvesting caller's* thread, never as an
// executor task — a coordinator blocking on shard tickets from inside
// the shared pool could deadlock a 1-thread executor; a caller thread
// cannot. Shard-stage work runs server-side as usual.
//
// Cancellation/deadline fan out through the shared SessionOptions: the
// ticket's Cancel() (or the caller's own CancelToken handle) stops every
// shard at its next block/shard boundary, and a deadline is enforced
// per shard. A shard failure aborts its siblings through that same
// shared token, so one token should not be reused across independent
// submissions.

#ifndef MLNCLEAN_FLEET_FLEET_H_
#define MLNCLEAN_FLEET_FLEET_H_

#include <memory>
#include <vector>

#include "cleaning/server.h"
#include "fleet/shard_router.h"

namespace mlnclean {

struct FleetJob;    // internal per-submission state (fleet.cc)
struct FleetState;  // internal shared fleet state (fleet.cc)

/// Fleet tuning knobs. Per-server knobs apply to every shard server.
struct FleetOptions {
  /// Executor the shard servers schedule sessions on. Null = the shared
  /// process executor. Borrowed; must outlive the fleet and every
  /// outstanding ticket.
  Executor* executor = nullptr;
  /// Per shard server: sessions allowed to execute simultaneously
  /// (0 = that server executor's concurrency).
  size_t max_concurrent_sessions = 0;
  /// Per shard server: pending-queue capacity. A Submit whose shard
  /// fan-out hits a full shard queue fails with kUnavailable (the
  /// already-fanned shard jobs are cancelled).
  size_t queue_capacity = 64;
};

/// Fleet-level counter snapshot plus the per-shard server views.
struct FleetStats {
  size_t submitted = 0;         // fleet tickets admitted
  size_t completed = 0;         // fleet tickets harvested OK
  size_t failed = 0;            // harvested with an error status
  size_t cancelled = 0;         // harvested kCancelled
  size_t deadline_expired = 0;  // harvested kDeadlineExceeded
  /// Submit-to-harvest fleet ticket latency percentiles (sliding
  /// reservoir window, like ServerStats::latency).
  LatencySnapshot latency;
  /// Stats() of every shard server, in shard order — per-shard queue
  /// depth, terminal counts, and ticket-latency percentiles.
  std::vector<ServerStats> shards;
};

/// Handle to one fleet submission. Cheap to copy (a shared handle).
/// Harvesting is *lazy and caller-driven*: the first Wait()/Take() runs
/// the cross-shard barrier, merge, and reassembly on the calling thread
/// (concurrent harvesters of the same ticket are serialized; later calls
/// return the recorded outcome). Dropping every handle without
/// harvesting abandons the submission: shard legs already queued run to
/// their pause and are discarded.
class FleetTicket {
 public:
  /// Drives the job to its terminal state (see class comment) and
  /// returns the final status.
  Status Wait() const;

  /// Wait() + move the assembled CleanResult out; like
  /// CleanTicket::Take, the result can be taken exactly once.
  Result<CleanResult> Take();

  /// Cooperative fleet-wide cancel: every shard leg stops at its next
  /// block/shard boundary (shares the submission's CancelToken).
  void Cancel();

  /// True once a harvest has completed (never blocks).
  bool done() const;

 private:
  friend class CleanFleet;
  explicit FleetTicket(std::shared_ptr<FleetJob> job) : job_(std::move(job)) {}
  std::shared_ptr<FleetJob> job_;
};

/// The sharded serving front door. Cheap to copy (a shared handle);
/// outstanding tickets pin the fleet state, so harvesting stays valid
/// after the last fleet handle drops.
class CleanFleet {
 public:
  /// Validates `options`, checks the router against the model's schema,
  /// and spins up one CleanServer per router shard over `model`.
  static Result<CleanFleet> Create(CleanModel model, ShardRouter router,
                                   FleetOptions options = {});

  /// Routes `dirty` across the shards and fans the shard jobs out as
  /// staged submissions. Unlike CleanServer::Submit, `dirty` is only
  /// *read* during this call (routed shard copies ship to the servers;
  /// the result is assembled into a clone), so the caller's dataset need
  /// not outlive the ticket. `opts.progress` is not supported at fleet
  /// level; the caller's deadline, cancel token and weight flags apply to
  /// every shard leg.
  Result<FleetTicket> Submit(const Dataset& dirty, SessionOptions opts = {});

  /// Fleet counters plus every shard server's Stats(), in shard order.
  FleetStats Stats() const;

  size_t num_shards() const;

 private:
  explicit CleanFleet(std::shared_ptr<FleetState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<FleetState> state_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_FLEET_FLEET_H_

// Executor: the process-wide execution abstraction behind every parallel
// stage driver. A long-lived pool per distinct thread count would, with
// the serving layer running many sessions at once, multiply pools and
// oversubscribe the host. So there is one interface (`Executor`), two
// implementations (`InlineExecutor`, `PoolExecutor`), one shared process
// pool (`ProcessExecutor()`), and `ParallelFor` is a thin helper over an
// `Executor*`: the calling thread always participates in the loop, so
// nested ParallelFor calls on one shared pool (a CleanServer session
// running its stage drivers on the same executor that scheduled the
// session) can never deadlock — even if no pool worker ever picks the
// subtasks up, the caller drains the index space itself.
//
// ExecContext bundles what a stage driver needs from its caller: the
// executor, a worker cap, the cooperative cancellation flag and an
// optional deadline (both polled at block/shard boundaries via
// `Stopped()`). Progress is not the executor's business: a session
// reports each stage's begin and end itself, on its driving thread.

#ifndef MLNCLEAN_COMMON_EXECUTOR_H_
#define MLNCLEAN_COMMON_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace mlnclean {

/// Where tasks run. Implementations must be thread-safe: any thread may
/// Submit, including a task already running on the executor.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Schedules `fn`. May run it inline (InlineExecutor) or on a worker
  /// thread; must never block on other queued tasks.
  virtual void Submit(std::function<void()> fn) = 0;

  /// Number of worker threads (1 for inline). A parallelism hint: callers
  /// submitting fan-out work should not submit more concurrent tasks.
  virtual size_t concurrency() const = 0;
};

/// Runs every task inline on the submitting thread. The sequential
/// executor; also the zero-dependency fallback everywhere an ExecContext
/// is default-constructed.
class InlineExecutor : public Executor {
 public:
  void Submit(std::function<void()> fn) override { fn(); }
  size_t concurrency() const override { return 1; }
};

/// A fixed-size worker pool with a FIFO task queue. `num_threads`
/// workers (at least 1) spawn at construction; destruction runs every
/// task still queued, then joins them. An exception escaping a task
/// terminates the process (like an unhandled exception on any thread),
/// so callers wrap fallible work themselves.
class PoolExecutor : public Executor {
 public:
  explicit PoolExecutor(size_t num_threads);
  ~PoolExecutor() override;

  PoolExecutor(const PoolExecutor&) = delete;
  PoolExecutor& operator=(const PoolExecutor&) = delete;

  void Submit(std::function<void()> fn) override;
  size_t concurrency() const override { return threads_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;  // signals workers: work available / stop
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

/// The shared process-wide pool, sized to the hardware concurrency and
/// created on first use (intentionally leaked at exit, like the old
/// per-thread-count pools — one pool per process, not one per distinct
/// thread count). This is what `CleaningOptions::ResolvedExecutor()`
/// hands to stage drivers when no explicit executor is configured.
Executor* ProcessExecutor();

/// The shared inline (sequential) executor.
Executor* SequentialExecutor();

/// Everything a stage driver needs from its caller. Default-constructed:
/// sequential, no cancellation, no deadline.
struct ExecContext {
  /// Null means inline (sequential) execution.
  Executor* executor = nullptr;
  /// Caps the worker tasks a single ParallelFor submits (0 = the
  /// executor's concurrency). Lets a shared pool serve callers with
  /// different configured `num_threads` without dedicated pools.
  size_t max_workers = 0;
  /// Cooperative cancellation flag, polled at block/shard boundaries.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional deadline, also polled at block/shard boundaries.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  /// Worker parallelism this context may use (>= 1).
  size_t parallelism() const {
    size_t p = executor != nullptr ? executor->concurrency() : 1;
    if (max_workers != 0 && max_workers < p) p = max_workers;
    return p > 0 ? p : 1;
  }

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
  bool deadline_expired() const {
    return has_deadline && std::chrono::steady_clock::now() >= deadline;
  }
  /// True when the driver should stop at the next block/shard boundary
  /// (cancellation requested or deadline passed).
  bool Stopped() const { return cancelled() || deadline_expired(); }

  /// The terminal Status for a stop observed at a boundary: kCancelled
  /// for an explicit cancel (which wins even when the deadline has also
  /// passed — the user asked first), kDeadlineExceeded otherwise. Every
  /// driver that reports its own stop derives the Status here, so
  /// deadline-only stops are never misattributed as cancellations.
  Status StopStatus(const std::string& what) const {
    if (cancelled()) return Status::Cancelled(what + " cancelled");
    return Status::DeadlineExceeded(what + " aborted: deadline expired");
  }
};

/// Runs `fn(i)` for i in [0, n) and waits for completion. Worker tasks
/// come from `ctx.executor` (capped by `ctx.max_workers`), indices are
/// handed out dynamically for load balance, and the calling thread always
/// participates — see the deadlock note at the top of this header. `fn`
/// must be safe to call concurrently; exceptions stop the loop early and
/// the first one is rethrown on the caller. With a null/inline executor,
/// a parallelism of 1 or n == 1 the loop runs inline in index order with
/// zero overhead: this is the one sequential loop of every stage driver.
void ParallelFor(size_t n, const ExecContext& ctx, const std::function<void(size_t)>& fn);

/// ParallelFor with a bare executor and no cancellation.
void ParallelFor(size_t n, Executor* executor, const std::function<void(size_t)>& fn);

}  // namespace mlnclean

#endif  // MLNCLEAN_COMMON_EXECUTOR_H_

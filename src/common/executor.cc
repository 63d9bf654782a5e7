#include "common/executor.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/failpoint.h"

namespace mlnclean {

PoolExecutor::PoolExecutor(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

PoolExecutor::~PoolExecutor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void PoolExecutor::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void PoolExecutor::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

Executor* ProcessExecutor() {
  // Leaked on purpose: the workers live for the process, exactly like the
  // old per-thread-count shared pools, but there is only ever this one.
  static PoolExecutor* pool = new PoolExecutor(
      std::max<size_t>(1, std::thread::hardware_concurrency()));
  return pool;
}

Executor* SequentialExecutor() {
  static InlineExecutor inline_executor;
  return &inline_executor;
}

namespace {

// State shared between the ParallelFor caller and its worker tasks. Kept
// alive by shared_ptr because a worker task may be dequeued after the
// caller has already drained the index space and returned — such a task
// observes next >= n and exits without ever dereferencing `fn`, which
// lives on the caller's stack.
struct LoopState {
  explicit LoopState(size_t n_in, const std::function<void(size_t)>* fn_in)
      : n(n_in), fn(fn_in) {}

  const size_t n;
  const std::function<void(size_t)>* const fn;  // valid only while the caller waits
  std::atomic<size_t> next{0};

  std::mutex mu;
  std::condition_variable cv;
  size_t started = 0;   // worker tasks that began their claim loop
  size_t finished = 0;  // worker tasks that completed it
  std::exception_ptr error;

  // Claims and runs indices until the space is exhausted. Returns the
  // first exception thrown by `fn` on this thread, if any.
  std::exception_ptr Drain() {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return nullptr;
      try {
        MLN_FAILPOINT("parallel-for/block");
        (*fn)(i);
      } catch (...) {
        next.store(n, std::memory_order_relaxed);  // stop handing out work
        return std::current_exception();
      }
    }
  }

  void RecordError(std::exception_ptr e) {
    if (e == nullptr) return;
    std::lock_guard<std::mutex> lock(mu);
    if (!error) error = std::move(e);
  }
};

}  // namespace

void ParallelFor(size_t n, const ExecContext& ctx,
                 const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t parallelism = ctx.parallelism();
  if (parallelism <= 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      MLN_FAILPOINT("parallel-for/block");
      fn(i);
    }
    return;
  }

  auto state = std::make_shared<LoopState>(n, &fn);
  // The caller is one of the workers, so submit at most parallelism - 1
  // tasks; more tasks than remaining indices would be pure no-ops.
  const size_t tasks = std::min(parallelism - 1, n - 1);
  for (size_t t = 0; t < tasks; ++t) {
    ctx.executor->Submit([state] {
      {
        std::lock_guard<std::mutex> lock(state->mu);
        ++state->started;
      }
      // Nothing may escape this task into the executor's run loop (an
      // uncaught exception on a pool thread is std::terminate): the
      // dispatch failpoint and Drain both resolve to an exception_ptr
      // handed back to the driving thread.
      std::exception_ptr error;
      try {
        MLN_FAILPOINT("executor/worker-task");
        error = state->Drain();
      } catch (...) {
        error = std::current_exception();
      }
      state->RecordError(std::move(error));
      {
        std::lock_guard<std::mutex> lock(state->mu);
        ++state->finished;
        if (state->finished == state->started) state->cv.notify_all();
      }
    });
  }

  state->RecordError(state->Drain());

  // Wait until no started worker is still inside its claim loop. Tasks
  // that never started cannot touch an index any more (the space is
  // exhausted) and only bump started/finished when the pool eventually
  // runs them — the shared state outlives this frame for exactly that.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->finished == state->started; });
    error = state->error;
  }
  if (error) std::rethrow_exception(error);
}

void ParallelFor(size_t n, Executor* executor,
                 const std::function<void(size_t)>& fn) {
  ExecContext ctx;
  ctx.executor = executor;
  ParallelFor(n, ctx, fn);
}

}  // namespace mlnclean

#include "common/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace mlnclean {
namespace {

TEST(ExecutorTest, InlineExecutorRunsSubmittedTaskInline) {
  InlineExecutor ex;
  std::thread::id ran_on;
  ex.Submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_EQ(ex.concurrency(), 1u);
}

TEST(ExecutorTest, PoolExecutorRunsAllTasks) {
  std::atomic<int> counter{0};
  {
    PoolExecutor ex(4);
    EXPECT_EQ(ex.concurrency(), 4u);
    for (int i = 0; i < 100; ++i) {
      ex.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destruction drains the queue and joins
  EXPECT_EQ(counter.load(), 100);
}

TEST(ExecutorTest, PoolExecutorHasAtLeastOneWorker) {
  PoolExecutor ex(0);
  EXPECT_EQ(ex.concurrency(), 1u);
  std::atomic<bool> ran{false};
  ex.Submit([&ran] { ran = true; });
  while (!ran.load()) std::this_thread::yield();
}

TEST(ExecutorTest, PoolExecutorDestructionDrainsQueuedTasks) {
  // The single worker is parked on the first task until a releaser frees
  // it 20 ms later, by which time destruction has begun with the other 50
  // still queued; every one of them must still run.
  std::atomic<bool> release{false};
  std::atomic<int> counter{0};
  std::thread releaser;
  {
    PoolExecutor ex(1);
    ex.Submit([&release] {
      while (!release.load()) std::this_thread::yield();
    });
    for (int i = 0; i < 50; ++i) {
      ex.Submit([&counter] { counter.fetch_add(1); });
    }
    releaser = std::thread([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release = true;
    });
  }
  releaser.join();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ExecutorTest, ProcessExecutorIsOneSharedInstance) {
  Executor* a = ProcessExecutor();
  Executor* b = ProcessExecutor();
  EXPECT_EQ(a, b);
  EXPECT_GE(a->concurrency(), 1u);
  EXPECT_EQ(SequentialExecutor(), SequentialExecutor());
  EXPECT_EQ(SequentialExecutor()->concurrency(), 1u);
}

TEST(ParallelForTest, CoversAllIndices) {
  PoolExecutor ex(4);
  std::vector<int> hits(1000, 0);
  ParallelFor(hits.size(), &ex, [&hits](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, ZeroItemsNoop) {
  PoolExecutor ex(4);
  ParallelFor(0, &ex, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, NullExecutorRunsInOrder) {
  std::vector<int> order;
  ParallelFor(5, static_cast<Executor*>(nullptr),
              [&order](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, InlineExecutorRunsInOrder) {
  InlineExecutor ex;
  std::vector<int> order;
  ParallelFor(5, &ex, [&order](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MaxWorkersCapsButStillCovers) {
  PoolExecutor ex(8);
  ExecContext ctx;
  ctx.executor = &ex;
  ctx.max_workers = 2;
  EXPECT_EQ(ctx.parallelism(), 2u);
  std::atomic<int> sum{0};
  ParallelFor(100, ctx, [&sum](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelForTest, NestedOnSameExecutorDoesNotDeadlock) {
  // The deadlock scenario of a shared pool: outer loops occupy every
  // worker, inner loops submit to the same saturated pool. The caller
  // always participates, so nesting completes regardless of pool size.
  PoolExecutor ex(2);
  std::atomic<int> counter{0};
  ParallelFor(8, &ex, [&](size_t) {
    ParallelFor(8, &ex, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelForTest, ExceptionPropagatesAndStopsEarly) {
  PoolExecutor ex(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      ParallelFor(1000, &ex,
                  [&](size_t i) {
                    if (i == 3) throw std::runtime_error("boom");
                    ran.fetch_add(1);
                  }),
      std::runtime_error);
  EXPECT_LT(ran.load(), 1000);
}

TEST(ExecContextTest, StoppedReflectsCancelAndDeadline) {
  ExecContext ctx;
  EXPECT_FALSE(ctx.Stopped());

  std::atomic<bool> flag{false};
  ctx.cancel = &flag;
  EXPECT_FALSE(ctx.Stopped());
  flag.store(true);
  EXPECT_TRUE(ctx.Stopped());
  flag.store(false);

  ctx.has_deadline = true;
  ctx.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  EXPECT_FALSE(ctx.Stopped());
  ctx.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  EXPECT_TRUE(ctx.Stopped());
  EXPECT_TRUE(ctx.deadline_expired());
  EXPECT_FALSE(ctx.cancelled());
}

// A sink that records the consumer-side observations.
struct RecordingSink : ProgressSink {
  std::atomic<size_t> ticks{0};
  std::vector<size_t> polled;
  void Tick(size_t units) override { ticks.fetch_add(units); }
  void Poll() override { polled.push_back(ticks.load()); }
};

TEST(ParallelForTest, ProgressSinkTicksAndPollsOnCaller) {
  PoolExecutor ex(4);
  RecordingSink sink;
  ExecContext ctx;
  ctx.executor = &ex;
  ctx.progress = &sink;
  ParallelFor(64, ctx, [&](size_t) { ctx.Tick(1); });
  EXPECT_EQ(sink.ticks.load(), 64u);
  // Poll happened at least once (final flush), always on this thread, and
  // observed a monotone counter.
  ASSERT_FALSE(sink.polled.empty());
  for (size_t i = 1; i < sink.polled.size(); ++i) {
    EXPECT_GE(sink.polled[i], sink.polled[i - 1]);
  }
  EXPECT_EQ(sink.polled.back(), 64u);
}

}  // namespace
}  // namespace mlnclean

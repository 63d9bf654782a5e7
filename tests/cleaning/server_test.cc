#include "cleaning/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "errorgen/injector.h"
#include "testing/same_report.h"

namespace mlnclean {
namespace {

using testing::ExpectSameReport;

struct ServingCase {
  Workload wl;
  DirtyDataset dd;
  std::vector<Dataset> batches;
};

ServingCase MakeServingCase(uint64_t seed, size_t num_batches) {
  HospitalConfig config;
  config.num_hospitals = 30;
  config.num_measures = 10;
  Workload wl = *MakeHospitalWorkload(config);
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.seed = seed;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
  std::vector<Dataset> batches = SplitIntoBatches(dd.dirty, num_batches);
  return ServingCase{std::move(wl), std::move(dd), std::move(batches)};
}

CleaningOptions ServingOptions() {
  CleaningOptions options;
  options.agp_threshold = 3;
  return options;
}

// The serving invariant (reuse off): K sessions running concurrently on
// the shared executor are bit-identical to K sequential cold runs.
TEST(CleanServerTest, ConcurrentSessionsMatchSequentialColdRuns) {
  ServingCase c = MakeServingCase(31, 8);
  CleaningOptions options = ServingOptions();
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);

  PoolExecutor pool(4);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 4;
  sopts.queue_capacity = c.batches.size();
  CleanServer server = *CleanServer::Create(model, sopts);

  std::vector<CleanTicket> tickets;
  for (const Dataset& batch : c.batches) {
    auto ticket = server.Submit(batch);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  CleaningEngine cold(options);
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto served = tickets[i].Take();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    auto reference = cold.Clean(c.batches[i], c.wl.rules);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(served->cleaned, reference->cleaned) << "batch " << i;
    EXPECT_EQ(served->deduped, reference->deduped) << "batch " << i;
    ExpectSameReport(served->report, reference->report);
  }

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, c.batches.size());
  EXPECT_EQ(stats.completed, c.batches.size());
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_GT(stats.stage_seconds.total, 0.0);
  EXPECT_GT(stats.stage_seconds.fscr, 0.0);
}

// Same invariant with weight reuse on against a warmed (and from then on
// read-only) store — and with the sessions themselves parallel on the
// same pool the server schedules on (nested ParallelFor).
TEST(CleanServerTest, ConcurrentReuseSessionsMatchSequentialWarmRuns) {
  ServingCase c = MakeServingCase(33, 8);
  PoolExecutor pool(4);
  CleaningOptions options = ServingOptions();
  options.executor = &pool;
  options.num_threads = 2;
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  ASSERT_TRUE(model.Warm(c.batches[0]).ok());

  SessionOptions reuse;
  reuse.reuse_model_weights = true;

  // Sequential reference first; the store is warmed and never written
  // again (reuse sessions do not contribute), so order cannot matter.
  std::vector<CleanResult> reference;
  for (const Dataset& batch : c.batches) {
    auto result = model.Clean(batch, reuse);
    ASSERT_TRUE(result.ok());
    reference.push_back(std::move(*result));
  }

  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 4;
  sopts.queue_capacity = c.batches.size();
  CleanServer server = *CleanServer::Create(model, sopts);
  std::vector<CleanTicket> tickets;
  for (const Dataset& batch : c.batches) {
    tickets.push_back(*server.Submit(batch, reuse));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    auto served = tickets[i].Take();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->cleaned, reference[i].cleaned) << "batch " << i;
    EXPECT_EQ(served->deduped, reference[i].deduped) << "batch " << i;
    ExpectSameReport(served->report, reference[i].report);
  }
}

// A latch the tests use to park a job inside its first progress event.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  void Enter() {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return released; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

TEST(CleanServerTest, FullQueueReturnsUnavailable) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(dirty.schema(),
                                                      *SampleHospitalRules());
  PoolExecutor pool(1);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 1;
  sopts.queue_capacity = 1;
  CleanServer server = *CleanServer::Create(model, sopts);

  Gate gate;
  SessionOptions blocking;
  blocking.progress = [&gate](const StageProgress& p) {
    if (p.stage == Stage::kIndex && p.units_done == 0) gate.Enter();
  };
  auto running = server.Submit(dirty, blocking);
  ASSERT_TRUE(running.ok());
  gate.AwaitEntered();  // the one worker is now parked inside the job

  auto queued = server.Submit(dirty);  // fills the pending queue
  ASSERT_TRUE(queued.ok());
  auto rejected = server.Submit(dirty);  // overflows it
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable()) << rejected.status().ToString();
  // The rejection is actionable: it carries the live depth and capacity,
  // and IsRetryable tells clients it is worth backing off and retrying.
  EXPECT_EQ(rejected.status().message(),
            "server queue is full (1 of 1 pending submissions); retry later");
  EXPECT_TRUE(RetryPolicy::IsRetryable(rejected.status()));
  {
    ServerStats stats = server.Stats();
    EXPECT_EQ(stats.queued, 1u);
    EXPECT_EQ(stats.running, 1u);
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.rejected, 1u);
  }

  gate.Release();
  EXPECT_TRUE(running->Wait().ok());
  EXPECT_TRUE(queued->Wait().ok());
  // With the queue drained, admission opens again.
  auto retried = server.Submit(dirty);
  ASSERT_TRUE(retried.ok());
  EXPECT_TRUE(retried->Wait().ok());
  EXPECT_EQ(server.Stats().rejected, 1u);  // cumulative, not reset
}

// Both lanes count against the one queue_capacity: with the only worker
// parked, a job waiting in either lane fills a capacity-1 server, so a
// submission to the other lane is refused.
TEST(CleanServerTest, IncrementalLaneSharesQueueCapacity) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(dirty.schema(),
                                                      *SampleHospitalRules());
  SessionOptions cold;
  SessionOptions incremental;
  incremental.incremental = true;
  for (bool cold_first : {true, false}) {
    SCOPED_TRACE(cold_first ? "cold job queued" : "incremental job queued");
    PoolExecutor pool(1);
    ServerOptions sopts;
    sopts.executor = &pool;
    sopts.max_concurrent_sessions = 1;
    sopts.queue_capacity = 1;
    CleanServer server = *CleanServer::Create(model, sopts);

    Gate gate;
    SessionOptions blocking;
    blocking.progress = [&gate](const StageProgress& p) {
      if (p.stage == Stage::kIndex && p.units_done == 0) gate.Enter();
    };
    auto running = server.Submit(dirty, blocking);
    ASSERT_TRUE(running.ok());
    gate.AwaitEntered();  // the pool's one thread is parked inside the job

    auto queued = server.Submit(dirty, cold_first ? cold : incremental);
    auto rejected = server.Submit(dirty, cold_first ? incremental : cold);
    ServerStats stats = server.Stats();
    gate.Release();  // before any assertion can return past the parked job

    ASSERT_TRUE(queued.ok()) << queued.status().ToString();
    EXPECT_TRUE(rejected.status().IsUnavailable()) << rejected.status().ToString();
    EXPECT_EQ(stats.queued, 1u);
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_TRUE(running->Wait().ok());
    EXPECT_TRUE(queued->Wait().ok());
  }
}

TEST(CleanServerTest, SubmitWithRetryIsPlainSubmitWhenUncontended) {
  ServingCase c = MakeServingCase(35, 2);
  CleaningOptions options = ServingOptions();
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  CleanServer server = *CleanServer::Create(model, sopts);

  size_t retries = 99;
  auto ticket = server.SubmitWithRetry(c.batches[0], SessionOptions{},
                                       RetryPolicy{}, &retries);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  EXPECT_EQ(retries, 0u);  // admitted first try: no delay was ever drawn
  auto served = ticket->Take();
  ASSERT_TRUE(served.ok());
  auto reference = CleaningEngine(options).Clean(c.batches[0], c.wl.rules);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(served->deduped, reference->deduped);
  EXPECT_EQ(server.Stats().rejected, 0u);
}

TEST(CleanServerTest, SubmitWithRetryRidesOutBackpressure) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(dirty.schema(),
                                                      *SampleHospitalRules());
  PoolExecutor pool(1);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 1;
  sopts.queue_capacity = 1;
  CleanServer server = *CleanServer::Create(model, sopts);

  Gate gate;
  SessionOptions blocking;
  blocking.progress = [&gate](const StageProgress& p) {
    if (p.stage == Stage::kIndex && p.units_done == 0) gate.Enter();
  };
  auto running = server.Submit(dirty, blocking);
  ASSERT_TRUE(running.ok());
  gate.AwaitEntered();
  auto queued = server.Submit(dirty);  // queue now full
  ASSERT_TRUE(queued.ok());

  RetryPolicy fast;
  fast.initial_backoff = std::chrono::milliseconds(1);
  fast.max_backoff = std::chrono::milliseconds(5);

  // While the worker stays parked every attempt is rejected; the loop
  // must give up with the *last* kUnavailable after max_attempts tries.
  fast.max_attempts = 3;
  size_t retries = 0;
  auto exhausted =
      server.SubmitWithRetry(dirty, SessionOptions{}, fast, &retries);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_TRUE(exhausted.status().IsUnavailable())
      << exhausted.status().ToString();
  EXPECT_EQ(retries, 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(server.Stats().rejected, 3u);

  // Unblock the worker on a helper thread mid-retry-loop: a later attempt
  // then finds room and the submit goes through.
  fast.max_attempts = 200;
  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.Release();
  });
  auto admitted =
      server.SubmitWithRetry(dirty, SessionOptions{}, fast, &retries);
  releaser.join();
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_GE(retries, 1u);
  EXPECT_TRUE(running->Wait().ok());
  EXPECT_TRUE(queued->Wait().ok());
  EXPECT_TRUE(admitted->Wait().ok());
}

TEST(CleanServerTest, SubmitWithRetryRejectsABrokenPolicy) {
  ServingCase c = MakeServingCase(36, 1);
  CleanModel model = *CleaningEngine(ServingOptions())
                          .Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(1);
  ServerOptions sopts;
  sopts.executor = &pool;
  CleanServer server = *CleanServer::Create(model, sopts);
  RetryPolicy broken;
  broken.max_attempts = 0;
  auto r = server.SubmitWithRetry(c.batches[0], SessionOptions{}, broken);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalid());
}

TEST(CleanServerTest, OwningSubmitOutlivesTheCallersDataset) {
  ServingCase c = MakeServingCase(37, 2);
  CleaningOptions options = ServingOptions();
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  CleanServer server = *CleanServer::Create(model, sopts);

  auto reference = CleaningEngine(options).Clean(c.batches[0], c.wl.rules);
  ASSERT_TRUE(reference.ok());
  CleanTicket ticket = [&] {
    Dataset local = c.batches[0];  // dies when this lambda returns
    return *server.Submit(std::move(local));
  }();
  auto served = ticket.Take();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->deduped, reference->deduped);
}

TEST(CleanServerTest, CancelledQueuedTicketReportsCancelled) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(dirty.schema(),
                                                      *SampleHospitalRules());
  PoolExecutor pool(1);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 1;
  sopts.queue_capacity = 4;
  CleanServer server = *CleanServer::Create(model, sopts);

  Gate gate;
  SessionOptions blocking;
  blocking.progress = [&gate](const StageProgress& p) {
    if (p.stage == Stage::kIndex && p.units_done == 0) gate.Enter();
  };
  auto running = server.Submit(dirty, blocking);
  ASSERT_TRUE(running.ok());
  gate.AwaitEntered();

  auto doomed = server.Submit(dirty);
  ASSERT_TRUE(doomed.ok());
  EXPECT_FALSE(doomed->done());
  doomed->Cancel();
  gate.Release();

  Status status = doomed->Wait();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_TRUE(doomed->Take().status().IsCancelled());
  EXPECT_TRUE(running->Wait().ok());
}

TEST(CleanServerTest, ExpiredDeadlineLeavesInputUntouchedAndTicketTerminal) {
  ServingCase c = MakeServingCase(37, 1);
  CleanModel model =
      *CleaningEngine(ServingOptions()).Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  CleanServer server = *CleanServer::Create(model, sopts);

  Dataset snapshot = c.dd.dirty.Clone();
  SessionOptions expired;
  expired.deadline = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto ticket = server.Submit(c.dd.dirty, expired);
  ASSERT_TRUE(ticket.ok());
  Status status = ticket->Wait();
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_EQ(c.dd.dirty, snapshot);
  // Terminal: the ticket keeps reporting the deadline status.
  EXPECT_TRUE(ticket->done());
  EXPECT_TRUE(ticket->Take().status().IsDeadlineExceeded());
  EXPECT_EQ(server.Stats().deadline_expired, 1u);
}

TEST(CleanServerTest, MidRunDeadlineAbortsBetweenBlocks) {
  // Arm the deadline from inside the first progress event: some stage
  // boundary after it must observe the expiry, whatever the timing.
  ServingCase c = MakeServingCase(41, 1);
  CleanModel model =
      *CleaningEngine(ServingOptions()).Compile(c.dd.dirty.schema(), c.wl.rules);
  Dataset snapshot = c.dd.dirty.Clone();
  SessionOptions opts;
  opts.deadline = std::chrono::steady_clock::now();  // expires immediately
  CleanSession session = model.NewSession(c.dd.dirty, opts);
  Status status = session.Resume();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  EXPECT_FALSE(session.finished());
  EXPECT_EQ(c.dd.dirty, snapshot);
  // Sticky, like cancellation.
  EXPECT_TRUE(session.Resume().IsDeadlineExceeded());
  EXPECT_TRUE(session.TakeResult().status().IsDeadlineExceeded());
}

TEST(CleanServerTest, ExplicitCancelWinsOverExpiredDeadline) {
  Dataset dirty = *SampleHospitalDirty();
  CleanModel model = *CleaningEngine().Compile(dirty.schema(), *SampleHospitalRules());
  SessionOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  opts.cancel.RequestCancel();
  Status status = model.NewSession(dirty, opts).Resume();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
}

TEST(CleanServerTest, InlineExecutorDegradesToSynchronousServing) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(dirty.schema(),
                                                      *SampleHospitalRules());
  InlineExecutor inline_executor;
  ServerOptions sopts;
  sopts.executor = &inline_executor;
  CleanServer server = *CleanServer::Create(model, sopts);
  auto ticket = server.Submit(dirty);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket->done());  // ran inside Submit
  auto result = ticket->Take();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cleaned, *SampleHospitalClean());
}

TEST(CleanServerTest, ResultCanOnlyBeTakenOnce) {
  Dataset dirty = *SampleHospitalDirty();
  CleanModel model = *CleaningEngine().Compile(dirty.schema(), *SampleHospitalRules());
  CleanServer server = *CleanServer::Create(model, {});
  auto ticket = server.Submit(dirty);
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(ticket->Take().ok());
  EXPECT_TRUE(ticket->Take().status().IsInvalid());
}

TEST(CleanServerTest, CreateRejectsZeroQueueCapacity) {
  Dataset dirty = *SampleHospitalDirty();
  CleanModel model = *CleaningEngine().Compile(dirty.schema(), *SampleHospitalRules());
  ServerOptions sopts;
  sopts.queue_capacity = 0;
  auto server = CleanServer::Create(model, sopts);
  ASSERT_FALSE(server.ok());
  EXPECT_TRUE(server.status().IsInvalid());
}

// A session on a 4-thread pool emits exactly what an inline one does: one
// begin and one end event per stage, in plan order, on the driving thread.
TEST(CleanServerTest, ParallelSessionEmitsOneBeginAndOneEndPerStage) {
  ServingCase c = MakeServingCase(43, 1);
  PoolExecutor pool(4);
  CleaningOptions options = ServingOptions();
  options.executor = &pool;
  options.num_threads = 4;
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);

  std::vector<StageProgress> events;
  const std::thread::id driver = std::this_thread::get_id();
  SessionOptions opts;
  opts.progress = [&](const StageProgress& p) {
    EXPECT_EQ(std::this_thread::get_id(), driver);
    events.push_back(p);
  };
  CleanSession session = model.NewSession(c.dd.dirty, opts);
  ASSERT_TRUE(session.Resume().ok());

  ASSERT_EQ(events.size(), 2u * kNumStages);
  for (int s = 0; s < kNumStages; ++s) {
    const StageProgress& begin = events[2 * s];
    const StageProgress& end = events[2 * s + 1];
    EXPECT_EQ(begin.stage, static_cast<Stage>(s));
    EXPECT_EQ(end.stage, static_cast<Stage>(s));
    EXPECT_EQ(begin.units_done, 0u);
    EXPECT_EQ(begin.units_total, end.units_total);
    EXPECT_EQ(end.units_done, end.units_total);
  }
  // kFscr counts tuples: its total is the batch's row count.
  EXPECT_EQ(events[2 * static_cast<int>(Stage::kFscr)].units_total,
            c.dd.dirty.num_rows());
}

// Records the label of each job's first progress event at or after
// `from`, in run order; `order` is shared by every job of one test.
struct RunOrder {
  std::mutex mu;
  std::vector<char> order;

  SessionOptions Tracked(char label, Stage from = Stage::kIndex) {
    SessionOptions opts;
    opts.progress = [this, label, from, seen = std::make_shared<bool>(false)](
                        const StageProgress& p) {
      if (*seen || p.stage < from) return;
      *seen = true;
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(label);
    };
    return opts;
  }
};

// The cold lane is FIFO: while the one worker is pinned, queued jobs run
// in submit order. Deadlines stop a run but never reorder the queue, so
// a later job with an earlier deadline still waits its turn.
TEST(CleanServerTest, QueueIsFifo) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(dirty.schema(),
                                                      *SampleHospitalRules());
  PoolExecutor pool(1);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 1;
  sopts.queue_capacity = 8;
  CleanServer server = *CleanServer::Create(model, sopts);

  Gate gate;
  SessionOptions blocking;
  blocking.progress = [&gate](const StageProgress& p) {
    if (p.stage == Stage::kIndex && p.units_done == 0) gate.Enter();
  };
  auto parked = server.Submit(dirty, blocking);
  ASSERT_TRUE(parked.ok());
  gate.AwaitEntered();  // the worker is pinned; everything below queues

  RunOrder run;
  const auto far = std::chrono::steady_clock::now() + std::chrono::hours(1);
  std::vector<CleanTicket> tickets;
  for (char label : {'A', 'B', 'C', 'D', 'E'}) {
    SessionOptions opts = run.Tracked(label);
    // A and E carry no deadline; B, C and D carry ever earlier ones.
    if (label != 'A' && label != 'E') {
      opts.deadline = far - std::chrono::minutes(label - 'A');
    }
    tickets.push_back(*server.Submit(dirty, opts));
  }
  gate.Release();
  ASSERT_TRUE(parked->Wait().ok());
  for (CleanTicket& t : tickets) ASSERT_TRUE(t.Wait().ok());
  EXPECT_EQ(run.order, (std::vector<char>{'A', 'B', 'C', 'D', 'E'}));
}

// A resumed staged leg was admitted before anything still queued, so it
// runs ahead of every queued submission; legs resumed one after another
// run in resume order.
TEST(CleanServerTest, ResumedLegRunsBeforeQueuedSubmissions) {
  Dataset dirty = *SampleHospitalDirty();
  CleaningOptions options;
  options.agp_threshold = 1;
  CleanModel model = *CleaningEngine(options).Compile(dirty.schema(),
                                                      *SampleHospitalRules());
  PoolExecutor pool(1);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 1;
  sopts.queue_capacity = 8;
  CleanServer server = *CleanServer::Create(model, sopts);

  // Two staged jobs park at kLearn; their second legs start at kRsc.
  RunOrder run;
  auto first = server.SubmitStaged(dirty, Stage::kLearn, Stage::kDedup,
                                   run.Tracked('S', Stage::kRsc));
  auto second = server.SubmitStaged(dirty, Stage::kLearn, Stage::kDedup,
                                    run.Tracked('T', Stage::kRsc));
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(first->WaitPaused().ok());
  ASSERT_TRUE(second->WaitPaused().ok());

  Gate gate;
  SessionOptions blocking;
  blocking.progress = [&gate](const StageProgress& p) {
    if (p.stage == Stage::kIndex && p.units_done == 0) gate.Enter();
  };
  auto pinned = server.Submit(dirty, blocking);
  ASSERT_TRUE(pinned.ok());
  gate.AwaitEntered();  // the worker is pinned; everything below queues

  std::vector<CleanTicket> fresh;
  fresh.push_back(*server.Submit(dirty, run.Tracked('1')));
  fresh.push_back(*server.Submit(dirty, run.Tracked('2')));
  ASSERT_TRUE(first->ResumeJob().ok());
  ASSERT_TRUE(second->ResumeJob().ok());
  gate.Release();

  ASSERT_TRUE(pinned->Wait().ok());
  ASSERT_TRUE(first->Wait().ok());
  ASSERT_TRUE(second->Wait().ok());
  for (CleanTicket& t : fresh) ASSERT_TRUE(t.Wait().ok());
  EXPECT_EQ(run.order, (std::vector<char>{'S', 'T', '1', '2'}));
}

// The fleet's coordination primitive on its own: a staged submission
// parks at the pause stage with its live session exposed, resumes on
// demand, and ends bit-identical to a plain submission of the same batch.
TEST(CleanServerTest, StagedSubmissionParksResumesAndMatchesPlainSubmit) {
  ServingCase c = MakeServingCase(46, 1);
  CleaningOptions options = ServingOptions();
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  CleanServer server = *CleanServer::Create(model, sopts);

  auto staged = server.SubmitStaged(c.dd.dirty, Stage::kLearn, Stage::kDedup);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  ASSERT_TRUE(staged->WaitPaused().ok());
  ASSERT_NE(staged->session(), nullptr);
  EXPECT_EQ(staged->session()->next_stage(), Stage::kRsc);
  EXPECT_NE(staged->session()->mutable_index(), nullptr);
  EXPECT_FALSE(staged->done());  // parked, not terminal

  ASSERT_TRUE(staged->ResumeJob().ok());
  EXPECT_TRUE(staged->ResumeJob().IsInvalid());  // resume is one-shot
  auto served = staged->Take();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(staged->session(), nullptr);  // kDedup: released with the result

  auto plain = server.Submit(c.dd.dirty);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->session(), nullptr);  // staged-only accessor
  EXPECT_TRUE(plain->ResumeJob().IsInvalid());
  auto expected = plain->Take();
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(served->cleaned, expected->cleaned);
  EXPECT_EQ(served->deduped, expected->deduped);
  ExpectSameReport(served->report, expected->report);

  // A final stage short of kDedup leaves the outputs on the session (the
  // fleet's merge reads them there); there is no CleanResult to take.
  auto partial = server.SubmitStaged(c.dd.dirty, Stage::kLearn, Stage::kFscr);
  ASSERT_TRUE(partial.ok());
  ASSERT_TRUE(partial->WaitPaused().ok());
  ASSERT_TRUE(partial->ResumeJob().ok());
  ASSERT_TRUE(partial->Wait().ok());
  EXPECT_EQ(partial->session()->cleaned(), expected->cleaned);
  EXPECT_FALSE(partial->Take().ok());

  // Staging is validated up front: the pause must precede the final
  // stage, and the incremental lane cannot stage.
  EXPECT_TRUE(server.SubmitStaged(c.dd.dirty, Stage::kFscr, Stage::kLearn)
                  .status()
                  .IsInvalid());
  EXPECT_TRUE(server.SubmitStaged(c.dd.dirty, Stage::kLearn, Stage::kLearn)
                  .status()
                  .IsInvalid());
  SessionOptions incremental;
  incremental.incremental = true;
  EXPECT_TRUE(server
                  .SubmitStaged(c.dd.dirty, Stage::kLearn, Stage::kDedup,
                                incremental)
                  .status()
                  .IsInvalid());
}

// Ticket latency percentiles: every finished job lands one sample in the
// reservoir, and the summary is ordered (p50 <= p99 <= p999).
TEST(CleanServerTest, StatsReportTicketLatencyPercentiles) {
  ServingCase c = MakeServingCase(48, 6);
  CleaningOptions options = ServingOptions();
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 2;
  sopts.queue_capacity = c.batches.size();
  CleanServer server = *CleanServer::Create(model, sopts);

  EXPECT_EQ(server.Stats().latency.samples, 0u);
  std::vector<CleanTicket> tickets;
  for (const Dataset& batch : c.batches) {
    tickets.push_back(*server.Submit(batch));
  }
  for (CleanTicket& t : tickets) ASSERT_TRUE(t.Wait().ok());

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.latency.samples, c.batches.size());
  EXPECT_GT(stats.latency.p50, 0.0);
  EXPECT_GE(stats.latency.p99, stats.latency.p50);
  EXPECT_GE(stats.latency.p999, stats.latency.p99);
}

}  // namespace
}  // namespace mlnclean

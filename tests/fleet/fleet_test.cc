#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <chrono>
#include <utility>
#include <vector>

#include "cleaning/dedup.h"
#include "datagen/hospital.h"
#include "distributed/shard_merge.h"
#include "errorgen/injector.h"

namespace mlnclean {
namespace {

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

void ExpectSameReport(const CleaningReport& a, const CleaningReport& b) {
  ASSERT_EQ(a.agp.size(), b.agp.size());
  for (size_t i = 0; i < a.agp.size(); ++i) {
    EXPECT_EQ(a.agp[i].abnormal_key, b.agp[i].abnormal_key);
    EXPECT_EQ(a.agp[i].abnormal_tuples, b.agp[i].abnormal_tuples);
    EXPECT_EQ(a.agp[i].target_key, b.agp[i].target_key);
    EXPECT_EQ(a.agp[i].merged, b.agp[i].merged);
  }
  ASSERT_EQ(a.rsc.size(), b.rsc.size());
  for (size_t i = 0; i < a.rsc.size(); ++i) {
    EXPECT_EQ(a.rsc[i].winner_values, b.rsc[i].winner_values);
    EXPECT_EQ(a.rsc[i].loser_values, b.rsc[i].loser_values);
    EXPECT_EQ(a.rsc[i].affected_tuples, b.rsc[i].affected_tuples);
  }
  ASSERT_EQ(a.fscr.size(), b.fscr.size());
  for (size_t i = 0; i < a.fscr.size(); ++i) {
    EXPECT_EQ(a.fscr[i].tuple, b.fscr[i].tuple);
    EXPECT_EQ(a.fscr[i].conflict_attrs, b.fscr[i].conflict_attrs);
    EXPECT_EQ(a.fscr[i].fused, b.fscr[i].fused);
    EXPECT_EQ(a.fscr[i].f_score, b.fscr[i].f_score);
  }
  EXPECT_EQ(a.duplicates, b.duplicates);
}

ShardRouter MakeRouter(const Dataset& reference, size_t num_shards) {
  ShardRouterOptions ropts;
  ropts.num_shards = num_shards;
  return *ShardRouter::Build(reference, ropts);
}

// The fleet determinism contract, part 1: a 1-shard fleet is
// bit-identical to a plain CleanServer over the same model, which is in
// turn bit-identical to cold engine runs (reuse off).
TEST(CleanFleetTest, OneShardFleetMatchesPlainServerAndColdEngine) {
  ServingCase c = MakeServingCase(41, 6);
  CleaningOptions options = ServingOptions();
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);

  PoolExecutor pool(4);
  FleetOptions fopts;
  fopts.executor = &pool;
  fopts.max_concurrent_sessions = 4;
  fopts.queue_capacity = c.batches.size();
  CleanFleet fleet =
      *CleanFleet::Create(model, MakeRouter(c.dd.dirty, 1), fopts);
  ASSERT_EQ(fleet.num_shards(), 1u);

  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 4;
  sopts.queue_capacity = c.batches.size();
  CleanServer server = *CleanServer::Create(model, sopts);

  std::vector<FleetTicket> fleet_tickets;
  std::vector<CleanTicket> server_tickets;
  for (const Dataset& batch : c.batches) {
    fleet_tickets.push_back(*fleet.Submit(batch));
    server_tickets.push_back(*server.Submit(batch));
  }
  CleaningEngine cold(options);
  for (size_t i = 0; i < c.batches.size(); ++i) {
    auto via_fleet = fleet_tickets[i].Take();
    ASSERT_TRUE(via_fleet.ok()) << via_fleet.status().ToString();
    auto via_server = server_tickets[i].Take();
    ASSERT_TRUE(via_server.ok()) << via_server.status().ToString();
    auto reference = cold.Clean(c.batches[i], c.wl.rules);
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(via_fleet->cleaned, via_server->cleaned) << "batch " << i;
    EXPECT_EQ(via_fleet->deduped, via_server->deduped) << "batch " << i;
    ExpectSameReport(via_fleet->report, via_server->report);
    EXPECT_EQ(via_fleet->cleaned, reference->cleaned) << "batch " << i;
    EXPECT_EQ(via_fleet->deduped, reference->deduped) << "batch " << i;
    ExpectSameReport(via_fleet->report, reference->report);
  }
}

// Part 2 of the contract: same 1-shard identity with weight reuse on
// (warmed, read-only store) and parallel stage internals — at 1 and 4
// server threads.
TEST(CleanFleetTest, OneShardReuseFleetMatchesWarmRunsAtAnyThreadCount) {
  ServingCase c = MakeServingCase(43, 6);
  PoolExecutor pool(4);
  CleaningOptions options = ServingOptions();
  options.executor = &pool;
  options.num_threads = 2;
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  ASSERT_TRUE(model.Warm(c.batches[0]).ok());

  SessionOptions reuse;
  reuse.reuse_model_weights = true;

  std::vector<CleanResult> reference;
  for (const Dataset& batch : c.batches) {
    reference.push_back(*model.Clean(batch, reuse));
  }

  for (size_t fleet_threads : {size_t{1}, size_t{4}}) {
    PoolExecutor fleet_pool(fleet_threads);
    FleetOptions fopts;
    fopts.executor = &fleet_pool;
    fopts.max_concurrent_sessions = fleet_threads;
    fopts.queue_capacity = c.batches.size();
    CleanFleet fleet =
        *CleanFleet::Create(model, MakeRouter(c.dd.dirty, 1), fopts);

    std::vector<FleetTicket> tickets;
    for (const Dataset& batch : c.batches) {
      tickets.push_back(*fleet.Submit(batch, reuse));
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      auto served = tickets[i].Take();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      EXPECT_EQ(served->cleaned, reference[i].cleaned)
          << "batch " << i << " threads " << fleet_threads;
      EXPECT_EQ(served->deduped, reference[i].deduped)
          << "batch " << i << " threads " << fleet_threads;
      ExpectSameReport(served->report, reference[i].report);
    }
  }
}

// A 2-shard fleet is the staged protocol run by hand: route, run every
// shard to kLearn, Eq. 6 merge, resume to kFscr, id-remap merge in shard
// order, dedup. The fleet must reproduce that orchestration exactly.
TEST(CleanFleetTest, TwoShardFleetMatchesManualStagedOrchestration) {
  ServingCase c = MakeServingCase(47, 3);
  CleaningOptions options = ServingOptions();
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  ShardRouter router = MakeRouter(c.dd.dirty, 2);

  PoolExecutor pool(4);
  FleetOptions fopts;
  fopts.executor = &pool;
  fopts.queue_capacity = 16;
  CleanFleet fleet = *CleanFleet::Create(model, router, fopts);

  for (size_t b = 0; b < c.batches.size(); ++b) {
    const Dataset& batch = c.batches[b];

    // Manual orchestration (sequential, no server involved).
    ShardedBatch sharded = *router.Shard(batch);
    std::vector<CleanSession> sessions;
    std::vector<size_t> active;
    for (size_t s = 0; s < sharded.shards.size(); ++s) {
      if (sharded.mapping[s].empty()) continue;
      active.push_back(s);
      sessions.push_back(model.NewSession(sharded.shards[s]));
    }
    for (CleanSession& session : sessions) {
      ASSERT_TRUE(session.RunUntil(Stage::kLearn).ok());
    }
    if (sessions.size() > 1) {
      std::vector<CleanSession*> ptrs;
      for (CleanSession& session : sessions) ptrs.push_back(&session);
      ASSERT_TRUE(model.AdjustWeightsAcross(ptrs).ok());
    }
    for (CleanSession& session : sessions) {
      ASSERT_TRUE(session.RunUntil(Stage::kFscr).ok());
    }
    Dataset expected_cleaned = batch.Clone();
    const std::vector<size_t> shipped = ShippedDictSizes(batch);
    for (size_t i = 0; i < sessions.size(); ++i) {
      MergeShardRows(sessions[i].cleaned(), sharded.mapping[active[i]],
                     shipped, &expected_cleaned);
    }
    Dataset expected_deduped =
        model.options().remove_duplicates
            ? RemoveDuplicates(expected_cleaned, nullptr)
            : expected_cleaned;

    FleetTicket ticket = *fleet.Submit(batch);
    auto served = ticket.Take();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->cleaned, expected_cleaned) << "batch " << b;
    EXPECT_EQ(served->deduped, expected_deduped) << "batch " << b;
  }
}

// Multi-shard determinism: the same submissions produce bit-identical
// results across executors of different thread counts.
TEST(CleanFleetTest, MultiShardResultsAreDeterministicAcrossExecutors) {
  ServingCase c = MakeServingCase(53, 4);
  CleaningOptions options = ServingOptions();
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  ShardRouter router = MakeRouter(c.dd.dirty, 3);

  std::vector<CleanResult> reference;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    PoolExecutor pool(threads);
    FleetOptions fopts;
    fopts.executor = &pool;
    fopts.max_concurrent_sessions = threads;
    fopts.queue_capacity = 16;
    CleanFleet fleet = *CleanFleet::Create(model, router, fopts);

    std::vector<FleetTicket> tickets;
    for (const Dataset& batch : c.batches) {
      tickets.push_back(*fleet.Submit(batch));
    }
    for (size_t i = 0; i < tickets.size(); ++i) {
      auto served = tickets[i].Take();
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      if (reference.size() <= i) {
        reference.push_back(std::move(*served));
        continue;
      }
      EXPECT_EQ(served->cleaned, reference[i].cleaned)
          << "batch " << i << " threads " << threads;
      EXPECT_EQ(served->deduped, reference[i].deduped)
          << "batch " << i << " threads " << threads;
      ExpectSameReport(served->report, reference[i].report);
    }
  }
}

// Cancellation fans out: a token cancelled before (or while) the shard
// legs run takes the whole fleet ticket to kCancelled, and every shard
// leg reaches a terminal state (nothing leaks parked).
TEST(CleanFleetTest, CancellationPropagatesToEveryShard) {
  ServingCase c = MakeServingCase(59, 1);
  CleaningOptions options = ServingOptions();
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);

  PoolExecutor pool(2);
  FleetOptions fopts;
  fopts.executor = &pool;
  fopts.queue_capacity = 8;
  CleanFleet fleet =
      *CleanFleet::Create(model, MakeRouter(c.dd.dirty, 2), fopts);

  SessionOptions opts;
  opts.cancel.RequestCancel();  // pre-cancelled: no shard does stage work
  auto ticket = fleet.Submit(c.dd.dirty, opts);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket->Wait().IsCancelled());
  EXPECT_FALSE(ticket->Take().ok());

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
  // Every shard server drained its legs (no parked/queued remnants).
  for (const ServerStats& shard : stats.shards) {
    EXPECT_EQ(shard.queued, 0u);
    EXPECT_EQ(shard.running, 0u);
  }

  // Cancel via the fleet ticket instead of the caller's token handle.
  auto second = fleet.Submit(c.dd.dirty);
  ASSERT_TRUE(second.ok());
  second->Cancel();
  Status st = second->Wait();
  // The legs may have already passed every cancellation point; both
  // outcomes are legal, but the ticket must reach a terminal state.
  EXPECT_TRUE(st.ok() || st.IsCancelled()) << st.ToString();
}

// Deadlines fan out the same way: an already-expired deadline fails the
// fleet ticket with kDeadlineExceeded before any shard does stage work.
TEST(CleanFleetTest, ExpiredDeadlinePropagatesToEveryShard) {
  ServingCase c = MakeServingCase(61, 1);
  CleaningOptions options = ServingOptions();
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);

  PoolExecutor pool(2);
  FleetOptions fopts;
  fopts.executor = &pool;
  fopts.queue_capacity = 8;
  CleanFleet fleet =
      *CleanFleet::Create(model, MakeRouter(c.dd.dirty, 2), fopts);

  SessionOptions opts;
  opts.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  auto ticket = fleet.Submit(c.dd.dirty, opts);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket->Wait().IsDeadlineExceeded());

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(CleanFleetTest, StatsCountTicketsAndRecordLatencies) {
  ServingCase c = MakeServingCase(67, 4);
  CleaningOptions options = ServingOptions();
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);

  PoolExecutor pool(4);
  FleetOptions fopts;
  fopts.executor = &pool;
  fopts.max_concurrent_sessions = 4;
  fopts.queue_capacity = c.batches.size();
  CleanFleet fleet =
      *CleanFleet::Create(model, MakeRouter(c.dd.dirty, 2), fopts);

  std::vector<FleetTicket> tickets;
  for (const Dataset& batch : c.batches) {
    tickets.push_back(*fleet.Submit(batch));
  }
  for (FleetTicket& t : tickets) {
    ASSERT_TRUE(t.Wait().ok());
    EXPECT_TRUE(t.done());
  }

  FleetStats stats = fleet.Stats();
  EXPECT_EQ(stats.submitted, c.batches.size());
  EXPECT_EQ(stats.completed, c.batches.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.latency.samples, c.batches.size());
  EXPECT_GT(stats.latency.p50, 0.0);
  EXPECT_GE(stats.latency.p99, stats.latency.p50);
  EXPECT_GE(stats.latency.p999, stats.latency.p99);
  ASSERT_EQ(stats.shards.size(), 2u);
  size_t shard_completed = 0;
  for (const ServerStats& shard : stats.shards) {
    shard_completed += shard.completed;
    EXPECT_EQ(shard.queued, 0u);
    EXPECT_EQ(shard.running, 0u);
  }
  // Every fleet ticket resolved through staged shard legs (one terminal
  // count per non-empty shard leg; with 2 shards and 4 batches there are
  // at least 4 legs).
  EXPECT_GE(shard_completed, c.batches.size());
}

TEST(CleanFleetTest, CreateValidatesRouterSchemaAndExecutorList) {
  ServingCase c = MakeServingCase(71, 1);
  CleaningOptions options = ServingOptions();
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);

  Dataset other = *Dataset::Make(*Schema::Make({"A", "B"}),
                                 {{"x", "y"}, {"u", "v"}});
  ShardRouterOptions ropts;
  ropts.num_shards = 1;
  ShardRouter mismatched = *ShardRouter::Build(other, ropts);
  EXPECT_FALSE(CleanFleet::Create(model, mismatched).ok());

  PoolExecutor pool(1);
  FleetOptions bad;
  bad.shard_executors = {&pool};  // router has 2 shards
  EXPECT_FALSE(
      CleanFleet::Create(model, MakeRouter(c.dd.dirty, 2), bad).ok());

  SessionOptions incremental;
  incremental.incremental = true;
  CleanFleet fleet = *CleanFleet::Create(model, MakeRouter(c.dd.dirty, 2));
  EXPECT_FALSE(fleet.Submit(c.dd.dirty, incremental).ok());
}

}  // namespace
}  // namespace mlnclean

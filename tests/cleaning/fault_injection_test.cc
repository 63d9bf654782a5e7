// Fault-injection sweep (common/failpoint.h): every catalogued failpoint
// is fired, one at a time, against a live CleanServer or the snapshot
// paths, and each time the process must stay up, the failing operation
// must report a non-OK Status, the server's Stats() must stay consistent,
// and the *next* operation must succeed. The sweep tests run only in a
// fault build (cmake -DMLNCLEAN_FAILPOINTS=ON) and are exercised under
// ASan by CI's fault-injection job; the exception-hardening regressions
// at the bottom (a throwing progress callback must become a failed
// ticket, not a dead worker) need no failpoints and run in every build.

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cleaning/server.h"
#include "datagen/hospital.h"
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
  config.num_hospitals = 20;
  config.num_measures = 6;
  Workload wl = *MakeHospitalWorkload(config);
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.seed = seed;
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, spec);
  std::vector<Dataset> batches = SplitIntoBatches(dd.dirty, num_batches);
  return ServingCase{std::move(wl), std::move(dd), std::move(batches)};
}

// Terminal counters must reconcile with admissions once the server is
// idle: nothing lost, nothing double-counted, no stuck running/queued.
// Tickets are signalled just before the worker's running-count decrement,
// so give the bookkeeping a bounded moment to drain first.
void ExpectConsistentIdleStats(const CleanServer& server) {
  ServerStats stats = server.Stats();
  for (int spin = 0; (stats.running != 0 || stats.queued != 0) && spin < 2000;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server.Stats();
  }
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.cancelled +
                                 stats.deadline_expired);
}

// Resets failpoints on entry and exit so a failing test cannot leak an
// armed site into its neighbours.
class FailpointSweepTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetFailpoints(); }
  void TearDown() override { ResetFailpoints(); }
};

TEST_F(FailpointSweepTest, CatalogAndConfigureContract) {
  // The catalog exists in every build; arming only works in fault builds.
  const auto& catalog = FailpointCatalog();
  ASSERT_GE(catalog.size(), 15u);
  for (const FailpointInfo& info : catalog) {
    EXPECT_NE(info.name, nullptr);
    EXPECT_EQ(std::string(info.name).find(' '), std::string::npos)
        << info.name;
  }
  Status unknown = ConfigureFailpoint("no/such-site", FailpointSpec::Once());
  ASSERT_FALSE(unknown.ok());
  if (FailpointsCompiledIn()) {
    EXPECT_TRUE(unknown.IsNotFound()) << unknown.ToString();
    EXPECT_TRUE(ConfigureFailpoint("server/worker-loop", FailpointSpec::Once()).ok());
    ResetFailpoints();
    EXPECT_EQ(FailpointFires("server/worker-loop"), 0u);
  } else {
    EXPECT_TRUE(unknown.IsNotImplemented()) << unknown.ToString();
  }
}

// The tentpole gate: every serve-domain site fired exactly once against a
// live 4-worker server must produce a failed ticket (never a crash or a
// hang), leave Stats() consistent, and let the next submission succeed.
TEST_F(FailpointSweepTest, ServeDomainSweepFailsTicketsNotTheServer) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "requires -DMLNCLEAN_FAILPOINTS=ON";
  }
  ServingCase c = MakeServingCase(41, 4);
  PoolExecutor pool(4);
  CleaningOptions options;
  options.agp_threshold = 3;
  // Sessions parallelize on the same pool so the ParallelFor-internal
  // sites (executor/worker-task, parallel-for/block) are actually reached.
  options.executor = &pool;
  options.num_threads = 4;
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);

  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 4;
  sopts.queue_capacity = 16;
  CleanServer server = *CleanServer::Create(model, sopts);

  size_t sites_fired = 0;
  for (const FailpointInfo& info : FailpointCatalog()) {
    if (info.domain != FailpointDomain::kServe) continue;
    SCOPED_TRACE(info.name);

    // One legal fire can be invisible: executor/worker-task may throw in
    // a ParallelFor worker task that was dequeued only after the loop
    // already drained — such retired tasks are no-ops by contract, so
    // their error is (correctly) swallowed and the ticket succeeds.
    // Re-arm and resubmit until the fire lands where a live loop
    // observes it; every observed fire must fail the ticket.
    bool observed = false;
    bool reached = false;
    for (int attempt = 0; attempt < 10 && !observed; ++attempt) {
      ASSERT_TRUE(ConfigureFailpoint(info.name, FailpointSpec::Once()).ok());
      SessionOptions opts;
      // weight-contribute only evaluates on the write-back path.
      opts.contribute_weights = true;
      auto ticket = server.Submit(c.batches[0], opts);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      Status status = ticket->Wait();
      if (FailpointFires(info.name) == 0) {
        // Site not on this scenario's path: the run must have been clean.
        EXPECT_TRUE(status.ok()) << status.ToString();
        ResetFailpoints();
        break;
      }
      reached = true;
      if (!status.ok()) {
        observed = true;
        EXPECT_NE(status.message().find(info.name), std::string::npos)
            << "failure does not name the site: " << status.ToString();
      }
      ResetFailpoints();
    }
    if (observed) ++sites_fired;
    EXPECT_EQ(reached, observed)
        << "site fired repeatedly but never surfaced on a ticket";

    // The server must still be fully serviceable after the fault.
    auto next = server.Submit(c.batches[1]);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_TRUE(next->Wait().ok());
    ExpectConsistentIdleStats(server);
  }
  // The sweep is only meaningful if the scenario actually reaches the
  // sites: the serve-domain catalog is on this workload's path.
  EXPECT_GE(sites_fired, 9u);
}

TEST_F(FailpointSweepTest, InjectedBadAllocBecomesResourceExhausted) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "requires -DMLNCLEAN_FAILPOINTS=ON";
  }
  ServingCase c = MakeServingCase(42, 2);
  CleanModel model =
      *CleaningEngine(CleaningOptions{}).Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  CleanServer server = *CleanServer::Create(model, sopts);

  ASSERT_TRUE(ConfigureFailpoint(
                  "engine/stage-rsc",
                  FailpointSpec::Once(FailpointSpec::Action::kThrowBadAlloc))
                  .ok());
  auto ticket = server.Submit(c.batches[0]);
  ASSERT_TRUE(ticket.ok());
  Status status = ticket->Wait();
  ASSERT_EQ(FailpointFires("engine/stage-rsc"), 1u);
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  ResetFailpoints();
  auto next = server.Submit(c.batches[0]);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->Wait().ok());
  ExpectConsistentIdleStats(server);
}

TEST_F(FailpointSweepTest, AdmissionFaultRejectsTheSubmitOnly) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "requires -DMLNCLEAN_FAILPOINTS=ON";
  }
  ServingCase c = MakeServingCase(43, 2);
  CleanModel model =
      *CleaningEngine(CleaningOptions{}).Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  CleanServer server = *CleanServer::Create(model, sopts);

  ASSERT_TRUE(ConfigureFailpoint("server/admission", FailpointSpec::Once()).ok());
  auto rejected = server.Submit(c.batches[0]);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInternal()) << rejected.status().ToString();
  EXPECT_EQ(server.Stats().submitted, 0u);  // nothing half-admitted
  ResetFailpoints();
  auto ticket = server.Submit(c.batches[0]);
  ASSERT_TRUE(ticket.ok());
  EXPECT_TRUE(ticket->Wait().ok());
  ExpectConsistentIdleStats(server);
}

// Write-path sweep for the crash-safe snapshot contract: a fault at ANY
// write-path site must fail SaveToFile, leave the pre-existing snapshot
// at the target byte-identical and loadable, and leave no temp debris.
TEST_F(FailpointSweepTest, SaveToFileFaultsNeverDamageTheExistingSnapshot) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "requires -DMLNCLEAN_FAILPOINTS=ON";
  }
  ServingCase c = MakeServingCase(44, 2);
  CleaningOptions options;
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  ASSERT_TRUE(model.Warm(c.batches[0]).ok());

  const std::string path =
      ::testing::TempDir() + "/mlnclean_fault_snapshot.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(model.SaveToFile(path).ok());
  const auto read_file = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string good_bytes = read_file(path);
  ASSERT_FALSE(good_bytes.empty());

  for (const FailpointInfo& info : FailpointCatalog()) {
    if (info.domain != FailpointDomain::kSnapshotWrite) continue;
    SCOPED_TRACE(info.name);
    ASSERT_TRUE(ConfigureFailpoint(info.name, FailpointSpec::Once()).ok());
    Status status = model.SaveToFile(path);
    ASSERT_EQ(FailpointFires(info.name), 1u) << "site not reached";
    EXPECT_FALSE(status.ok()) << "fired but SaveToFile succeeded";
    ResetFailpoints();
    // Old snapshot intact, still loadable, no temp file left behind.
    EXPECT_EQ(read_file(path), good_bytes);
    auto loaded = CleaningEngine().LoadFromFile(path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::ifstream tmp(path + ".tmp." + std::to_string(::getpid()),
                      std::ios::binary);
    EXPECT_FALSE(tmp.good()) << "temp debris left behind";
  }

  // And with every site disarmed the save path still works.
  ASSERT_TRUE(model.SaveToFile(path).ok());
  std::remove(path.c_str());
}

TEST_F(FailpointSweepTest, DecodeFaultIsAStatusNotACrash) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "requires -DMLNCLEAN_FAILPOINTS=ON";
  }
  ServingCase c = MakeServingCase(45, 2);
  CleanModel model =
      *CleaningEngine(CleaningOptions{}).Compile(c.dd.dirty.schema(), c.wl.rules);
  std::ostringstream out;
  ASSERT_TRUE(model.Save(out).ok());

  ASSERT_TRUE(ConfigureFailpoint("snapshot/decode", FailpointSpec::Once()).ok());
  std::istringstream in(out.str());
  auto loaded = CleaningEngine().Load(in);
  ASSERT_EQ(FailpointFires("snapshot/decode"), 1u);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInternal()) << loaded.status().ToString();
  ResetFailpoints();
  std::istringstream again(out.str());
  EXPECT_TRUE(CleaningEngine().Load(again).ok());
}

TEST_F(FailpointSweepTest, EveryNAndProbabilityPoliciesAreDeterministic) {
  if (!FailpointsCompiledIn()) {
    GTEST_SKIP() << "requires -DMLNCLEAN_FAILPOINTS=ON";
  }
  ServingCase c = MakeServingCase(46, 2);
  CleanModel model =
      *CleaningEngine(CleaningOptions{}).Compile(c.dd.dirty.schema(), c.wl.rules);
  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  CleanServer server = *CleanServer::Create(model, sopts);

  // every-2nd: job 1 fires it (hits 1, 2 -> fire at 2? no: fire on
  // multiples), so with one evaluation per job, jobs 2 and 4 fail.
  ASSERT_TRUE(
      ConfigureFailpoint("server/worker-loop", FailpointSpec::EveryN(2)).ok());
  std::vector<bool> failed;
  for (int i = 0; i < 4; ++i) {
    auto ticket = server.Submit(c.batches[0]);
    ASSERT_TRUE(ticket.ok());
    failed.push_back(!ticket->Wait().ok());
  }
  EXPECT_EQ(failed, (std::vector<bool>{false, true, false, true}));
  EXPECT_EQ(FailpointHits("server/worker-loop"), 4u);
  EXPECT_EQ(FailpointFires("server/worker-loop"), 2u);
  ResetFailpoints();

  // Seeded probabilistic firing: the same seed produces the same
  // fire pattern across two sweeps of 16 evaluations.
  auto run_pattern = [&]() {
    std::vector<bool> pattern;
    EXPECT_TRUE(ConfigureFailpoint("server/worker-loop",
                                   FailpointSpec::Probability(0.5, 2021))
                    .ok());
    for (int i = 0; i < 16; ++i) {
      auto ticket = server.Submit(c.batches[1]);
      EXPECT_TRUE(ticket.ok());
      pattern.push_back(!ticket->Wait().ok());
    }
    ResetFailpoints();
    return pattern;
  };
  const std::vector<bool> first = run_pattern();
  EXPECT_EQ(first, run_pattern());
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  ExpectConsistentIdleStats(server);
}

// ------------------------------------------------- hardening (all builds)

// Regression for the worker-loop hardening: a progress callback that
// throws inside a stage must fail that job's ticket (kInternal), not
// propagate out of the CleanServer worker loop and kill the executor
// thread — and every other queued job must still drain normally.
TEST(ExceptionHardeningTest, ThrowingProgressCallbackFailsOnlyItsTicket) {
  ServingCase c = MakeServingCase(47, 6);
  PoolExecutor pool(4);
  CleaningOptions options;
  options.agp_threshold = 3;
  options.executor = &pool;
  options.num_threads = 2;
  CleanModel model =
      *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.max_concurrent_sessions = 4;
  sopts.queue_capacity = c.batches.size();
  CleanServer server = *CleanServer::Create(model, sopts);

  std::vector<CleanTicket> tickets;
  for (size_t i = 0; i < c.batches.size(); ++i) {
    SessionOptions opts;
    if (i == 2) {
      opts.progress = [](const StageProgress& p) {
        if (p.stage == Stage::kRsc && p.units_done == 0) {
          throw std::runtime_error("progress callback exploded");
        }
      };
    }
    auto ticket = server.Submit(c.batches[i], opts);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    Status status = tickets[i].Wait();
    if (i == 2) {
      ASSERT_FALSE(status.ok());
      EXPECT_TRUE(status.IsInternal()) << status.ToString();
      EXPECT_NE(status.message().find("progress callback exploded"),
                std::string::npos)
          << status.ToString();
    } else {
      EXPECT_TRUE(status.ok()) << "sibling job " << i << ": " << status.ToString();
    }
  }
  ExpectConsistentIdleStats(server);
  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.completed, c.batches.size() - 1);

  // The server takes new work afterwards.
  auto next = server.Submit(c.batches[0]);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->Wait().ok());
}

// A callback that throws from the *sequential* engine path (no server)
// must surface as the session's terminal Status, and the session must
// stay terminal instead of half-running later stages.
TEST(ExceptionHardeningTest, SessionConvertsStageExceptionsToStatus) {
  ServingCase c = MakeServingCase(48, 2);
  CleanModel model =
      *CleaningEngine(CleaningOptions{}).Compile(c.dd.dirty.schema(), c.wl.rules);
  SessionOptions opts;
  int calls = 0;
  opts.progress = [&calls](const StageProgress&) {
    if (++calls == 3) throw std::logic_error("boom");
  };
  CleanSession session = model.NewSession(c.batches[0], opts);
  Status status = session.Resume();
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsInternal()) << status.ToString();
  EXPECT_NE(status.message().find("boom"), std::string::npos);
  // Sticky terminal: a later Run* reports the same failure, and the
  // result cannot be taken.
  EXPECT_FALSE(session.Resume().ok());
  EXPECT_FALSE(session.TakeResult().ok());
}

}  // namespace
}  // namespace mlnclean

// Self-check of the AGP and RSC records against the dirty input. A record
// keeps dictionary ids in its rule's order; resolved through ResolveIds,
// an AGP record's `abnormal_key` must equal the dirty reason values of
// every tuple in its `abnormal_tuples` (an abnormal group is one reason
// binding when AGP detects it), and an RSC record's `loser_values` the
// dirty rule values of every tuple in its `affected_tuples` (a γ's tuples
// carry exactly its values until RSC). The check needs no golden strings,
// so it runs on generated tables: HAI-40 and CAR-3000 at 1 and 4 threads,
// a 2-shard CleanFleet, and DistributedMlnClean's shard protocol with
// the report on, each resolved through the result's cleaned dataset.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cleaning/engine.h"
#include "cleaning/report.h"
#include "cleaning/server.h"
#include "datagen/car.h"
#include "datagen/hospital.h"
#include "distributed/partitioner.h"
#include "distributed/shard_merge.h"
#include "errorgen/injector.h"
#include "fleet/fleet.h"
#include "fleet/shard_router.h"

namespace mlnclean {
namespace {

// The values of `rule`'s `attrs` on tuple `t` of `input`.
std::vector<Value> InputValues(const Dataset& input, TupleId t,
                               const std::vector<AttrId>& attrs) {
  std::vector<Value> out;
  for (AttrId a : attrs) out.push_back(input.at(t, a));
  return out;
}

struct RecordCounts {
  size_t agp = 0;
  size_t rsc = 0;
};

// Checks every AGP and RSC record of `report` against `input`, resolving
// the ids through `resolve` (the run's dirty or cleaned dataset).
RecordCounts ExpectRecordsMatchInput(const CleaningReport& report, const Dataset& input,
                                     const Dataset& resolve, const RuleSet& rules) {
  RecordCounts counts;
  for (size_t i = 0; i < report.agp.size(); ++i) {
    SCOPED_TRACE("agp record " + std::to_string(i));
    const AgpMergeRecord& rec = report.agp[i];
    const Constraint& rule = rules.rule(rec.block);
    EXPECT_EQ(rec.abnormal_key.size(), rule.reason_attrs().size());
    EXPECT_EQ(rec.target_key.size(), rec.merged ? rule.reason_attrs().size() : 0u);
    const std::vector<Value> key = ResolveIds(rec.abnormal_key, resolve, rule);
    EXPECT_FALSE(rec.abnormal_tuples.empty());
    for (TupleId t : rec.abnormal_tuples) {
      EXPECT_EQ(InputValues(input, t, rule.reason_attrs()), key) << "tuple " << t;
    }
    ++counts.agp;
  }
  for (size_t i = 0; i < report.rsc.size(); ++i) {
    SCOPED_TRACE("rsc record " + std::to_string(i));
    const RscRepairRecord& rec = report.rsc[i];
    const Constraint& rule = rules.rule(rec.block);
    EXPECT_EQ(rec.winner_values.size(), rule.attrs().size());
    const std::vector<Value> loser = ResolveIds(rec.loser_values, resolve, rule);
    EXPECT_EQ(loser.size(), rule.attrs().size());
    EXPECT_FALSE(rec.affected_tuples.empty());
    for (TupleId t : rec.affected_tuples) {
      EXPECT_EQ(InputValues(input, t, rule.attrs()), loser) << "tuple " << t;
    }
    ++counts.rsc;
  }
  return counts;
}

struct GeneratedCase {
  Workload wl;
  DirtyDataset dd;
  size_t tau = 0;
};

ErrorSpec Spec(uint64_t seed) {
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.replacement_ratio = 0.5;
  spec.seed = seed;
  return spec;
}

GeneratedCase Hai40(uint64_t seed) {
  HospitalConfig config;
  config.num_hospitals = 40;
  config.num_measures = 10;
  Workload wl = *MakeHospitalWorkload(config);
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, Spec(seed));
  return GeneratedCase{std::move(wl), std::move(dd), 3};
}

GeneratedCase Car3000(uint64_t seed) {
  CarConfig config;
  config.num_rows = 3000;
  Workload wl = *MakeCarWorkload(config);
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules, Spec(seed));
  return GeneratedCase{std::move(wl), std::move(dd), 2};
}

CleaningOptions Options(const GeneratedCase& c, size_t threads) {
  CleaningOptions options;
  options.agp_threshold = c.tau;
  options.num_threads = threads;
  return options;
}

TEST(ReportRecordOracleTest, RecordsMatchTheDirtyInput) {
  for (const bool car : {false, true}) {
    const GeneratedCase c = car ? Car3000(42) : Hai40(42);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::string(car ? "CAR-3000" : "HAI-40") +
                   " threads=" + std::to_string(threads));
      Result<CleanResult> result = CleaningEngine(Options(c, threads)).Clean(c.dd.dirty,
                                                                            c.wl.rules);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const RecordCounts via_dirty =
          ExpectRecordsMatchInput(result->report, c.dd.dirty, c.dd.dirty, c.wl.rules);
      ExpectRecordsMatchInput(result->report, c.dd.dirty, result->cleaned, c.wl.rules);
      // The tables exercise both record kinds.
      EXPECT_GT(via_dirty.agp, 10u);
      EXPECT_GT(via_dirty.rsc, 10u);
    }
  }
}

TEST(ReportRecordOracleTest, TwoShardFleetRecordsMatchTheInput) {
  const GeneratedCase c = Hai40(43);
  CleanModel model =
      *CleaningEngine(Options(c, 1)).Compile(c.dd.dirty.schema(), c.wl.rules);
  ShardRouterOptions ropts;
  ropts.num_shards = 2;
  ShardRouter router = *ShardRouter::Build(c.dd.dirty, ropts);
  PoolExecutor pool(4);
  FleetOptions fopts;
  fopts.executor = &pool;
  CleanFleet fleet = *CleanFleet::Create(model, router, fopts);
  ASSERT_EQ(fleet.num_shards(), 2u);
  FleetTicket ticket = *fleet.Submit(c.dd.dirty);
  Result<CleanResult> served = ticket.Take();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const RecordCounts counts =
      ExpectRecordsMatchInput(served->report, c.dd.dirty, served->cleaned, c.wl.rules);
  EXPECT_GT(counts.agp, 10u);
  EXPECT_GT(counts.rsc, 10u);
}

// DistributedMlnClean's legs (Algorithm 3 parts shipped by
// MaterializeShards, each a staged leg of one server) with the report on:
// DistributedMlnClean itself never collects one.
TEST(ReportRecordOracleTest, DistributedShardProtocolRecordsMatchTheInput) {
  const GeneratedCase c = Hai40(44);
  const CleaningOptions options = Options(c, 1);
  CleanModel model = *CleaningEngine(options).Compile(c.dd.dirty.schema(), c.wl.rules);
  PartitionOptions popts;
  popts.num_parts = 3;
  popts.distance = options.distance;
  const Partition partition = *PartitionDataset(c.dd.dirty, popts);
  std::vector<Dataset> parts = MaterializeShards(c.dd.dirty, partition.parts);

  PoolExecutor pool(2);
  ServerOptions sopts;
  sopts.executor = &pool;
  sopts.queue_capacity = parts.size();
  CleanServer server = *CleanServer::Create(model, sopts);
  std::vector<CleanTicket> legs;
  for (Dataset& part : parts) {
    legs.push_back(*server.SubmitStaged(std::move(part), Stage::kLearn, Stage::kFscr));
  }
  Result<ShardProtocolResult> out = RunShardProtocol(
      model, &legs, partition.parts, c.dd.dirty.Clone(), /*collect_report=*/true);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const CleanResult& result = out->result;
  const RecordCounts counts =
      ExpectRecordsMatchInput(result.report, c.dd.dirty, result.cleaned, c.wl.rules);
  EXPECT_GT(counts.agp, 10u);
  EXPECT_GT(counts.rsc, 10u);
}

}  // namespace
}  // namespace mlnclean

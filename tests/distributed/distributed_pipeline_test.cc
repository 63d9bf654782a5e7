#include "distributed/distributed_pipeline.h"

#include <gtest/gtest.h>

#include "cleaning/dedup.h"
#include "cleaning/engine.h"
#include "datagen/hospital.h"
#include "datagen/tpch.h"
#include "distributed/shard_merge.h"
#include "errorgen/injector.h"
#include "eval/metrics.h"

namespace mlnclean {
namespace {

struct HospitalFixture {
  Workload wl = *[] {
    HospitalConfig config;
    config.num_hospitals = 40;
    config.num_measures = 10;
    return MakeHospitalWorkload(config);
  }();
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules,
                                  ErrorSpec{.error_rate = 0.05, .seed = 7});
};

// Content-identical copy whose dictionaries assign different ids (each
// attribute's domain is interned in reverse before the rows are appended).
Dataset WithPermutedIds(const Dataset& d) {
  Dataset out(d.schema());
  for (AttrId a = 0; a < static_cast<AttrId>(d.num_attrs()); ++a) {
    std::vector<Value> domain = d.Domain(a);
    for (auto it = domain.rbegin(); it != domain.rend(); ++it) {
      out.InternValue(a, *it);
    }
  }
  out.Reserve(d.num_rows());
  for (TupleId t = 0; t < static_cast<TupleId>(d.num_rows()); ++t) {
    EXPECT_TRUE(out.Append(d.row(t)).ok());
  }
  return out;
}

struct TpchFixture {
  Workload wl = *MakeTpchWorkload({.num_customers = 40, .num_rows = 1200});
  DirtyDataset dd = *InjectErrors(wl.clean, wl.rules,
                                  ErrorSpec{.error_rate = 0.05, .seed = 9});
};

// Reference for the driver: Section 6 run by hand on engine sessions —
// Algorithm 3 parts, every part RunUntil(kLearn), the Eq. 6 merge, every
// part RunUntil(kFscr), the id-remap merge in part order, then the global
// dedup. The driver must reproduce it bit for bit.
void ExpectMatchesManualOrchestration(const Dataset& dirty, const RuleSet& rules,
                                      const CleaningOptions& copts) {
  DistributedOptions opts;
  opts.num_parts = 3;
  opts.num_workers = 2;
  opts.cleaning = copts;
  auto distr = DistributedMlnClean(opts).Clean(dirty, rules);
  ASSERT_TRUE(distr.ok()) << distr.status().ToString();

  CleanModel model = *CleaningEngine(copts).Compile(rules.schema(), rules);
  PartitionOptions popts;
  popts.num_parts = opts.num_parts;
  popts.distance = copts.distance;
  popts.seed = opts.partition_seed;
  Partition partition = *PartitionDataset(dirty, popts);
  std::vector<Dataset> parts = MaterializeShards(dirty, partition.parts);
  std::vector<CleanSession> sessions;
  for (const Dataset& part : parts) sessions.push_back(model.NewSession(part));
  for (CleanSession& session : sessions) {
    ASSERT_TRUE(session.RunUntil(Stage::kLearn).ok());
  }
  std::vector<CleanSession*> ptrs;
  for (CleanSession& session : sessions) ptrs.push_back(&session);
  const size_t global_weights = *model.AdjustWeightsAcross(ptrs);
  for (CleanSession& session : sessions) {
    ASSERT_TRUE(session.RunUntil(Stage::kFscr).ok());
  }
  Dataset cleaned = dirty.Clone();
  const std::vector<size_t> shipped = ShippedDictSizes(dirty);
  for (size_t p = 0; p < sessions.size(); ++p) {
    MergeShardRows(sessions[p].cleaned(), partition.parts[p], shipped, &cleaned);
  }
  Dataset deduped = RemoveDuplicates(cleaned, nullptr);

  EXPECT_EQ(distr->cleaned, cleaned);
  EXPECT_EQ(distr->deduped, deduped);
  EXPECT_EQ(distr->global_weights, global_weights);
  EXPECT_EQ(distr->duplicates_removed, cleaned.num_rows() - deduped.num_rows());
  EXPECT_EQ(distr->part_seconds.size(), parts.size());
}

TEST(DistributedTest, MatchesManualStagedOrchestration) {
  HospitalFixture hai;
  CleaningOptions hai_opts;
  hai_opts.agp_threshold = 3;
  ExpectMatchesManualOrchestration(hai.dd.dirty, hai.wl.rules, hai_opts);

  TpchFixture tpch;
  CleaningOptions tpch_opts;
  tpch_opts.agp_threshold = 1;
  ExpectMatchesManualOrchestration(tpch.dd.dirty, tpch.wl.rules, tpch_opts);
}

TEST(DistributedTest, CleansWithReasonableAccuracy) {
  TpchFixture f;
  DistributedOptions opts;
  opts.num_parts = 4;
  opts.num_workers = 2;
  // Per-part groups carry ~1/4 of their global support, so the per-part
  // AGP threshold scales down.
  opts.cleaning.agp_threshold = 1;
  DistributedMlnClean cleaner(opts);
  auto result = cleaner.Clean(f.dd.dirty, f.wl.rules);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RepairMetrics m = EvaluateRepair(f.dd.dirty, result->cleaned, f.dd.truth);
  EXPECT_GT(m.F1(), 0.5) << "P=" << m.Precision() << " R=" << m.Recall();
  EXPECT_EQ(result->part_seconds.size(), 4u);
  EXPECT_GT(result->wall_seconds, 0.0);
  EXPECT_GT(result->global_weights, 0u);
}

TEST(DistributedTest, RowAlignmentPreserved) {
  TpchFixture f;
  DistributedOptions opts;
  opts.num_parts = 3;
  opts.num_workers = 2;
  DistributedMlnClean cleaner(opts);
  auto result = cleaner.Clean(f.dd.dirty, f.wl.rules);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cleaned.num_rows(), f.dd.dirty.num_rows());
  // Attributes untouched by any rule keep their dirty values.
  AttrId qty = *f.wl.clean.schema().Find("Quantity");
  for (TupleId t = 0; t < static_cast<TupleId>(f.dd.dirty.num_rows()); ++t) {
    EXPECT_EQ(result->cleaned.at(t, qty), f.dd.dirty.at(t, qty));
  }
}

TEST(DistributedTest, MoreWorkersNotWorseAccuracy) {
  // Accuracy should be roughly stable across worker counts (Table 6:
  // "the accuracy has very slight fluctuation").
  TpchFixture f;
  double f1[2];
  size_t workers[2] = {1, 2};
  for (int i = 0; i < 2; ++i) {
    DistributedOptions opts;
    opts.num_parts = 4;
    opts.num_workers = workers[i];
    opts.cleaning.agp_threshold = 2;
    DistributedMlnClean cleaner(opts);
    auto result = cleaner.Clean(f.dd.dirty, f.wl.rules);
    ASSERT_TRUE(result.ok());
    f1[i] = EvaluateRepair(f.dd.dirty, result->cleaned, f.dd.truth).F1();
  }
  // Worker count must not change the result at all: the partition and the
  // per-part cleaning are deterministic.
  EXPECT_NEAR(f1[0], f1[1], 1e-12);
}

TEST(DistributedTest, SimulatedMakespanDecreasesWithWorkers) {
  DistributedResult r;
  r.part_seconds = {4.0, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0};
  double prev = 1e9;
  for (size_t w = 1; w <= 8; ++w) {
    double m = r.SimulatedMakespan(w);
    EXPECT_LE(m, prev);
    prev = m;
  }
  EXPECT_DOUBLE_EQ(r.SimulatedMakespan(1), 15.0);  // serial sum
  EXPECT_DOUBLE_EQ(r.SimulatedMakespan(8), 4.0);   // longest part
}

TEST(DistributedTest, MakespanEdgeCases) {
  DistributedResult r;
  EXPECT_DOUBLE_EQ(r.SimulatedMakespan(4), 0.0);  // no parts
  r.part_seconds = {2.5};
  EXPECT_DOUBLE_EQ(r.SimulatedMakespan(0), 0.0);
  EXPECT_DOUBLE_EQ(r.SimulatedMakespan(3), 2.5);
}

TEST(DistributedTest, InvalidOptionsRejected) {
  TpchFixture f;
  DistributedOptions opts;
  opts.num_parts = 0;
  EXPECT_FALSE(DistributedMlnClean(opts).Clean(f.dd.dirty, f.wl.rules).ok());
  opts.num_parts = 2;
  opts.num_workers = 0;
  EXPECT_FALSE(DistributedMlnClean(opts).Clean(f.dd.dirty, f.wl.rules).ok());
}

TEST(DistributedTest, EmptyTableYieldsEmptyOutputs) {
  // Like CleaningEngine::Clean and a fleet ticket: no rows, no parts, no
  // legs through the protocol — and not a num_parts error.
  Schema s = *Schema::Make({"A", "B"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));
  Dataset empty(s);
  DistributedOptions opts;  // num_parts = 8
  auto result = DistributedMlnClean(opts).Clean(empty, rules);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cleaned.num_rows(), 0u);
  EXPECT_EQ(result->deduped.num_rows(), 0u);
  EXPECT_TRUE(result->part_seconds.empty());
  EXPECT_EQ(result->global_weights, 0u);
  EXPECT_EQ(result->duplicates_removed, 0u);
}

TEST(DistributedTest, NumWorkersIsIgnoredWithAnExecutor) {
  TpchFixture f;
  DistributedOptions opts;
  opts.num_parts = 3;
  opts.num_workers = 2;
  auto reference = DistributedMlnClean(opts).Clean(f.dd.dirty, f.wl.rules);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  PoolExecutor pool(2);
  opts.executor = &pool;
  opts.num_workers = 0;  // documented as ignored once `executor` is set
  auto result = DistributedMlnClean(opts).Clean(f.dd.dirty, f.wl.rules);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cleaned, reference->cleaned);
  EXPECT_EQ(result->deduped, reference->deduped);
}

TEST(DistributedTest, SinglePartMatchesSingleNodeOnHospital) {
  // Partition into one shard -> per-shard clean -> merge must reproduce
  // the single-node pipeline exactly: the shard ships with the global
  // dictionaries, cleans by id, and the merge remaps every id back. Any
  // drift in the ship/remap round trip shows up as a cell difference.
  HospitalFixture f;
  CleaningOptions copts;
  copts.agp_threshold = 3;
  auto single = CleaningEngine(copts).Clean(f.dd.dirty, f.wl.rules);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  DistributedOptions opts;
  opts.num_parts = 1;
  opts.num_workers = 2;
  opts.cleaning = copts;
  auto distr = DistributedMlnClean(opts).Clean(f.dd.dirty, f.wl.rules);
  ASSERT_TRUE(distr.ok()) << distr.status().ToString();
  EXPECT_EQ(distr->cleaned, single->cleaned);
  EXPECT_EQ(distr->deduped, single->deduped);
}

TEST(DistributedTest, DictionaryIdAssignmentDoesNotChangeResult) {
  // The whole partition -> per-shard clean -> merge path must depend only
  // on cell *values*, never on how dictionaries happen to number them: a
  // content-identical dirty table with permuted ids yields a bit-identical
  // cleaned table. This pins the id-remapping merge (a shard id passed
  // through or re-interned wrongly would surface as a value difference).
  HospitalFixture f;
  Dataset permuted = WithPermutedIds(f.dd.dirty);
  ASSERT_TRUE(permuted == f.dd.dirty);
  ASSERT_NE(permuted.id_at(0, 2), f.dd.dirty.id_at(0, 2));  // ids really differ

  DistributedOptions opts;
  opts.num_parts = 3;
  opts.num_workers = 2;
  opts.cleaning.agp_threshold = 3;
  auto a = DistributedMlnClean(opts).Clean(f.dd.dirty, f.wl.rules);
  auto b = DistributedMlnClean(opts).Clean(permuted, f.wl.rules);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->cleaned, b->cleaned);
  EXPECT_EQ(a->deduped, b->deduped);
}

TEST(DistributedTest, PartsClampedToRowCount) {
  Schema s = *Schema::Make({"A", "B"});
  Dataset tiny = *Dataset::Make(s, {{"x", "1"}, {"y", "2"}});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));
  DistributedOptions opts;
  opts.num_parts = 10;  // more parts than rows
  opts.num_workers = 2;
  DistributedMlnClean cleaner(opts);
  auto result = cleaner.Clean(tiny, rules);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->part_seconds.size(), 2u);
}

}  // namespace
}  // namespace mlnclean

#include "cleaning/fscr.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "cleaning/agp.h"
#include "cleaning/engine.h"
#include "cleaning/rsc.h"
#include "datagen/hospital.h"
#include "datagen/sample.h"
#include "errorgen/injector.h"
#include "testing/hand_built.h"

namespace mlnclean {
namespace {

// Runs stage I on the paper sample and returns the prepared index.
struct StageOneFixture {
  Dataset dirty = *SampleHospitalDirty();
  RuleSet rules = *SampleHospitalRules();
  CleaningOptions options;
  MlnIndex index = *MlnIndex::Build(dirty, rules);

  StageOneFixture() {
    options.agp_threshold = 1;
    DistanceFn dist = MakeDistanceFn(options.distance);
    RunAgpAll(&index, dirty, rules, options, nullptr);
    index.LearnWeights();
    RunRscAll(&index, dirty, rules, dist, nullptr);
  }
};

TEST(FscrTest, Example3TupleT3Fusion) {
  // Example 3: the fused version of t3 is
  // {HN: ELIZA, CT: BOAZ, ST: AL, PN: 2567688400}.
  StageOneFixture f;
  Dataset cleaned = f.dirty.Clone();
  CleaningReport report;
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, &report);
  EXPECT_EQ(cleaned.row(2),
            (std::vector<Value>{"ELIZA", "BOAZ", "AL", "2567688400"}));
}

TEST(FscrTest, WholeSampleMatchesGroundTruth) {
  StageOneFixture f;
  Dataset cleaned = f.dirty.Clone();
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, nullptr);
  EXPECT_EQ(cleaned, *SampleHospitalClean());
}

TEST(FscrTest, ConflictsDetectedOnT3) {
  StageOneFixture f;
  Dataset cleaned = f.dirty.Clone();
  CleaningReport report;
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, &report);
  ASSERT_EQ(report.fscr.size(), f.dirty.num_rows());
  // t3's versions disagree on CT (DOTHAN from B1 vs BOAZ from B3).
  const FscrRecord& t3 = report.fscr[2];
  ASSERT_EQ(t3.conflict_attrs.size(), 1u);
  EXPECT_EQ(t3.conflict_attrs[0], 1);  // CT
  EXPECT_TRUE(t3.fused);
  EXPECT_GT(t3.f_score, 0.0);
  // t1 has no conflicts.
  EXPECT_TRUE(report.fscr[0].conflict_attrs.empty());
  EXPECT_TRUE(report.fscr[0].fused);
}

TEST(FscrTest, TupleWithNoVersionsKeepsValues) {
  Schema s = *Schema::Make({"A", "B", "C"});
  Dataset d = *Dataset::Make(s, {{"x", "y", "z"}});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));
  // Build an index over an unrelated dataset so the tuple is uncovered.
  Dataset other = *Dataset::Make(s, {{"q", "r", "s"}});
  MlnIndex index = *MlnIndex::Build(other, rules);
  index.LearnWeights();
  // Hack: pretend `other`'s pieces cover no tuple of `d` by clearing them.
  index.block(0).groups.clear();
  Dataset cleaned = d.Clone();
  CleaningOptions options;
  CleaningReport report;
  RunFscr(d, rules, index, options, &cleaned, &report);
  EXPECT_EQ(cleaned, d);
  EXPECT_FALSE(report.fscr[0].fused);
}

TEST(FscrTest, FusionFailureLeavesTupleUntouched) {
  // Two rules whose only γs conflict irreconcilably for a tuple and the
  // blocks offer no substitute: the tuple keeps its dirty values
  // (Algorithm 2 line 4: tfmax starts as t).
  Schema s = *Schema::Make({"A", "B", "C"});
  RuleSet rules(s);
  rules.Add(*Constraint::MakeFd(s, {0}, {1}));  // A -> B
  rules.Add(*Constraint::MakeFd(s, {2}, {1}));  // C -> B
  Dataset d = *Dataset::Make(s, {{"a1", "b1", "c1"}, {"a1", "b1", "c1"},
                                 {"a2", "b2", "c1"}, {"a2", "b2", "c1"}});
  // Tuple t4 = {a1, b?, c1}: B1 says b1 (via a1), B2 is keyed by c1 whose
  // winner is ambiguous. Construct index manually for precision:
  MlnIndex index = *MlnIndex::Build(d, rules);
  CleaningOptions options;
  DistanceFn dist = MakeDistanceFn(options.distance);
  index.LearnWeights();
  RunRscAll(&index, d, rules, dist, nullptr);
  // After RSC the c1 group picked one of b1/b2. The a1/a2 groups are
  // unambiguous. Fusion of every tuple must succeed here (substitutes
  // exist), so all tuples get consistent values.
  Dataset cleaned = d.Clone();
  CleaningReport report;
  RunFscr(d, rules, index, options, &cleaned, &report);
  for (const auto& rec : report.fscr) {
    EXPECT_TRUE(rec.fused);
  }
}

// Rows of two entities k1 and k2 (three copies each, plus a k1 copy with
// a typo in A0) under the FDs K -> A0 .. K -> A{num_rules - 1}, so every
// tuple has `num_rules` versions.
RuleSet KeyedRows(size_t num_rules, Dataset* dirty, Dataset* clean) {
  std::vector<std::string> names = {"K"};
  for (size_t a = 0; a < num_rules; ++a) names.push_back("A" + std::to_string(a));
  Schema s = *Schema::Make(names);
  RuleSet rules(s);
  for (size_t r = 0; r < num_rules; ++r) {
    rules.Add(*Constraint::MakeFd(s, {0}, {static_cast<AttrId>(1 + r)}));
  }
  std::vector<std::vector<Value>> rows;
  for (const std::string k : {"k1", "k2"}) {
    std::vector<Value> row = {k};
    for (size_t a = 0; a < num_rules; ++a) row.push_back(k + "v" + std::to_string(a));
    rows.insert(rows.end(), 3, row);
  }
  rows.push_back(rows[0]);
  *clean = *Dataset::Make(s, rows);
  rows.back()[1] = "k1v0x";
  *dirty = *Dataset::Make(s, rows);
  return rules;
}

// KeyedRows through stage I, then FSCR.
CleaningReport FuseKeyedRows(size_t num_rules, Dataset* cleaned, Dataset* clean) {
  Dataset dirty;
  const RuleSet rules = KeyedRows(num_rules, &dirty, clean);
  CleaningOptions options;
  MlnIndex index = *MlnIndex::Build(dirty, rules);
  RunAgpAll(&index, dirty, rules, options, nullptr);
  index.LearnWeights();
  RunRscAll(&index, dirty, rules, MakeDistanceFn(options.distance), nullptr);
  *cleaned = dirty.Clone();
  CleaningReport report;
  report.fscr_greedy_tuples = RunFscr(dirty, rules, index, options, cleaned, &report);
  return report;
}

TEST(FscrTest, GreedyPathForManyVersions) {
  // 33 rules give every tuple 33 versions, one past the 32 a search's
  // version mask holds: each is fused greedily, without a search node,
  // and the typo is still repaired.
  Dataset cleaned;
  Dataset clean;
  CleaningReport report = FuseKeyedRows(33, &cleaned, &clean);
  EXPECT_EQ(cleaned, clean);
  ASSERT_EQ(report.fscr.size(), 7u);
  for (const auto& rec : report.fscr) {
    EXPECT_EQ(rec.outcome, FusionOutcome::kGreedy) << "tuple " << rec.tuple;
    EXPECT_TRUE(rec.fused) << "tuple " << rec.tuple;
    EXPECT_EQ(rec.nodes, 0u) << "tuple " << rec.tuple;
  }
  EXPECT_NE(report.Summary().find("0 exhaustive, 7 greedy"), std::string::npos)
      << report.Summary();

  // 32 rules, 32 versions that agree: none is active, so every tuple is
  // searched exactly, in one node at the root. Active versions past 7
  // take the greedy path too (FscrOracleTest.GreedyPathMatchesReference).
  report = FuseKeyedRows(32, &cleaned, &clean);
  EXPECT_EQ(cleaned, clean);
  for (const auto& rec : report.fscr) {
    EXPECT_EQ(rec.outcome, FusionOutcome::kExhaustive) << "tuple " << rec.tuple;
    EXPECT_TRUE(rec.fused) << "tuple " << rec.tuple;
    EXPECT_EQ(rec.active_versions, 0u) << "tuple " << rec.tuple;
    EXPECT_EQ(rec.nodes, 1u) << "tuple " << rec.tuple;
  }
  EXPECT_NE(report.Summary().find("7 exhaustive, 0 greedy"), std::string::npos)
      << report.Summary();
}

TEST(FscrTest, GreedyCountIsKeptWithoutRecords) {
  // A session counts greedy fusions beside its timings: the count equals
  // the kGreedy records, and survives a session that collects none.
  Dataset dirty;
  Dataset clean;
  const RuleSet rules = KeyedRows(33, &dirty, &clean);
  const CleanModel model = *CleaningEngine().Compile(dirty.schema(), rules);
  for (bool collect : {true, false}) {
    SessionOptions opts;
    opts.collect_report = collect;
    const CleanResult result = *model.Clean(dirty, opts);
    size_t greedy_records = 0;
    for (const auto& rec : result.report.fscr) {
      if (rec.outcome == FusionOutcome::kGreedy) ++greedy_records;
    }
    EXPECT_EQ(greedy_records, collect ? 7u : 0u) << "collect " << collect;
    EXPECT_EQ(result.report.fscr_greedy_tuples, 7u) << "collect " << collect;
  }
}

TEST(FscrTest, FScoreIsProductOfWeights) {
  // For a tuple with two conflict-free versions the f-score is w1 * w2.
  StageOneFixture f;
  Dataset cleaned = f.dirty.Clone();
  CleaningReport report;
  RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, &report);
  // t1's versions: B1 {DOTHAN, AL} and B2 {3347938701, AL}.
  double w1 = 0, w2 = 0;
  for (const Group& g : f.index.block(0).groups) {
    if (testing::ReasonValues(g.pieces[0], f.dirty, f.rules.rule(0)) ==
        std::vector<Value>{"DOTHAN"}) {
      w1 = g.pieces[0].weight;
    }
  }
  for (const Group& g : f.index.block(1).groups) {
    if (testing::ReasonValues(g.pieces[0], f.dirty, f.rules.rule(1)) ==
        std::vector<Value>{"3347938701"}) {
      w2 = g.pieces[0].weight;
    }
  }
  ASSERT_GT(w1, 0.0);
  ASSERT_GT(w2, 0.0);
  EXPECT_NEAR(report.fscr[0].f_score, w1 * w2, 1e-9);
}

TEST(FscrTest, StoppedRunAppendsNoRecords) {
  // A run whose context is stopped appends no records, on every executor;
  // records already in the report stay as they were.
  StageOneFixture f;
  std::atomic<bool> cancel{true};
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(threads);
    PoolExecutor pool(threads);
    ExecContext ctx;
    ctx.executor = &pool;
    ctx.cancel = &cancel;
    CleaningReport report;
    FscrRecord earlier;
    earlier.tuple = 7;
    earlier.fused = true;
    earlier.f_score = 0.5;
    report.fscr.push_back(earlier);
    Dataset cleaned = f.dirty.Clone();
    RunFscr(f.dirty, f.rules, f.index, f.options, &cleaned, &report, ctx);
    ASSERT_EQ(report.fscr.size(), 1u);
    EXPECT_EQ(report.fscr[0].tuple, 7);
    EXPECT_TRUE(report.fscr[0].fused);
    EXPECT_EQ(report.fscr[0].f_score, 0.5);
  }
}

TEST(FscrTest, SearchWorkTotalsArePinned) {
  // One fixed stage-I HAI-40 index (seed 42, τ = 3, as bench/e2e's
  // hai_batch table 0). A change to how a node is evaluated must permute
  // the same versions, visit the same nodes, end as many of them with
  // nothing left to explore and pick the same γ's. The totals follow the learned weights, so a
  // learner change re-pins them.
  Workload wl = *MakeHospitalWorkload({.num_hospitals = 40, .num_measures = 10});
  ErrorSpec spec;
  spec.seed = 42;
  Dataset dirty = InjectErrors(wl.clean, wl.rules, spec)->dirty;
  CleaningOptions options;
  options.agp_threshold = 3;
  MlnIndex index = *MlnIndex::Build(dirty, wl.rules);
  RunAgpAll(&index, dirty, wl.rules, options, nullptr);
  index.LearnWeights();
  RunRscAll(&index, dirty, wl.rules, MakeDistanceFn(options.distance), nullptr);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    PoolExecutor pool(threads);
    ExecContext ctx;
    if (threads > 1) ctx.executor = &pool;
    Dataset cleaned = dirty.Clone();
    CleaningReport report;
    RunFscr(dirty, wl.rules, index, options, &cleaned, &report, ctx);
    size_t active = 0;
    size_t nodes = 0;
    size_t hits = 0;
    size_t substitutions = 0;
    for (const FscrRecord& rec : report.fscr) {
      active += rec.active_versions;
      nodes += rec.nodes;
      hits += rec.dominance_hits;
      substitutions += rec.substitutions;
    }
    EXPECT_EQ(active, 216u) << "threads " << threads;
    EXPECT_EQ(nodes, 5522u) << "threads " << threads;
    EXPECT_EQ(hits, 1266u) << "threads " << threads;
    EXPECT_EQ(substitutions, 3217u) << "threads " << threads;
    EXPECT_NE(report.Summary().find(std::to_string(active) + " active versions, " +
                                    std::to_string(nodes) + " nodes"),
              std::string::npos)
        << report.Summary();
  }
}

}  // namespace
}  // namespace mlnclean

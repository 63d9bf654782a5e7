// Differential test of AGP against the all-pairs scan it replaced.
//
// The reference compares each abnormal γ* with the γ* of every normal
// group of its block, in group order, by PieceDistance under
// MakeNormalizedDistanceFn(metric); it keeps the first strict minimum (so
// a tie goes to the earliest normal group) and merges at once, so a later
// abnormal group sees the target's new γ*.
//
// RunAgpAll must agree with it bit for bit — every AgpMergeRecord and
// every group left behind, piece by piece — at 1 and 4 threads, on seeded
// random grounded indexes and on hand-built blocks, for all three metrics
// and τ from 1 to 3.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cleaning/agp.h"
#include "testing/hand_built.h"

namespace mlnclean {
namespace {

struct RefStats {
  size_t merges = 0;
  size_t ties = 0;          // a later candidate at exactly the best distance
  size_t star_changes = 0;  // a merge that changed the target's γ*
};

// The reference's account of one abnormal group, its keys as strings.
struct RefRecord {
  size_t block = 0;
  std::vector<Value> abnormal_key;
  std::vector<TupleId> abnormal_tuples;
  size_t num_pieces = 0;
  std::vector<Value> target_key;
  bool merged = false;
};

size_t StarIndex(const Group& group) {
  return static_cast<size_t>(&group.Star() - group.pieces.data());
}

// The all-pairs scan, one block at a time, in block order.
std::vector<RefRecord> ReferenceAgp(MlnIndex* index, const Dataset& data, const RuleSet& rules,
                                    size_t tau, DistanceMetric metric, RefStats* stats) {
  const DistanceFn dist = MakeNormalizedDistanceFn(metric);
  std::vector<RefRecord> records;
  for (size_t bi = 0; bi < index->num_blocks(); ++bi) {
    Block& block = index->block(bi);
    const Constraint& rule = rules.rule(block.rule_index);
    std::vector<size_t> normal, abnormal;
    for (size_t gi = 0; gi < block.groups.size(); ++gi) {
      (block.groups[gi].TupleCount() <= tau ? abnormal : normal).push_back(gi);
    }
    std::vector<bool> remove(block.groups.size(), false);
    for (size_t ai : abnormal) {
      Group& group = block.groups[ai];
      RefRecord rec;
      rec.block = block.rule_index;
      rec.abnormal_key = testing::ReasonValues(group.pieces.front(), data, rule);
      rec.num_pieces = group.pieces.size();
      for (const Piece& piece : group.pieces) {
        rec.abnormal_tuples.insert(rec.abnormal_tuples.end(), piece.tuples.begin(),
                                   piece.tuples.end());
      }
      if (!normal.empty()) {
        double best = std::numeric_limits<double>::infinity();
        size_t best_gi = normal.front();
        for (size_t ni : normal) {
          const double d =
              PieceDistance(group.Star(), block.groups[ni].Star(), data, rule, dist);
          if (d < best) {
            best = d;
            best_gi = ni;
          } else if (d == best) {
            ++stats->ties;
          }
        }
        Group& target = block.groups[best_gi];
        const size_t star_before = StarIndex(target);
        for (Piece& piece : group.pieces) target.pieces.push_back(std::move(piece));
        group.pieces.clear();
        if (StarIndex(target) != star_before) ++stats->star_changes;
        rec.target_key = testing::ReasonValues(target.pieces.front(), data, rule);
        rec.merged = true;
        remove[ai] = true;
        ++stats->merges;
      }
      records.push_back(std::move(rec));
    }
    std::vector<Group> kept;
    for (size_t gi = 0; gi < block.groups.size(); ++gi) {
      if (!remove[gi]) kept.push_back(std::move(block.groups[gi]));
    }
    block.groups = std::move(kept);
  }
  return records;
}

// RunAgpAll's records against the reference's, keys resolved through
// `data` and each record's rule.
void ExpectSameRecords(const CleaningReport& got, const std::vector<RefRecord>& want,
                       const Dataset& data, const RuleSet& rules) {
  ASSERT_EQ(got.agp.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const AgpMergeRecord& g = got.agp[i];
    const RefRecord& w = want[i];
    EXPECT_EQ(g.block, w.block);
    const Constraint& rule = rules.rule(g.block);
    EXPECT_EQ(ResolveIds(g.abnormal_key, data, rule), w.abnormal_key);
    EXPECT_EQ(g.abnormal_tuples, w.abnormal_tuples);
    EXPECT_EQ(g.num_pieces, w.num_pieces);
    EXPECT_EQ(ResolveIds(g.target_key, data, rule), w.target_key);
    EXPECT_EQ(g.merged, w.merged);
  }
}

void ExpectSameGroups(const MlnIndex& got, const MlnIndex& want, const RuleSet& rules) {
  ASSERT_EQ(got.num_blocks(), want.num_blocks());
  for (size_t bi = 0; bi < want.num_blocks(); ++bi) {
    const std::vector<Group>& g = got.block(bi).groups;
    const std::vector<Group>& w = want.block(bi).groups;
    ASSERT_EQ(g.size(), w.size()) << "block " << bi;
    for (size_t gi = 0; gi < w.size(); ++gi) {
      SCOPED_TRACE("block " + std::to_string(bi) + " group " + std::to_string(gi));
      // FindGroup reads the surviving groups, with no reindex step.
      const Constraint& rule = rules.rule(want.block(bi).rule_index);
      const Result<size_t> found =
          got.FindGroup(bi, testing::ReasonIds(w[gi].pieces.front(), rule));
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(*found, gi);
      ASSERT_EQ(g[gi].pieces.size(), w[gi].pieces.size());
      for (size_t pi = 0; pi < w[gi].pieces.size(); ++pi) {
        const Piece& gp = g[gi].pieces[pi];
        const Piece& wp = w[gi].pieces[pi];
        EXPECT_EQ(gp.tuples, wp.tuples);
        EXPECT_EQ(gp.ids, wp.ids);
      }
    }
  }
}

// Runs RunAgpAll on copies of `index` (over `data` and `rules`) at 1 and 4
// threads and diffs both against the reference. Returns the reference's
// counts.
RefStats ExpectMatchesReference(const MlnIndex& index, const Dataset& data,
                                const RuleSet& rules, size_t tau, DistanceMetric metric,
                                const std::string& label) {
  RefStats stats;
  MlnIndex want = index;
  const std::vector<RefRecord> want_records =
      ReferenceAgp(&want, data, rules, tau, metric, &stats);
  CleaningOptions options;
  options.agp_threshold = tau;
  options.distance = metric;
  PoolExecutor pool(4);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(label + " metric=" + DistanceMetricName(metric) +
                 " tau=" + std::to_string(tau) + " threads=" + std::to_string(threads));
    ExecContext ctx;
    if (threads > 1) ctx.executor = &pool;
    MlnIndex got = index;
    CleaningReport report;
    RunAgpAll(&got, data, rules, options, &report, ctx);
    ExpectSameRecords(report, want_records, data, rules);
    ExpectSameGroups(got, want, rules);
  }
  return stats;
}

constexpr DistanceMetric kMetrics[] = {DistanceMetric::kLevenshtein,
                                       DistanceMetric::kDamerau, DistanceMetric::kCosine};

// A value pool per attribute: short strings over a small alphabet, so
// lengths repeat (length bounds tie) and distances tie, plus the empty
// value.
std::vector<std::string> ValuePool(std::mt19937* rng, size_t size) {
  std::vector<std::string> pool = {""};
  while (pool.size() < size) {
    std::string value;
    const size_t len = 1 + (*rng)() % 6;
    for (size_t i = 0; i < len; ++i) value.push_back("abc"[(*rng)() % 3]);
    pool.push_back(value);
  }
  return pool;
}

TEST(AgpOracleTest, RandomGroundedIndexesMatchReference) {
  RefStats total;
  size_t records = 0;
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    const size_t num_attrs = 3 + pick(3);
    std::vector<std::string> names;
    for (size_t a = 0; a < num_attrs; ++a) names.push_back("A" + std::to_string(a));
    Schema schema = *Schema::Make(names);
    // Pools of very different sizes: wide ones give blocks with many
    // groups (a reason position with one value per candidate), narrow
    // ones give positions the scan tables.
    std::vector<std::vector<std::string>> pools;
    for (size_t a = 0; a < num_attrs; ++a) {
      pools.push_back(ValuePool(&rng, 2 + pick(2) * 10 + pick(30)));
    }
    RuleSet rules(schema);
    const size_t num_rules = 1 + pick(3);
    for (size_t r = 0; r < num_rules; ++r) {
      std::vector<AttrId> lhs = {static_cast<AttrId>(pick(num_attrs))};
      if (pick(3) == 0) {
        const AttrId second = static_cast<AttrId>(pick(num_attrs));
        if (second != lhs[0]) lhs.push_back(second);
      }
      AttrId rhs = static_cast<AttrId>(pick(num_attrs));
      while (std::find(lhs.begin(), lhs.end(), rhs) != lhs.end()) {
        rhs = static_cast<AttrId>(pick(num_attrs));
      }
      rules.Add(*Constraint::MakeFd(schema, lhs, {rhs}));
    }
    // Skewed draws: a few frequent values (normal groups) and a long tail
    // (abnormal groups).
    const size_t num_rows = 40 + pick(160);
    std::vector<std::vector<Value>> rows(num_rows, std::vector<Value>(num_attrs));
    for (auto& row : rows) {
      for (size_t a = 0; a < num_attrs; ++a) {
        const size_t w = pools[a].size();
        row[a] = pools[a][std::min(pick(w), pick(w))];
      }
    }
    Dataset dirty = *Dataset::Make(schema, rows);
    const MlnIndex index = *MlnIndex::Build(dirty, rules);
    for (DistanceMetric metric : kMetrics) {
      for (size_t tau = 1; tau <= 3; ++tau) {
        RefStats stats = ExpectMatchesReference(index, dirty, rules, tau, metric,
                                                "seed " + std::to_string(seed));
        total.merges += stats.merges;
        total.ties += stats.ties;
        total.star_changes += stats.star_changes;
        ++records;
      }
    }
  }
  // The corpus exercises what it is meant to.
  EXPECT_EQ(records, 60u * 9u);
  EXPECT_GT(total.merges, 10000u);
  EXPECT_GT(total.ties, 5000u);
  EXPECT_GT(total.star_changes, 100u);
}

// Hand-built blocks of one rule shape, `reason_width` reason attributes
// determining `result_width` result attributes: groups and γs are made
// directly (not grounded), their values interned into `data`.
struct HandBuilt {
  Dataset data;
  RuleSet rules;

  HandBuilt(size_t reason_width, size_t result_width, size_t num_blocks = 1)
      : data(MakeSchema(reason_width + result_width)), rules(data.schema()) {
    std::vector<AttrId> lhs, rhs;
    for (size_t p = 0; p < reason_width + result_width; ++p) {
      (p < reason_width ? lhs : rhs).push_back(static_cast<AttrId>(p));
    }
    for (size_t b = 0; b < num_blocks; ++b) {
      rules.Add(*Constraint::MakeFd(data.schema(), lhs, rhs));
    }
  }

  static Schema MakeSchema(size_t n) {
    std::vector<std::string> names;
    for (size_t a = 0; a < n; ++a) names.push_back("A" + std::to_string(a));
    return *Schema::Make(names);
  }

  // A γ of block 0's rule.
  Piece MakePiece(const std::vector<Value>& key, const std::vector<Value>& result,
                  std::vector<TupleId> tuples) {
    return testing::MakePiece(&data, rules.rule(0), key, result, std::move(tuples));
  }

  // A group keyed by `key` holding one γ per (result values, support) pair.
  Group MakeGroupOf(const std::vector<Value>& key,
                    const std::vector<std::pair<std::vector<Value>, size_t>>& pieces,
                    TupleId* next_tuple) {
    Group group;
    for (const auto& [result, support] : pieces) {
      std::vector<TupleId> tuples;
      for (size_t t = 0; t < support; ++t) tuples.push_back((*next_tuple)++);
      group.pieces.push_back(MakePiece(key, result, std::move(tuples)));
    }
    return group;
  }

  Group MakeGroup(const std::string& key,
                  const std::vector<std::pair<std::string, size_t>>& pieces,
                  TupleId* next_tuple) {
    std::vector<std::pair<std::vector<Value>, size_t>> wide;
    for (const auto& [result, support] : pieces) wide.push_back({{result}, support});
    return MakeGroupOf({key}, wide, next_tuple);
  }

  RefStats ExpectMatchesReference(const MlnIndex& index, size_t tau, DistanceMetric metric,
                                  const std::string& label) const {
    return mlnclean::ExpectMatchesReference(index, data, rules, tau, metric, label);
  }

  // The targets RunAgpAll picks under `metric`, in record order.
  std::vector<std::vector<Value>> Targets(const MlnIndex& index, size_t tau,
                                          DistanceMetric metric) const {
    MlnIndex got = index;
    CleaningOptions options;
    options.agp_threshold = tau;
    options.distance = metric;
    CleaningReport report;
    RunAgpAll(&got, data, rules, options, &report);
    std::vector<std::vector<Value>> targets;
    for (const AgpMergeRecord& rec : report.agp) {
      targets.push_back(ResolveIds(rec.target_key, data, rules.rule(rec.block)));
    }
    return targets;
  }
};

MlnIndex OneBlock(std::vector<Group> groups) {
  std::vector<Block> blocks(1);
  blocks[0].groups = std::move(groups);
  return MlnIndex::FromBlocks(std::move(blocks));
}

// Hand-built blocks of random shapes.
TEST(AgpOracleTest, HandBuiltBlocksMatchReference) {
  RefStats total;
  for (uint32_t seed = 1; seed <= 60; ++seed) {
    std::mt19937 rng(1000 + seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    const size_t reason_width = 1 + pick(2);
    const size_t result_width = 1 + pick(2);
    std::vector<std::vector<std::string>> pools;
    for (size_t p = 0; p < reason_width + result_width; ++p) {
      pools.push_back(ValuePool(&rng, 3 + pick(25)));
    }
    const size_t num_blocks = 1 + pick(3);
    HandBuilt h(reason_width, result_width, num_blocks);
    std::vector<Block> blocks(num_blocks);
    TupleId next_tuple = 0;
    for (size_t bi = 0; bi < blocks.size(); ++bi) {
      Block& block = blocks[bi];
      block.rule_index = bi;
      std::map<std::vector<Value>, bool> seen;
      const size_t num_groups = 2 + pick(40);
      for (size_t g = 0; g < num_groups; ++g) {
        std::vector<Value> key;
        for (size_t p = 0; p < reason_width; ++p) key.push_back(pools[p][pick(pools[p].size())]);
        if (!seen.emplace(key, true).second) continue;
        Group group;
        const size_t num_pieces = 1 + pick(3);
        for (size_t k = 0; k < num_pieces; ++k) {
          std::vector<Value> result;
          for (size_t p = 0; p < result_width; ++p) {
            const auto& pool = pools[reason_width + p];
            result.push_back(pool[pick(pool.size())]);
          }
          std::vector<TupleId> tuples;
          const size_t support = 1 + pick(3);
          for (size_t t = 0; t < support; ++t) tuples.push_back(next_tuple++);
          group.pieces.push_back(h.MakePiece(key, result, std::move(tuples)));
        }
        block.groups.push_back(std::move(group));
      }
    }
    const MlnIndex index = MlnIndex::FromBlocks(std::move(blocks));
    for (DistanceMetric metric : kMetrics) {
      for (size_t tau = 1; tau <= 3; ++tau) {
        RefStats stats =
            h.ExpectMatchesReference(index, tau, metric, "seed " + std::to_string(seed));
        total.merges += stats.merges;
        total.ties += stats.ties;
        total.star_changes += stats.star_changes;
      }
    }
  }
  EXPECT_GT(total.merges, 3000u);
  EXPECT_GT(total.ties, 1000u);
  EXPECT_GT(total.star_changes, 50u);
}

TEST(AgpOracleTest, MergeThatChangesTheTargetsStarSteersTheNextMerge) {
  // τ = 2. G0 holds three single-tuple γs (γ* = its first), G1 one γ of
  // three tuples. Keys differ by substitutions only, 8 characters long:
  // A1 is 2 from G0 and 5 from G1, so it merges into G0 and, with two
  // tuples, becomes G0's γ*. A2 is 4 from G0's old γ*, 3 from G1 and 2
  // from A1: only a scan that reloads G0's γ* sends it to G0.
  HandBuilt h(1, 1);
  TupleId next = 0;
  Block block;
  block.groups.push_back(h.MakeGroup("aaaaaaaa", {{"r", 1}, {"s", 1}, {"t", 1}}, &next));
  block.groups.push_back(h.MakeGroup("abbbbbbb", {{"r", 3}}, &next));
  block.groups.push_back(h.MakeGroup("aaaaaabb", {{"r", 2}}, &next));
  block.groups.push_back(h.MakeGroup("aaaabbbb", {{"r", 1}}, &next));
  std::vector<Block> blocks;
  blocks.push_back(std::move(block));
  const MlnIndex index = MlnIndex::FromBlocks(std::move(blocks));

  for (DistanceMetric metric : kMetrics) {
    RefStats stats = h.ExpectMatchesReference(index, 2, metric, "star change");
    if (metric == DistanceMetric::kCosine) continue;
    EXPECT_EQ(stats.star_changes, 1u);
    MlnIndex got = index;
    CleaningOptions options;
    options.agp_threshold = 2;
    options.distance = metric;
    CleaningReport report;
    RunAgpAll(&got, h.data, h.rules, options, &report);
    ASSERT_EQ(report.agp.size(), 2u);
    for (const AgpMergeRecord& rec : report.agp) {
      EXPECT_EQ(ResolveIds(rec.target_key, h.data, h.rules.rule(rec.block)),
                (std::vector<Value>{"aaaaaaaa"}));
    }
    ASSERT_EQ(got.block(0).groups.size(), 2u);
    EXPECT_EQ(got.block(0).groups[0].pieces.size(), 5u);
  }
}

TEST(AgpOracleTest, TiesGoToTheEarliestNormalGroup) {
  // The abnormal key is two substitutions from each of three normal keys
  // of its length: every bound and every distance ties, and the first
  // normal group wins.
  HandBuilt h(1, 1);
  TupleId next = 0;
  Block block;
  block.groups.push_back(h.MakeGroup("bbbx", {{"r", 1}}, &next));
  block.groups.push_back(h.MakeGroup("abbb", {{"r", 2}}, &next));
  block.groups.push_back(h.MakeGroup("babb", {{"r", 2}}, &next));
  block.groups.push_back(h.MakeGroup("bbab", {{"r", 2}}, &next));
  std::vector<Block> blocks;
  blocks.push_back(std::move(block));
  const MlnIndex index = MlnIndex::FromBlocks(std::move(blocks));
  for (DistanceMetric metric : {DistanceMetric::kLevenshtein, DistanceMetric::kDamerau}) {
    RefStats stats = h.ExpectMatchesReference(index, 1, metric, "ties");
    EXPECT_EQ(stats.ties, 2u);
    MlnIndex got = index;
    CleaningOptions options;
    options.distance = metric;
    CleaningReport report;
    RunAgpAll(&got, h.data, h.rules, options, &report);
    ASSERT_EQ(report.agp.size(), 1u);
    EXPECT_EQ(ResolveIds(report.agp[0].target_key, h.data, h.rules.rule(0)),
              (std::vector<Value>{"abbb"}));
  }
}

// The cases below pin the scan's bookkeeping: term rows cached per block
// and extended by star reloads, the own slot of each abnormal γ* read as
// 0, buckets rebuilt when a candidate's tabled slots change, and bucket
// bounds that skip only on a strict `>`. Distances quoted are normalized
// Levenshtein (and Damerau: no transpositions occur).

TEST(AgpOracleTest, StarReloadExtendsCachedRowsAndRebucketsTheTarget) {
  // τ = 2. The result position is tabled (3 values, 5 candidates); the
  // buckets are {G0, G1} on "x", {G2, G4} on "y", {G3} on "xy". A0 caches
  // the "x" row over {x, y, xy}. A1 merges into G0 and, with two tuples,
  // becomes its γ*: a new slot "z" extends every row and G0 moves to its
  // own bucket. A2 is 0.25 from G1 and 0.75 from G3. Were G0 still G1's
  // bucket representative, that bucket's bound would read 1 (x vs z), and
  // G3's 0.75 would skip G1.
  HandBuilt h(1, 1);
  TupleId next = 0;
  std::vector<Group> groups;
  groups.push_back(h.MakeGroupOf({"aaaa"}, {{{"x"}, 1}, {{"w"}, 1}, {{"v"}, 1}}, &next));
  groups.push_back(h.MakeGroupOf({"bbbb"}, {{{"x"}, 3}}, &next));
  groups.push_back(h.MakeGroupOf({"cccc"}, {{{"y"}, 3}}, &next));
  groups.push_back(h.MakeGroupOf({"bbcc"}, {{{"xy"}, 3}}, &next));
  groups.push_back(h.MakeGroupOf({"eeee"}, {{{"y"}, 3}}, &next));
  groups.push_back(h.MakeGroupOf({"gggg"}, {{{"x"}, 1}}, &next));  // A0
  groups.push_back(h.MakeGroupOf({"aaab"}, {{{"z"}, 2}}, &next));  // A1
  groups.push_back(h.MakeGroupOf({"bbbc"}, {{{"x"}, 1}}, &next));  // A2
  const MlnIndex index = OneBlock(std::move(groups));
  for (DistanceMetric metric : kMetrics) {
    const RefStats stats = h.ExpectMatchesReference(index, 2, metric, "reload");
    EXPECT_EQ(stats.star_changes, 1u);
  }
  const std::vector<std::vector<Value>> want = {{"aaaa"}, {"aaaa"}, {"bbbb"}};
  EXPECT_EQ(h.Targets(index, 2, DistanceMetric::kLevenshtein), want);
}

TEST(AgpOracleTest, ValueThatBecameASlotMidBlockReadsZeroOnItsOwnSlot) {
  // τ = 2; both positions are bounded (as many values as candidates). A0
  // caches the length-4 bound row of the result position. A1 merges into
  // G1 and becomes its γ* ("ccccccccdd", "zzzz"), so "zzzz" is a slot from
  // then on. A2 holds "zzzz" too: its own slot in the shared length-4 row
  // holds the bound 0.25 for unequal values and must read 0. A2 is 0.2
  // from G1 and 0.35 from G2; with 0.25 added, G2 would win.
  HandBuilt h(1, 1);
  TupleId next = 0;
  std::vector<Group> groups;
  groups.push_back(h.MakeGroupOf({"aaaaaaaaaa"}, {{{"pppp"}, 3}}, &next));
  groups.push_back(
      h.MakeGroupOf({"ccccccccdx"}, {{{"zzzw"}, 1}, {{"zzzv"}, 1}, {{"zzzu"}, 1}}, &next));
  groups.push_back(h.MakeGroupOf({"ccccccccce"}, {{{"zzzq"}, 3}}, &next));
  groups.push_back(h.MakeGroupOf({"bbbbbbbbbb"}, {{{"tttt"}, 1}}, &next));  // A0
  groups.push_back(h.MakeGroupOf({"ccccccccdd"}, {{{"zzzz"}, 2}}, &next));  // A1
  groups.push_back(h.MakeGroupOf({"cccccccccc"}, {{{"zzzz"}, 1}}, &next));  // A2
  const MlnIndex index = OneBlock(std::move(groups));
  for (DistanceMetric metric : kMetrics) {
    const RefStats stats = h.ExpectMatchesReference(index, 2, metric, "own slot");
    EXPECT_EQ(stats.star_changes, 1u);
  }
  const std::vector<std::vector<Value>> want = {
      {"aaaaaaaaaa"}, {"ccccccccdx"}, {"ccccccccdx"}};
  EXPECT_EQ(h.Targets(index, 2, DistanceMetric::kLevenshtein), want);
}

TEST(AgpOracleTest, TabledPositionFlipsToBoundedAsItsSlotsGrow) {
  // τ = 2. The result position starts tabled (2 values, 3 candidates). A1
  // becomes G0's γ* and adds "z": 3 values for 3 candidates, so from A2
  // on it is bounded and A0's cached kernel row gives way to length rows.
  HandBuilt h(1, 1);
  TupleId next = 0;
  std::vector<Group> groups;
  groups.push_back(h.MakeGroupOf({"aaaa"}, {{{"x"}, 1}, {{"w"}, 1}, {{"v"}, 1}}, &next));
  groups.push_back(h.MakeGroupOf({"bbbb"}, {{{"x"}, 3}}, &next));
  groups.push_back(h.MakeGroupOf({"cccc"}, {{{"y"}, 3}}, &next));
  groups.push_back(h.MakeGroupOf({"gggg"}, {{{"zz"}, 1}}, &next));  // A0
  groups.push_back(h.MakeGroupOf({"aaab"}, {{{"z"}, 2}}, &next));   // A1
  groups.push_back(h.MakeGroupOf({"aabb"}, {{{"zz"}, 1}}, &next));  // A2
  groups.push_back(h.MakeGroupOf({"cccd"}, {{{"y"}, 1}}, &next));   // A3
  const MlnIndex index = OneBlock(std::move(groups));
  for (DistanceMetric metric : kMetrics) {
    const RefStats stats = h.ExpectMatchesReference(index, 2, metric, "flip");
    EXPECT_EQ(stats.star_changes, 1u);
  }
  const std::vector<std::vector<Value>> want = {{"aaaa"}, {"aaaa"}, {"aaaa"}, {"cccc"}};
  EXPECT_EQ(h.Targets(index, 2, DistanceMetric::kLevenshtein), want);
}

TEST(AgpOracleTest, BucketBoundEqualToTheBestIsStillScanned) {
  // τ = 1. Reason = (tabled, bounded); the abnormal key is
  // ("aaaa", "kkkk"). G1 and G2 share the first reason value "aaab", so
  // their bucket has the smallest bound (0.25) and is scanned first: G1
  // is exactly 0.25 + 0.25 = 0.5. G0's bucket bound is 0.5 (aaaa vs
  // aabb) and G0 is exactly 0.5 too (its "kkkk" is the abnormal's own
  // slot), so it ties the best and wins on position. A bucket skipped on
  // `>=` would hand the merge to G1.
  HandBuilt h(2, 1);
  TupleId next = 0;
  std::vector<Group> groups;
  groups.push_back(h.MakeGroupOf({"aabb", "kkkk"}, {{{"r"}, 2}}, &next));
  groups.push_back(h.MakeGroupOf({"aaab", "kkkj"}, {{{"r"}, 2}}, &next));
  groups.push_back(h.MakeGroupOf({"aaab", "zzzz"}, {{{"r"}, 2}}, &next));
  groups.push_back(h.MakeGroupOf({"aaaa", "kkkk"}, {{{"r"}, 1}}, &next));
  const MlnIndex index = OneBlock(std::move(groups));
  for (DistanceMetric metric : kMetrics) {
    const RefStats stats = h.ExpectMatchesReference(index, 1, metric, "bucket tie");
    if (metric == DistanceMetric::kCosine) continue;
    EXPECT_EQ(stats.ties, 1u);
    const std::vector<std::vector<Value>> want = {{"aabb", "kkkk"}};
    EXPECT_EQ(h.Targets(index, 1, metric), want);
  }
}

}  // namespace
}  // namespace mlnclean

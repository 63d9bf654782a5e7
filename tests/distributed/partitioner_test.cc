#include "distributed/partitioner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/tpch.h"
#include "fleet/shard_router.h"

namespace mlnclean {
namespace {

Dataset SmallData() {
  Workload wl = *MakeTpchWorkload({.num_customers = 10, .num_rows = 100});
  return wl.clean;
}

TEST(PartitionerTest, CoversEveryTupleExactlyOnce) {
  Dataset d = SmallData();
  PartitionOptions opts;
  opts.num_parts = 4;
  Partition p = *PartitionDataset(d, opts);
  std::vector<int> seen(d.num_rows(), 0);
  for (const auto& part : p.parts) {
    for (TupleId tid : part) seen[static_cast<size_t>(tid)]++;
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int c) { return c == 1; }));
}

TEST(PartitionerTest, RespectsCapacity) {
  Dataset d = SmallData();
  PartitionOptions opts;
  opts.num_parts = 3;
  Partition p = *PartitionDataset(d, opts);
  EXPECT_EQ(p.capacity, (d.num_rows() + 2) / 3);
  for (const auto& part : p.parts) {
    EXPECT_LE(part.size(), p.capacity);
    EXPECT_FALSE(part.empty());  // every part holds at least its centroid
  }
}

TEST(PartitionerTest, CentroidsAreMembersOfTheirParts) {
  Dataset d = SmallData();
  PartitionOptions opts;
  opts.num_parts = 5;
  Partition p = *PartitionDataset(d, opts);
  ASSERT_EQ(p.centroids.size(), 5u);
  for (size_t i = 0; i < p.parts.size(); ++i) {
    EXPECT_TRUE(std::find(p.parts[i].begin(), p.parts[i].end(), p.centroids[i]) !=
                p.parts[i].end());
  }
}

TEST(PartitionerTest, DeterministicForSeed) {
  Dataset d = SmallData();
  PartitionOptions opts;
  opts.num_parts = 4;
  opts.seed = 123;
  Partition a = *PartitionDataset(d, opts);
  Partition b = *PartitionDataset(d, opts);
  EXPECT_EQ(a.parts, b.parts);
  opts.seed = 124;
  Partition c = *PartitionDataset(d, opts);
  EXPECT_TRUE(a.parts != c.parts || a.centroids != c.centroids);
}

TEST(PartitionerTest, SinglePartHoldsEverything) {
  Dataset d = SmallData();
  PartitionOptions opts;
  opts.num_parts = 1;
  Partition p = *PartitionDataset(d, opts);
  ASSERT_EQ(p.parts.size(), 1u);
  EXPECT_EQ(p.parts[0].size(), d.num_rows());
}

TEST(PartitionerTest, PartsEqualRowsYieldsSingletons) {
  Schema s = *Schema::Make({"A"});
  Dataset d = *Dataset::Make(s, {{"aa"}, {"bb"}, {"cc"}});
  PartitionOptions opts;
  opts.num_parts = 3;
  Partition p = *PartitionDataset(d, opts);
  for (const auto& part : p.parts) {
    EXPECT_EQ(part.size(), 1u);
  }
}

TEST(PartitionerTest, InvalidConfigs) {
  Dataset d = SmallData();
  PartitionOptions opts;
  opts.num_parts = 0;
  EXPECT_FALSE(PartitionDataset(d, opts).ok());
  opts.num_parts = d.num_rows() + 1;
  EXPECT_FALSE(PartitionDataset(d, opts).ok());
}

TEST(PartitionerTest, SimilarTuplesGravitateToSameParts) {
  // Two well-separated clusters and k=2: whenever the random centroids
  // land in different clusters (centroid choice is random, so try a few
  // seeds), the partitioner must keep the clusters essentially intact.
  Schema s = *Schema::Make({"A"});
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({"aaaaaaaa" + std::to_string(i % 3)});
  for (int i = 0; i < 20; ++i) rows.push_back({"zzzzzzzz" + std::to_string(i % 3)});
  Dataset d = *Dataset::Make(s, rows);
  bool checked = false;
  for (uint64_t seed = 1; seed <= 16 && !checked; ++seed) {
    PartitionOptions opts;
    opts.num_parts = 2;
    opts.seed = seed;
    Partition p = *PartitionDataset(d, opts);
    bool c0_in_a = p.centroids[0] < 20;
    bool c1_in_a = p.centroids[1] < 20;
    if (c0_in_a == c1_in_a) continue;  // both centroids in one cluster
    checked = true;
    size_t part_of_a = c0_in_a ? 0 : 1;
    size_t a_tuples = 0;
    for (TupleId tid : p.parts[part_of_a]) {
      if (tid < 20) ++a_tuples;
    }
    EXPECT_EQ(a_tuples, 20u) << "seed " << seed;
  }
  EXPECT_TRUE(checked) << "no seed produced cross-cluster centroids";
}

TEST(TupleDistanceTest, SumsAttributeDistances) {
  Schema s = *Schema::Make({"A", "B"});
  Dataset d = *Dataset::Make(s, {{"abc", "xy"}, {"abd", "xz"}});
  auto lev = MakeDistanceFn(DistanceMetric::kLevenshtein);
  EXPECT_DOUBLE_EQ(TupleDistance(d, 0, 1, lev), 2.0);
  EXPECT_DOUBLE_EQ(TupleDistance(d, 0, 0, lev), 0.0);
}

// Seeded random small table for the distance-table oracles: every
// attribute draws from a short pool of short strings plus NULL, so values
// repeat. Non-NULL values start with the attribute's name ('A', 'B', ...)
// so a counting kernel can tell which attribute a call belongs to.
Dataset RandomTable(std::mt19937* rng, size_t num_attrs, size_t num_rows) {
  std::vector<std::string> names;
  std::vector<std::vector<Value>> pools(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    names.push_back(std::string(1, static_cast<char>('A' + a)));
    pools[a].push_back("");  // NULL
    const size_t pool_size = 1 + (*rng)() % 5;
    for (size_t i = 0; i < pool_size; ++i) {
      std::string v = names[a];
      const size_t len = (*rng)() % 4;
      for (size_t c = 0; c < len; ++c) v += static_cast<char>('a' + (*rng)() % 3);
      pools[a].push_back(v);
    }
  }
  std::vector<std::vector<Value>> rows(num_rows);
  for (auto& row : rows) {
    for (size_t a = 0; a < num_attrs; ++a) {
      row.push_back(pools[a][(*rng)() % pools[a].size()]);
    }
  }
  return *Dataset::Make(*Schema::Make(names), rows);
}

constexpr DistanceMetric kMetrics[] = {DistanceMetric::kLevenshtein,
                                       DistanceMetric::kCosine,
                                       DistanceMetric::kDamerau};

// Oracle: every table entry is exactly TupleDistance against the centroid
// row, and the kernel runs at most once per distinct value and centroid
// of each attribute.
TEST(CentroidDistancesTest, MatchesTupleDistanceWithOneKernelCallPerValue) {
  std::mt19937 rng(2026);
  for (int round = 0; round < 60; ++round) {
    const size_t num_attrs = 2 + rng() % 3;
    Dataset data = RandomTable(&rng, num_attrs, 1 + rng() % 30);
    const size_t n = data.num_rows();
    const size_t k = 1 + rng() % std::min<size_t>(5, n);
    std::vector<TupleId> centroid_ids;
    std::vector<std::vector<Value>> centroids;
    for (size_t p = 0; p < k; ++p) {
      centroid_ids.push_back(static_cast<TupleId>(rng() % n));
      centroids.push_back(data.row(centroid_ids.back()));
    }
    for (DistanceMetric metric : kMetrics) {
      const DistanceFn dist = MakeNormalizedDistanceFn(metric);
      std::vector<size_t> calls(num_attrs, 0);
      const DistanceFn counting = [&](std::string_view a, std::string_view b) {
        const std::string_view tagged = a.empty() ? b : a;
        ++calls[static_cast<size_t>(tagged[0] - 'A')];
        return dist(a, b);
      };
      const std::vector<double> matrix = CentroidDistances(data, centroids, counting);
      ASSERT_EQ(matrix.size(), n * k);
      for (size_t t = 0; t < n; ++t) {
        for (size_t p = 0; p < k; ++p) {
          EXPECT_EQ(matrix[t * k + p],
                    TupleDistance(data, static_cast<TupleId>(t), centroid_ids[p], dist))
              << "round " << round << " row " << t << " centroid " << p;
        }
      }
      for (size_t a = 0; a < num_attrs; ++a) {
        const std::vector<ValueId>& column = data.column(static_cast<AttrId>(a));
        const std::set<ValueId> distinct(column.begin(), column.end());
        EXPECT_LE(calls[a], distinct.size() * k) << "round " << round << " attr " << a;
      }
    }
  }
}

// Oracle for the router, the table's second reader: every row goes to
// the brute-force nearest centroid, ties to the lowest shard index.
TEST(CentroidDistancesTest, ShardRouterRoutesToBruteForceArgmin) {
  std::mt19937 rng(7);
  size_t ties = 0;
  for (int round = 0; round < 60; ++round) {
    const size_t num_attrs = 2 + rng() % 3;
    Dataset reference = RandomTable(&rng, num_attrs, 1 + rng() % 30);
    Dataset batch = RandomTable(&rng, num_attrs, 1 + rng() % 30);
    ShardRouterOptions ropts;
    ropts.num_shards = 1 + rng() % std::min<size_t>(5, reference.num_rows());
    ropts.distance = kMetrics[rng() % 3];
    ropts.seed = static_cast<uint64_t>(round);
    ShardRouter router = *ShardRouter::Build(reference, ropts);
    const std::vector<size_t> routes = *router.RouteRows(batch);
    ASSERT_EQ(routes.size(), batch.num_rows());

    const DistanceFn dist = MakeNormalizedDistanceFn(ropts.distance);
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      size_t at_best = 0;
      for (size_t s = 0; s < router.num_shards(); ++s) {
        double d = 0.0;
        for (size_t a = 0; a < num_attrs; ++a) {
          d += dist(batch.at(static_cast<TupleId>(r), static_cast<AttrId>(a)),
                    router.centroids()[s][a]);
        }
        if (d < best_d) {
          best_d = d;
          best = s;
          at_best = 1;
        } else if (d == best_d) {
          ++at_best;
        }
      }
      EXPECT_EQ(routes[r], best) << "round " << round << " row " << r;
      if (at_best > 1) ++ties;
    }
  }
  EXPECT_GT(ties, 0u);  // the lowest-index tie rule was exercised
}

}  // namespace
}  // namespace mlnclean

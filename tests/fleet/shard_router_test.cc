#include "fleet/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "datagen/hospital.h"
#include "errorgen/injector.h"

namespace mlnclean {
namespace {

Dataset RouterReference() {
  HospitalConfig config;
  config.num_hospitals = 30;
  config.num_measures = 10;
  Workload wl = *MakeHospitalWorkload(config);
  ErrorSpec spec;
  spec.error_rate = 0.05;
  spec.seed = 17;
  return InjectErrors(wl.clean, wl.rules, spec)->dirty;
}

TEST(ShardRouterTest, BuildIsDeterministicForASeed) {
  Dataset reference = RouterReference();
  ShardRouterOptions opts;
  opts.num_shards = 3;
  ShardRouter a = *ShardRouter::Build(reference, opts);
  ShardRouter b = *ShardRouter::Build(reference, opts);
  EXPECT_EQ(a.num_shards(), 3u);
  EXPECT_EQ(a.centroids(), b.centroids());
  EXPECT_EQ(*a.RouteRows(reference), *b.RouteRows(reference));
}

// The routing contract: shard assignment depends on row *values*, never
// on the accident of dictionary id assignment — a batch whose
// dictionaries interned the same values in a different order routes
// identically.
TEST(ShardRouterTest, RoutingIgnoresDictionaryIdPermutation) {
  Dataset reference = RouterReference();
  ShardRouterOptions opts;
  opts.num_shards = 4;
  ShardRouter router = *ShardRouter::Build(reference, opts);

  // Same rows, permuted ids: pre-intern every attribute's domain in
  // reverse first-appearance order, then append the same rows.
  Dataset permuted(reference.schema());
  for (AttrId a = 0; a < static_cast<AttrId>(reference.num_attrs()); ++a) {
    std::vector<Value> domain = reference.Domain(a);
    for (auto it = domain.rbegin(); it != domain.rend(); ++it) {
      permuted.InternValue(a, *it);
    }
  }
  for (size_t r = 0; r < reference.num_rows(); ++r) {
    ASSERT_TRUE(permuted.Append(reference.row(static_cast<TupleId>(r))).ok());
  }
  ASSERT_EQ(permuted, reference);  // same content...
  bool ids_differ = false;         // ...under a different id assignment
  for (size_t r = 0; r < reference.num_rows() && !ids_differ; ++r) {
    for (AttrId a = 0; a < static_cast<AttrId>(reference.num_attrs()); ++a) {
      if (reference.id_at(static_cast<TupleId>(r), a) !=
          permuted.id_at(static_cast<TupleId>(r), a)) {
        ids_differ = true;
        break;
      }
    }
  }
  ASSERT_TRUE(ids_differ);

  EXPECT_EQ(*router.RouteRows(reference), *router.RouteRows(permuted));
}

TEST(ShardRouterTest, EncodeDecodeRoundTripsAndRoutesIdentically) {
  Dataset reference = RouterReference();
  ShardRouterOptions opts;
  opts.num_shards = 3;
  opts.distance = DistanceMetric::kCosine;
  ShardRouter router = *ShardRouter::Build(reference, opts);

  const std::vector<uint8_t> image = router.Encode();
  ShardRouter decoded = *ShardRouter::Decode(image);
  EXPECT_EQ(decoded.num_shards(), router.num_shards());
  EXPECT_TRUE(decoded.schema() == router.schema());
  EXPECT_EQ(decoded.distance(), router.distance());
  EXPECT_EQ(decoded.centroids(), router.centroids());
  EXPECT_EQ(decoded.Encode(), image);  // byte-stable across round trips
  EXPECT_EQ(*decoded.RouteRows(reference), *router.RouteRows(reference));
}

TEST(ShardRouterTest, DecodeRejectsMalformedImages) {
  Dataset reference = RouterReference();
  ShardRouterOptions opts;
  opts.num_shards = 2;
  std::vector<uint8_t> image = ShardRouter::Build(reference, opts)->Encode();

  // Every strict prefix is a truncation, never a crash or a success.
  for (size_t len = 0; len < image.size(); ++len) {
    EXPECT_FALSE(ShardRouter::Decode(image.data(), len).ok()) << "len " << len;
  }
  // Trailing garbage.
  std::vector<uint8_t> padded = image;
  padded.push_back(0);
  EXPECT_FALSE(ShardRouter::Decode(padded).ok());
  // Bad magic.
  std::vector<uint8_t> magic = image;
  magic[0] ^= 0xFF;
  EXPECT_FALSE(ShardRouter::Decode(magic).ok());
  // Unknown metric (byte 8 is the metric field's low byte).
  std::vector<uint8_t> metric = image;
  metric[8] = 0x7F;
  EXPECT_FALSE(ShardRouter::Decode(metric).ok());
}

TEST(ShardRouterTest, ShardCoversEveryRowExactlyOnce) {
  Dataset reference = RouterReference();
  ShardRouterOptions opts;
  opts.num_shards = 3;
  ShardRouter router = *ShardRouter::Build(reference, opts);

  ShardedBatch sharded = *router.Shard(reference);
  ASSERT_EQ(sharded.shards.size(), 3u);
  ASSERT_EQ(sharded.mapping.size(), 3u);
  std::vector<TupleId> covered;
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(sharded.shards[s].num_rows(), sharded.mapping[s].size());
    // Mapping preserves batch row order within a shard.
    ASSERT_TRUE(std::is_sorted(sharded.mapping[s].begin(),
                               sharded.mapping[s].end()));
    for (size_t local = 0; local < sharded.mapping[s].size(); ++local) {
      EXPECT_EQ(sharded.shards[s].row(static_cast<TupleId>(local)),
                reference.row(sharded.mapping[s][local]));
      covered.push_back(sharded.mapping[s][local]);
    }
  }
  std::sort(covered.begin(), covered.end());
  std::vector<TupleId> all(reference.num_rows());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(covered, all);

}

TEST(ShardRouterTest, ValidatesOptionsAndSchemas) {
  Dataset reference = RouterReference();
  ShardRouterOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(ShardRouter::Build(reference, zero).ok());

  ShardRouterOptions too_many;
  too_many.num_shards = reference.num_rows() + 1;
  EXPECT_FALSE(ShardRouter::Build(reference, too_many).ok());

  ShardRouterOptions opts;
  opts.num_shards = 2;
  ShardRouter router = *ShardRouter::Build(reference, opts);
  Dataset other(*Schema::Make({"A", "B"}));
  EXPECT_FALSE(router.RouteRows(other).ok());
}

}  // namespace
}  // namespace mlnclean

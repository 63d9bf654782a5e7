// ShardRouter: the deterministic front door of a CleanFleet (fleet.h).
//
// A fleet serves one logical table from N shards; the router decides, for
// every incoming row, which shard owns it. Routing must be *stable*: the
// same row must reach the same shard across batches, processes, and
// restarts, or per-shard grounding (and with it every repair) drifts.
// The router therefore fixes its reference points once, at fleet build —
// `Build` runs the distributed partitioner's centroid selection
// (Algorithm 3's seeded draw) over a reference dataset and keeps the
// centroid rows *by value*, as strings. Routing then assigns each row to
// the nearest centroid with ties broken toward the lowest shard index,
// reading the same row-to-centroid table the partitioner builds
// (CentroidDistances in distributed/partitioner.h: per-attribute
// normalized distance, one kernel call per distinct value and centroid).
//
// Two deliberate differences from PartitionDataset:
//  - routing compares *values*, never dictionary ids, so two datasets
//    holding the same rows under permuted id assignments route
//    identically (ids are an encoding accident; shard ownership is not);
//  - assignment is pure nearest-centroid with no capacity bound — a
//    capacity-bounded assignment depends on what else is in the batch,
//    which would make a row's shard a function of its neighbours.
//
// The centroid table serializes (`Encode`/`Decode`, versioned + strictly
// bounds-checked like every other wire format here) so a fleet restarted
// from a snapshot routes exactly as the fleet that built it.

#ifndef MLNCLEAN_FLEET_SHARD_ROUTER_H_
#define MLNCLEAN_FLEET_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "common/distance.h"
#include "common/result.h"
#include "dataset/dataset.h"

namespace mlnclean {

/// Router construction knobs. Defaults mirror PartitionOptions.
struct ShardRouterOptions {
  /// Shards the fleet serves from; at least 1, at most the reference
  /// dataset's row count (each centroid is a reference row).
  size_t num_shards = 2;
  /// Metric behind the per-attribute normalized tuple distance.
  DistanceMetric distance = DistanceMetric::kLevenshtein;
  /// Seed of the centroid draw (Algorithm 3 line 3).
  uint64_t seed = 99;
};

/// One batch split by shard ownership: `shards[s]` holds the rows routed
/// to shard s (dictionary-bearing sub-datasets per shard_merge.h, possibly
/// empty), and `mapping[s][local]` is the batch row that shard row came
/// from — what the fleet's id-remap reassembly consumes.
struct ShardedBatch {
  std::vector<Dataset> shards;
  std::vector<std::vector<TupleId>> mapping;
};

class ShardRouter {
 public:
  /// Selects `options.num_shards` centroid rows from `reference` (the
  /// dataset the fleet is built over — typically the table the model was
  /// warmed on) and captures them by value.
  static Result<ShardRouter> Build(const Dataset& reference,
                                   ShardRouterOptions options = {});

  size_t num_shards() const { return centroids_.size(); }
  const Schema& schema() const { return schema_; }
  DistanceMetric distance() const { return metric_; }
  /// The captured centroid rows (num_shards x num_attrs value strings).
  const std::vector<std::vector<Value>>& centroids() const { return centroids_; }

  /// Shard index for every row of `batch` (schema must match). Pure in
  /// the row's values: permuting `batch`'s dictionary ids, slicing, or
  /// reordering rows never changes any row's shard.
  Result<std::vector<size_t>> RouteRows(const Dataset& batch) const;

  /// RouteRows + shard materialization: splits `batch` into per-shard
  /// dictionary-bearing sub-datasets (shard_merge.h protocol), preserving
  /// batch row order within each shard.
  Result<ShardedBatch> Shard(const Dataset& batch) const;

  /// Versioned binary image of the router (metric, seed, schema, centroid
  /// values) — persist next to the model snapshot so serving processes
  /// route identically to the builder.
  std::vector<uint8_t> Encode() const;

  /// Strict decode of an Encode image: every length is bounds-checked,
  /// unknown versions/metrics and trailing bytes are rejected with
  /// kInvalid naming the byte position.
  static Result<ShardRouter> Decode(const uint8_t* data, size_t size);
  static Result<ShardRouter> Decode(const std::vector<uint8_t>& bytes);

 private:
  ShardRouter() = default;

  Schema schema_;
  DistanceMetric metric_ = DistanceMetric::kLevenshtein;
  uint64_t seed_ = 0;
  std::vector<std::vector<Value>> centroids_;
};

}  // namespace mlnclean

#endif  // MLNCLEAN_FLEET_SHARD_ROUTER_H_

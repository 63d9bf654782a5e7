// Data partitioning for distributed MLNClean (Section 6, Algorithm 3):
// k randomly seeded centroids, capacity-bounded assignment of each tuple
// to its nearest centroid, with max-heap-based eviction when a part
// overflows — yielding balanced parts of size at most ceil(|T|/k).
//
// CentroidDistances is the one row-to-centroid distance routine: the
// partitioner's assignment sweep and the fleet's ShardRouter both read
// its n×k table.

#ifndef MLNCLEAN_DISTRIBUTED_PARTITIONER_H_
#define MLNCLEAN_DISTRIBUTED_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/distance.h"
#include "common/result.h"
#include "dataset/dataset.h"

namespace mlnclean {

/// Partitioning knobs. The run is sequential: the n×k centroid distance
/// table costs one kernel call per distinct (attribute, value) and
/// centroid, and the assignment/eviction sweep over it depends on every
/// earlier placement.
struct PartitionOptions {
  size_t num_parts = 4;
  /// Metric behind the per-attribute normalized tuple distance.
  DistanceMetric distance = DistanceMetric::kLevenshtein;
  /// Seed of the centroid draw (line 3).
  uint64_t seed = 99;
};

/// A k-way partition of tuple ids.
struct Partition {
  /// parts[i] = tuple ids assigned to part i (unordered).
  std::vector<std::vector<TupleId>> parts;
  /// The tuple chosen as centroid of each part.
  std::vector<TupleId> centroids;

  /// Maximum allowed part size ceil(|T|/k) used during construction.
  size_t capacity = 0;
};

/// Distance between two tuples: sum of attribute-wise string distances.
/// Cells with equal dictionary ids are distance 0 without a kernel call.
double TupleDistance(const Dataset& data, TupleId a, TupleId b,
                     const DistanceFn& dist);

/// Row-to-centroid distance table, row-major n×k: entry [t * k + p] is the
/// distance between row t of `data` and `centroids[p]` (one value per
/// attribute, compared by value). Each distinct (attribute, value) pays
/// one kernel call per centroid, none where it equals the centroid's
/// value; each row then sums its attributes in attribute order, so every
/// entry equals TupleDistance against a row holding the centroid's values.
std::vector<double> CentroidDistances(
    const Dataset& data, const std::vector<std::vector<Value>>& centroids,
    const DistanceFn& dist);

/// Runs Algorithm 3. Fails when num_parts is 0 or exceeds the row count.
Result<Partition> PartitionDataset(const Dataset& data,
                                   const PartitionOptions& options);

}  // namespace mlnclean

#endif  // MLNCLEAN_DISTRIBUTED_PARTITIONER_H_

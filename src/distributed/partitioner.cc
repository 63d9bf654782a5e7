#include "distributed/partitioner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <unordered_set>

#include "common/random.h"

namespace mlnclean {

double TupleDistance(const Dataset& data, TupleId a, TupleId b,
                     const DistanceFn& dist) {
  double total = 0.0;
  for (AttrId attr = 0; attr < static_cast<AttrId>(data.num_attrs()); ++attr) {
    ValueId ia = data.id_at(a, attr), ib = data.id_at(b, attr);
    if (ia == ib) continue;
    total += dist(data.dict(attr).value(ia), data.dict(attr).value(ib));
  }
  return total;
}

std::vector<double> CentroidDistances(
    const Dataset& data, const std::vector<std::vector<Value>>& centroids,
    const DistanceFn& dist) {
  const size_t n = data.num_rows();
  const size_t k = centroids.size();
  std::vector<double> matrix(n * k, 0.0);
  std::vector<double> by_value;  // [id * k + p], filled at first appearance
  std::vector<char> seen;
  for (AttrId attr = 0; attr < static_cast<AttrId>(data.num_attrs()); ++attr) {
    const ValueDict& dict = data.dict(attr);
    const std::vector<ValueId>& column = data.column(attr);
    by_value.resize(dict.size() * k);
    seen.assign(dict.size(), 0);
    for (size_t t = 0; t < n; ++t) {
      const ValueId id = column[t];
      double* d = &by_value[static_cast<size_t>(id) * k];
      if (!seen[id]) {
        seen[id] = 1;
        const Value& v = dict.value(id);
        for (size_t p = 0; p < k; ++p) {
          const Value& c = centroids[p][static_cast<size_t>(attr)];
          d[p] = v == c ? 0.0 : dist(v, c);
        }
      }
      for (size_t p = 0; p < k; ++p) matrix[t * k + p] += d[p];
    }
  }
  return matrix;
}

Result<Partition> PartitionDataset(const Dataset& data,
                                   const PartitionOptions& options) {
  const size_t n = data.num_rows();
  const size_t k = options.num_parts;
  if (k == 0) return Status::Invalid("num_parts must be > 0");
  if (k > n) {
    return Status::Invalid("num_parts (" + std::to_string(k) +
                           ") exceeds the number of tuples (" + std::to_string(n) +
                           ")");
  }
  // Per-attribute normalized distance: long values (names, descriptions)
  // must not dominate the tuple distance, or rows of the same entity that
  // differ in one long attribute scatter across parts.
  DistanceFn dist = MakeNormalizedDistanceFn(options.distance);
  Rng rng(options.seed);

  Partition partition;
  partition.capacity = (n + k - 1) / k;  // s = ceil(|T|/k)
  partition.parts.resize(k);

  // Line 3: k distinct random centroids, each seeding its own part.
  std::unordered_set<TupleId> centroid_set;
  while (centroid_set.size() < k) {
    centroid_set.insert(static_cast<TupleId>(rng.NextIndex(n)));
  }
  partition.centroids.assign(centroid_set.begin(), centroid_set.end());
  std::sort(partition.centroids.begin(), partition.centroids.end());

  // Per-part max-heap of (distance to centroid, tid).
  using HeapEntry = std::pair<double, TupleId>;
  std::vector<std::priority_queue<HeapEntry>> heaps(k);
  for (size_t p = 0; p < k; ++p) {
    heaps[p].emplace(0.0, partition.centroids[p]);
  }

  std::vector<std::vector<Value>> centroid_rows;
  centroid_rows.reserve(k);
  for (TupleId c : partition.centroids) centroid_rows.push_back(data.row(c));
  const std::vector<double> matrix = CentroidDistances(data, centroid_rows, dist);

  auto nearest_part = [&](TupleId tid, bool require_space) {
    double best = std::numeric_limits<double>::infinity();
    size_t best_p = k;  // sentinel: no eligible part
    for (size_t p = 0; p < k; ++p) {
      if (require_space && heaps[p].size() >= partition.capacity) continue;
      const double d = matrix[static_cast<size_t>(tid) * k + p];
      if (d < best) {
        best = d;
        best_p = p;
      }
    }
    return std::make_pair(best_p, best);
  };

  for (TupleId tid = 0; tid < static_cast<TupleId>(n); ++tid) {
    if (centroid_set.count(tid) > 0) continue;  // already placed
    auto [p, d] = nearest_part(tid, /*require_space=*/false);
    if (heaps[p].size() < partition.capacity) {
      heaps[p].emplace(d, tid);
      continue;
    }
    // Lines 10-14: the nearest part is full. If the newcomer is closer to
    // the centroid than the part's farthest member, it displaces it and
    // the evicted tuple goes to its closest non-full part; otherwise the
    // newcomer itself goes to its closest non-full part.
    TupleId evicted = tid;
    auto [top_d, top_tid] = heaps[p].top();
    if (d < top_d) {
      heaps[p].pop();
      heaps[p].emplace(d, tid);
      evicted = top_tid;
    }
    auto [q, dq] = nearest_part(evicted, /*require_space=*/true);
    // Total capacity k*s >= n guarantees an eligible part exists.
    heaps[q].emplace(dq, evicted);
  }

  for (size_t p = 0; p < k; ++p) {
    auto& part = partition.parts[p];
    part.reserve(heaps[p].size());
    while (!heaps[p].empty()) {
      part.push_back(heaps[p].top().second);
      heaps[p].pop();
    }
    std::sort(part.begin(), part.end());
  }
  return partition;
}

}  // namespace mlnclean

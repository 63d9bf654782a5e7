#include "discovery/md_miner.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/distance.h"
#include "common/random.h"

namespace mlnclean {

namespace {

// Pair-measurement chunk size: big enough to amortize task dispatch,
// small enough to spread across workers.
constexpr size_t kPairChunk = 1024;

// Per-chunk counters, merged by integer addition (order-independent).
struct ChunkCounts {
  // sim[L * T + ti]: pairs with 0 < d(L) <= thresholds[ti].
  std::vector<uint64_t> sim;
  // match[(L * m + R) * T + ti]: of those, pairs with equal R values.
  std::vector<uint64_t> match;
};

}  // namespace

Result<std::vector<MatchingDependency>> MineMatchingDependencies(
    const Dataset& data, const DiscoveryOptions& options, const ExecContext& ctx) {
  std::vector<MatchingDependency> out;
  const size_t n = data.num_rows();
  const size_t m = data.schema().num_attrs();
  const size_t num_t = options.md_thresholds.size();
  if (n < 2 || m < 2 || num_t == 0) return out;

  // The pair sample, drawn once and sequentially so neither the executor
  // nor the thread count can change which pairs are measured.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  const size_t all_pairs = n * (n - 1) / 2;
  if (all_pairs <= options.md_max_pairs) {
    pairs.reserve(all_pairs);
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) pairs.emplace_back(i, j);
    }
  } else {
    Rng rng(options.md_seed);
    pairs.reserve(options.md_max_pairs);
    while (pairs.size() < options.md_max_pairs) {
      const uint32_t i = static_cast<uint32_t>(rng.NextIndex(n));
      const uint32_t j = static_cast<uint32_t>(rng.NextIndex(n));
      if (i != j) pairs.emplace_back(std::min(i, j), std::max(i, j));
    }
  }

  const DistanceFn dist = MakeNormalizedDistanceFn(options.md_metric);
  const size_t num_chunks = (pairs.size() + kPairChunk - 1) / kPairChunk;
  std::vector<ChunkCounts> slots(num_chunks);
  ParallelFor(num_chunks, ctx, [&](size_t c) {
    if (ctx.Stopped()) return;
    ChunkCounts& counts = slots[c];
    counts.sim.assign(m * num_t, 0);
    counts.match.assign(m * m * num_t, 0);
    std::vector<bool> equal(m);
    std::vector<double> d(m);
    const size_t begin = c * kPairChunk;
    const size_t end = std::min(begin + kPairChunk, pairs.size());
    for (size_t p = begin; p < end; ++p) {
      const auto [u, v] = pairs[p];
      for (size_t a = 0; a < m; ++a) {
        const AttrId attr = static_cast<AttrId>(a);
        const std::vector<ValueId>& col = data.column(attr);
        const ValueId iu = col[u];
        const ValueId iv = col[v];
        equal[a] = iu == iv;
        d[a] = equal[a] ? 0.0
                        : dist(data.dict(attr).value(iu), data.dict(attr).value(iv));
      }
      for (size_t l = 0; l < m; ++l) {
        if (equal[l]) continue;  // equal lhs values are FD evidence, not MD
        for (size_t ti = 0; ti < num_t; ++ti) {
          if (d[l] > options.md_thresholds[ti]) continue;
          ++counts.sim[l * num_t + ti];
          for (size_t r = 0; r < m; ++r) {
            if (r != l && equal[r]) ++counts.match[(l * m + r) * num_t + ti];
          }
        }
      }
    }
  });
  if (ctx.Stopped()) return ctx.StopStatus("matching-dependency mining");

  std::vector<uint64_t> sim(m * num_t, 0);
  std::vector<uint64_t> match(m * m * num_t, 0);
  for (const ChunkCounts& counts : slots) {
    if (counts.sim.empty()) continue;
    for (size_t i = 0; i < sim.size(); ++i) sim[i] += counts.sim[i];
    for (size_t i = 0; i < match.size(); ++i) match[i] += counts.match[i];
  }

  // Per (L, R): the largest radius that still meets the confidence bar.
  for (size_t l = 0; l < m; ++l) {
    for (size_t r = 0; r < m; ++r) {
      if (r == l) continue;
      for (size_t ti = num_t; ti-- > 0;) {
        const uint64_t s = sim[l * num_t + ti];
        const uint64_t mt = match[(l * m + r) * num_t + ti];
        if (s < options.md_min_pairs) continue;
        const double confidence = static_cast<double>(mt) / static_cast<double>(s);
        if (confidence < options.md_min_confidence) continue;
        MatchingDependency md;
        md.lhs_attr = static_cast<AttrId>(l);
        md.rhs_attr = static_cast<AttrId>(r);
        md.threshold = options.md_thresholds[ti];
        md.similar_pairs = static_cast<size_t>(s);
        md.matching_pairs = static_cast<size_t>(mt);
        md.confidence = confidence;
        out.push_back(std::move(md));
        break;
      }
    }
  }
  return out;
}

}  // namespace mlnclean

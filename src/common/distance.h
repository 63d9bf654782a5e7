// String distance metrics used by AGP (group-to-group distance) and RSC
// (reliability score). The paper evaluates Levenshtein vs. cosine distance
// (Table 5); Damerau-Levenshtein is provided as an extension.
//
// The kernels here are the pipeline's innermost hot path: stage I calls
// them for every γ pair inside every group (RSC), and AGP once per distinct
// normal-group value and position plus on the γ* pairs its lower bounds
// cannot rule out. All entry points are allocation-free in steady state —
// the DP rows and bigram profiles live in caller-provided (or thread-local)
// scratch that only ever grows.

#ifndef MLNCLEAN_COMMON_DISTANCE_H_
#define MLNCLEAN_COMMON_DISTANCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace mlnclean {

/// Metric selector for MLNClean's pluggable distance.
enum class DistanceMetric {
  kLevenshtein,
  kCosine,   // cosine distance over character-bigram frequency vectors
  kDamerau,  // Damerau-Levenshtein (adjacent transpositions count as 1)
};

/// Reusable scratch for the edit-distance kernels. Pass one instance into
/// a tight comparison loop to keep the kernels allocation-free; the
/// buffers grow to the longest string seen and are never shrunk.
///
/// `rows` holds the DP rows of the reference kernel and Damerau.
/// `pattern_bits` is the Myers pattern bitmap (one bit row per pattern
/// character, char-major); the kernels maintain the invariant that it is
/// all zeros between calls, so each call only touches the entries of the
/// characters actually present in its pattern instead of wiping 2 KiB.
struct EditDistanceScratch {
  std::vector<size_t> rows;
  std::vector<uint64_t> pattern_bits;
};

/// Edit distance (insert/delete/substitute) via the Myers 1999 bit-vector
/// kernel: one uint64_t block when the (shorter, affix-trimmed) string
/// fits in 64 characters, the blocked variant above that. Equal strings
/// and shared prefixes/suffixes are resolved without touching the kernel.
/// The two-argument form uses a thread-local scratch.
size_t Levenshtein(std::string_view a, std::string_view b);
size_t Levenshtein(std::string_view a, std::string_view b, EditDistanceScratch* scratch);

/// The classic rolling-row dynamic program, kept as the reference the
/// bit-parallel kernel is property-tested against (and as the readable
/// statement of the recurrence). Same trimming fast paths as Levenshtein.
size_t LevenshteinReferenceDp(std::string_view a, std::string_view b,
                              EditDistanceScratch* scratch);

/// Damerau-Levenshtein distance with adjacent transpositions.
size_t DamerauLevenshtein(std::string_view a, std::string_view b);
size_t DamerauLevenshtein(std::string_view a, std::string_view b,
                          EditDistanceScratch* scratch);

/// Sorted character-bigram frequency profile of a string: distinct packed
/// bigrams in ascending key order with their counts, plus the vector's
/// Euclidean norm. Build once per distinct value, then compare profiles in
/// O(|a| + |b|) via CosineProfileDistance. Strings shorter than two
/// characters fall back to unigram profiles (matching CosineBigramDistance).
class BigramProfile {
 public:
  BigramProfile() = default;
  explicit BigramProfile(std::string_view s) { Assign(s); }

  /// Rebuilds the profile for `s`, reusing the existing capacity.
  void Assign(std::string_view s);

  const std::vector<std::pair<uint16_t, double>>& counts() const { return counts_; }
  double norm() const { return norm_; }
  bool empty() const { return counts_.empty(); }

 private:
  std::vector<std::pair<uint16_t, double>> counts_;  // sorted by key
  double norm_ = 0.0;
};

/// Cosine distance between two prebuilt profiles: a single linear merge of
/// the two sorted count vectors. Empty profiles are at distance 1 from
/// everything (including each other), matching CosineBigramDistance's
/// handling of empty strings.
double CosineProfileDistance(const BigramProfile& a, const BigramProfile& b);

/// Cosine distance (1 - cosine similarity) between character-bigram
/// frequency vectors; returns a value in [0, 1]. Builds the two profiles in
/// thread-local scratch; prefer prebuilt BigramProfiles when comparing the
/// same value many times.
double CosineBigramDistance(std::string_view a, std::string_view b);

/// A string distance function. All built-in metrics return non-negative
/// values with d(a, a) == 0.
using DistanceFn = std::function<double(std::string_view, std::string_view)>;

/// Returns the distance function for `metric`. Every returned function has
/// an a == b -> 0.0 fast path that skips the kernel entirely.
DistanceFn MakeDistanceFn(DistanceMetric metric);

/// Returns the length-normalized variant used for multi-attribute piece
/// comparisons: edit distances are divided by the longer string's length
/// (so every attribute contributes at most ~1 regardless of value
/// length); cosine is already normalized and is returned unchanged.
DistanceFn MakeNormalizedDistanceFn(DistanceMetric metric);

/// The normalized distance itself: MakeNormalizedDistanceFn(metric)(a, b),
/// bit for bit, without the std::function indirection.
double NormalizedDistance(DistanceMetric metric, std::string_view a, std::string_view b);

/// A lower bound on NormalizedDistance(metric, a, b) for any two unequal
/// strings of lengths `la` and `lb`. An edit distance is at least the
/// length difference and at least 1, so Levenshtein and Damerau are
/// bounded by max(|la - lb|, 1) / max(la, lb) — computed with the same
/// denominator as the kernel, so the bound never exceeds the rounded
/// distance (and it also bounds the raw, unnormalized edit distance).
/// Cosine has no length bound and returns 0.
double NormalizedDistanceLowerBound(DistanceMetric metric, size_t la, size_t lb);

/// Parses "levenshtein" | "cosine" | "damerau" (case-insensitive).
Result<DistanceMetric> ParseDistanceMetric(std::string_view name);

/// Human-readable name of a metric.
const char* DistanceMetricName(DistanceMetric metric);

}  // namespace mlnclean

#endif  // MLNCLEAN_COMMON_DISTANCE_H_

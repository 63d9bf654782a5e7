#include "common/distance.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/string_util.h"

namespace mlnclean {

namespace {

EditDistanceScratch& ThreadLocalScratch() {
  thread_local EditDistanceScratch scratch;
  return scratch;
}

// Strips the longest shared prefix and suffix; the edit distance of the
// remainder equals the edit distance of the originals.
void TrimCommonAffixes(std::string_view* a, std::string_view* b) {
  size_t prefix = 0;
  const size_t limit = std::min(a->size(), b->size());
  while (prefix < limit && (*a)[prefix] == (*b)[prefix]) ++prefix;
  a->remove_prefix(prefix);
  b->remove_prefix(prefix);
  size_t suffix = 0;
  const size_t rest = std::min(a->size(), b->size());
  while (suffix < rest && (*a)[a->size() - 1 - suffix] == (*b)[b->size() - 1 - suffix]) {
    ++suffix;
  }
  a->remove_suffix(suffix);
  b->remove_suffix(suffix);
}

// Myers 1999 bit-parallel edit distance, pattern `a` (n <= 64) vs text
// `b`. The pattern's character bitmaps live in scratch->pattern_bits
// (entry c = positions of character c in the pattern); the array is
// all-zero between calls, so only the pattern's own characters are set up
// front and cleared at the end — characters absent from the pattern read
// a correct 0 without a full 256-entry wipe. Each text character then
// advances every DP row at once: Pv/Mv hold the vertical +1/-1 deltas of
// the current column, Xh/Ph/Mh derive the horizontal deltas, and the
// score tracks the bottom row through the high bit.
size_t MyersLevenshtein64(std::string_view a, std::string_view b,
                          EditDistanceScratch* scratch) {
  const size_t n = a.size();
  std::vector<uint64_t>& peq = scratch->pattern_bits;
  if (peq.size() < 256) peq.resize(256, 0);
  for (size_t i = 0; i < n; ++i) {
    peq[static_cast<unsigned char>(a[i])] |= uint64_t{1} << i;
  }
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  size_t score = n;
  for (const char c : b) {
    const uint64_t eq = peq[static_cast<unsigned char>(c)];
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    score += (ph >> (n - 1)) & 1;
    score -= (mh >> (n - 1)) & 1;
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  for (const char c : a) peq[static_cast<unsigned char>(c)] = 0;
  return score;
}

// Blocked Myers for patterns longer than 64 characters (Hyyrö 2003): the
// pattern is cut into ceil(n/64)-word columns, each text character walks
// the blocks bottom-up carrying the horizontal delta (+1/0/-1) between
// them, and the score is read at the pattern's true last row inside the
// top block (padding bits above it are never consulted). pattern_bits is
// char-major with `words` entries per character, same all-zero-between-
// calls contract as the single-block kernel.
size_t MyersLevenshteinBlocked(std::string_view a, std::string_view b,
                               EditDistanceScratch* scratch) {
  const size_t n = a.size();
  const size_t words = (n + 63) / 64;
  std::vector<uint64_t>& peq = scratch->pattern_bits;
  if (peq.size() < 256 * words) peq.resize(256 * words, 0);
  for (size_t i = 0; i < n; ++i) {
    peq[static_cast<unsigned char>(a[i]) * words + i / 64] |= uint64_t{1}
                                                             << (i % 64);
  }
  // Per-block vertical delta state, Pv in [0, words), Mv in [words, 2*words).
  std::vector<size_t>& state = scratch->rows;
  static_assert(sizeof(size_t) == sizeof(uint64_t),
                "blocked Myers packs uint64_t state into the size_t scratch");
  if (state.size() < 2 * words) state.resize(2 * words);
  uint64_t* pv = reinterpret_cast<uint64_t*>(state.data());
  uint64_t* mv = pv + words;
  for (size_t w = 0; w < words; ++w) {
    pv[w] = ~uint64_t{0};
    mv[w] = 0;
  }
  size_t score = n;
  const size_t last_bit = (n - 1) % 64;
  for (const char c : b) {
    const uint64_t* eq_row = peq.data() + static_cast<unsigned char>(c) * words;
    int carry = 1;  // row 0 of the DP always steps +1 per text character
    for (size_t w = 0; w < words; ++w) {
      uint64_t eq = eq_row[w];
      const uint64_t xv = eq | mv[w];
      if (carry < 0) eq |= 1;
      const uint64_t xh = (((eq & pv[w]) + pv[w]) ^ pv[w]) | eq;
      uint64_t ph = mv[w] | ~(xh | pv[w]);
      uint64_t mh = pv[w] & xh;
      if (w == words - 1) {
        score += (ph >> last_bit) & 1;
        score -= (mh >> last_bit) & 1;
      }
      const int carry_out =
          static_cast<int>((ph >> 63) & 1) - static_cast<int>((mh >> 63) & 1);
      ph <<= 1;
      mh <<= 1;
      if (carry > 0) {
        ph |= 1;
      } else if (carry < 0) {
        mh |= 1;
      }
      pv[w] = mh | ~(xv | ph);
      mv[w] = ph & xv;
      carry = carry_out;
    }
  }
  for (const char c : a) {
    uint64_t* row = peq.data() + static_cast<unsigned char>(c) * words;
    for (size_t w = 0; w < words; ++w) row[w] = 0;
  }
  return score;
}

}  // namespace

size_t Levenshtein(std::string_view a, std::string_view b) {
  return Levenshtein(a, b, &ThreadLocalScratch());
}

size_t Levenshtein(std::string_view a, std::string_view b,
                   EditDistanceScratch* scratch) {
  if (a == b) return 0;
  TrimCommonAffixes(&a, &b);
  if (a.size() > b.size()) std::swap(a, b);  // the shorter string is the pattern
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (n == 1) {
    // One pattern character: distance is m minus one free match, if any.
    return m - (b.find(a[0]) != std::string_view::npos ? 1 : 0);
  }
  if (n <= 64) return MyersLevenshtein64(a, b, scratch);
  return MyersLevenshteinBlocked(a, b, scratch);
}

size_t LevenshteinReferenceDp(std::string_view a, std::string_view b,
                              EditDistanceScratch* scratch) {
  if (a == b) return 0;
  TrimCommonAffixes(&a, &b);
  if (a.size() > b.size()) std::swap(a, b);  // keep the row for the shorter string
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  std::vector<size_t>& row = scratch->rows;
  if (row.size() < n + 1) row.resize(n + 1);
  std::iota(row.begin(), row.begin() + static_cast<ptrdiff_t>(n + 1), size_t{0});
  for (size_t j = 1; j <= m; ++j) {
    size_t prev_diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= n; ++i) {
      size_t cur = row[i];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, prev_diag + cost});
      prev_diag = cur;
    }
  }
  return row[n];
}

size_t DamerauLevenshtein(std::string_view a, std::string_view b) {
  return DamerauLevenshtein(a, b, &ThreadLocalScratch());
}

size_t DamerauLevenshtein(std::string_view a, std::string_view b,
                          EditDistanceScratch* scratch) {
  if (a == b) return 0;
  // Affix trimming is safe for the optimal-string-alignment recurrence:
  // transpositions never straddle a position where both strings agree, so
  // the trimmed remainder carries the whole distance (property-tested
  // against the untrimmed full matrix).
  TrimCommonAffixes(&a, &b);
  if (a.size() > b.size()) std::swap(a, b);  // smaller row stride
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return m;
  if (m == 0) return n;
  // Three rolling rows (i-2, i-1, i) packed into one scratch buffer.
  const size_t stride = m + 1;
  std::vector<size_t>& buf = scratch->rows;
  if (buf.size() < 3 * stride) buf.resize(3 * stride);
  size_t* two = buf.data();
  size_t* one = buf.data() + stride;
  size_t* cur = buf.data() + 2 * stride;
  std::iota(one, one + stride, size_t{0});
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= m; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      cur[j] = std::min({one[j] + 1, cur[j - 1] + 1, one[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        cur[j] = std::min(cur[j], two[j - 2] + 1);
      }
    }
    std::swap(two, one);
    std::swap(one, cur);
  }
  return one[m];
}

void BigramProfile::Assign(std::string_view s) {
  counts_.clear();
  norm_ = 0.0;
  if (s.size() < 2) {
    for (char c : s) {
      counts_.emplace_back(static_cast<uint16_t>(static_cast<unsigned char>(c)), 1.0);
    }
  } else {
    for (size_t i = 0; i + 1 < s.size(); ++i) {
      uint16_t key = static_cast<uint16_t>((static_cast<unsigned char>(s[i]) << 8) |
                                           static_cast<unsigned char>(s[i + 1]));
      counts_.emplace_back(key, 1.0);
    }
  }
  std::sort(counts_.begin(), counts_.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  // Coalesce duplicate keys in place.
  size_t w = 0;
  for (size_t r = 0; r < counts_.size(); ++r) {
    if (w > 0 && counts_[w - 1].first == counts_[r].first) {
      counts_[w - 1].second += counts_[r].second;
    } else {
      counts_[w++] = counts_[r];
    }
  }
  counts_.resize(w);
  double sq = 0.0;
  for (const auto& [key, count] : counts_) sq += count * count;
  norm_ = std::sqrt(sq);
}

double CosineProfileDistance(const BigramProfile& a, const BigramProfile& b) {
  if (a.empty() || b.empty()) return 1.0;
  const auto& va = a.counts();
  const auto& vb = b.counts();
  double dot = 0.0;
  size_t i = 0, j = 0;
  while (i < va.size() && j < vb.size()) {
    if (va[i].first < vb[j].first) {
      ++i;
    } else if (vb[j].first < va[i].first) {
      ++j;
    } else {
      dot += va[i].second * vb[j].second;
      ++i;
      ++j;
    }
  }
  if (dot == 0.0) return 1.0;
  double sim = dot / (a.norm() * b.norm());
  return std::clamp(1.0 - sim, 0.0, 1.0);
}

double CosineBigramDistance(std::string_view a, std::string_view b) {
  if (a == b) return 0.0;
  if (a.empty() || b.empty()) return 1.0;
  thread_local BigramProfile pa, pb;
  pa.Assign(a);
  pb.Assign(b);
  return CosineProfileDistance(pa, pb);
}

DistanceFn MakeDistanceFn(DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kLevenshtein:
      return [](std::string_view a, std::string_view b) {
        if (a == b) return 0.0;
        return static_cast<double>(Levenshtein(a, b));
      };
    case DistanceMetric::kCosine:
      return [](std::string_view a, std::string_view b) {
        return CosineBigramDistance(a, b);
      };
    case DistanceMetric::kDamerau:
      return [](std::string_view a, std::string_view b) {
        if (a == b) return 0.0;
        return static_cast<double>(DamerauLevenshtein(a, b));
      };
  }
  return [](std::string_view, std::string_view) { return 0.0; };
}

DistanceFn MakeNormalizedDistanceFn(DistanceMetric metric) {
  return [metric](std::string_view a, std::string_view b) {
    return NormalizedDistance(metric, a, b);
  };
}

double NormalizedDistance(DistanceMetric metric, std::string_view a, std::string_view b) {
  if (metric == DistanceMetric::kCosine) return CosineBigramDistance(a, b);
  if (a == b) return 0.0;
  const size_t max_len = std::max(a.size(), b.size());
  const size_t raw = metric == DistanceMetric::kDamerau ? DamerauLevenshtein(a, b)
                                                        : Levenshtein(a, b);
  return static_cast<double>(raw) / static_cast<double>(max_len);
}

double NormalizedDistanceLowerBound(DistanceMetric metric, size_t la, size_t lb) {
  if (metric == DistanceMetric::kCosine) return 0.0;
  const size_t diff = la > lb ? la - lb : lb - la;
  return static_cast<double>(std::max<size_t>(diff, 1)) /
         static_cast<double>(std::max(la, lb));
}

Result<DistanceMetric> ParseDistanceMetric(std::string_view name) {
  std::string lower = ToLower(name);
  if (lower == "levenshtein") return DistanceMetric::kLevenshtein;
  if (lower == "cosine") return DistanceMetric::kCosine;
  if (lower == "damerau") return DistanceMetric::kDamerau;
  return Status::Invalid("unknown distance metric: " + std::string(name));
}

const char* DistanceMetricName(DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kLevenshtein:
      return "levenshtein";
    case DistanceMetric::kCosine:
      return "cosine";
    case DistanceMetric::kDamerau:
      return "damerau";
  }
  return "unknown";
}

}  // namespace mlnclean

#include "common/distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace mlnclean {
namespace {

TEST(LevenshteinTest, KnownValues) {
  EXPECT_EQ(Levenshtein("", ""), 0u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(Levenshtein("abc", "abc"), 0u);
  // Paper examples: the typo "DOTH" is two deletions from "DOTHAN".
  EXPECT_EQ(Levenshtein("DOTH", "DOTHAN"), 2u);
  EXPECT_EQ(Levenshtein("AK", "AL"), 1u);
  EXPECT_EQ(Levenshtein("2567638410", "2567688400"), 2u);
}

TEST(DamerauTest, TranspositionCountsAsOne) {
  EXPECT_EQ(DamerauLevenshtein("ab", "ba"), 1u);
  EXPECT_EQ(Levenshtein("ab", "ba"), 2u);
  EXPECT_EQ(DamerauLevenshtein("ca", "abc"), 3u);  // classic OSA example
  EXPECT_EQ(DamerauLevenshtein("abcdef", "abcdfe"), 1u);
  EXPECT_EQ(DamerauLevenshtein("", "xy"), 2u);
}

TEST(CosineTest, RangeAndIdentity) {
  EXPECT_DOUBLE_EQ(CosineBigramDistance("same", "same"), 0.0);
  EXPECT_DOUBLE_EQ(CosineBigramDistance("", "abc"), 1.0);
  double d = CosineBigramDistance("night", "nacht");
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 1.0);
}

TEST(CosineTest, PrefixTypoVsSuffixTypo) {
  // Cosine over bigrams is position-insensitive: a corrupted first
  // character destroys only one bigram, same as a corrupted last one, so
  // both land far from the prefix-sensitive behaviour the paper discusses
  // for ordering (Table 5 rationale: cosine mis-ranks prefix errors).
  double prefix = CosineBigramDistance("XOTHAN", "DOTHAN");
  double suffix = CosineBigramDistance("DOTHAX", "DOTHAN");
  EXPECT_NEAR(prefix, suffix, 1e-9);
}

TEST(CosineTest, ShortStringsFallBackToUnigrams) {
  EXPECT_DOUBLE_EQ(CosineBigramDistance("a", "a"), 0.0);
  EXPECT_DOUBLE_EQ(CosineBigramDistance("a", "b"), 1.0);
}

TEST(DistanceFnTest, FactoryMatchesDirectCalls) {
  auto lev = MakeDistanceFn(DistanceMetric::kLevenshtein);
  auto cos = MakeDistanceFn(DistanceMetric::kCosine);
  auto dam = MakeDistanceFn(DistanceMetric::kDamerau);
  EXPECT_DOUBLE_EQ(lev("kitten", "sitting"), 3.0);
  EXPECT_DOUBLE_EQ(dam("ab", "ba"), 1.0);
  EXPECT_DOUBLE_EQ(cos("x", "x"), 0.0);
}

TEST(DistanceFnTest, ParseNames) {
  EXPECT_EQ(*ParseDistanceMetric("levenshtein"), DistanceMetric::kLevenshtein);
  EXPECT_EQ(*ParseDistanceMetric("Cosine"), DistanceMetric::kCosine);
  EXPECT_EQ(*ParseDistanceMetric("DAMERAU"), DistanceMetric::kDamerau);
  EXPECT_FALSE(ParseDistanceMetric("hamming").ok());
  EXPECT_STREQ(DistanceMetricName(DistanceMetric::kCosine), "cosine");
}

TEST(NormalizedDistanceTest, EditDistancesScaledByLength) {
  auto norm = MakeNormalizedDistanceFn(DistanceMetric::kLevenshtein);
  EXPECT_DOUBLE_EQ(norm("DOTH", "DOTHAN"), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(norm("", ""), 0.0);
  EXPECT_DOUBLE_EQ(norm("abc", ""), 1.0);  // total rewrite costs 1
  EXPECT_DOUBLE_EQ(norm("AK", "AL"), 0.5);
}

TEST(NormalizedDistanceTest, BoundedByOneForEditMetrics) {
  for (auto metric : {DistanceMetric::kLevenshtein, DistanceMetric::kDamerau}) {
    auto norm = MakeNormalizedDistanceFn(metric);
    EXPECT_LE(norm("abcdef", "xyz"), 1.0);
    EXPECT_LE(norm("a", "completely-different"), 1.0);
  }
}

TEST(NormalizedDistanceTest, CosinePassesThroughUnchanged) {
  auto raw = MakeDistanceFn(DistanceMetric::kCosine);
  auto norm = MakeNormalizedDistanceFn(DistanceMetric::kCosine);
  EXPECT_DOUBLE_EQ(raw("night", "nacht"), norm("night", "nacht"));
}

TEST(NormalizedDistanceTest, OneLongAttrCheaperThanTwoShortOnes) {
  // The property AGP relies on: a fully different long value costs ~1,
  // less than two fully different short values (~2).
  auto norm = MakeNormalizedDistanceFn(DistanceMetric::kLevenshtein);
  double one_long = norm("telluride", "borrego");
  double two_short = norm("suv", "van") + norm("kia", "bmw");
  EXPECT_LT(one_long, two_short);
}

// Property sweep: metric axioms over random strings.
class DistancePropertyTest : public ::testing::TestWithParam<DistanceMetric> {};

TEST_P(DistancePropertyTest, IdentitySymmetryNonNegativity) {
  DistanceFn fn = MakeDistanceFn(GetParam());
  Rng rng(123);
  const std::string alphabet = "abcde";
  for (int trial = 0; trial < 200; ++trial) {
    std::string a, b;
    for (size_t i = rng.NextIndex(10); i > 0; --i) {
      a += alphabet[rng.NextIndex(alphabet.size())];
    }
    for (size_t i = rng.NextIndex(10); i > 0; --i) {
      b += alphabet[rng.NextIndex(alphabet.size())];
    }
    EXPECT_DOUBLE_EQ(fn(a, a), 0.0) << a;
    EXPECT_DOUBLE_EQ(fn(a, b), fn(b, a)) << a << " vs " << b;
    EXPECT_GE(fn(a, b), 0.0);
  }
}

TEST_P(DistancePropertyTest, EditDistancesSatisfyTriangleInequality) {
  if (GetParam() == DistanceMetric::kCosine) {
    GTEST_SKIP() << "cosine over bigram counts is not a metric";
  }
  DistanceFn fn = MakeDistanceFn(GetParam());
  Rng rng(321);
  const std::string alphabet = "abc";
  for (int trial = 0; trial < 100; ++trial) {
    std::string s[3];
    for (auto& str : s) {
      for (size_t i = rng.NextIndex(8); i > 0; --i) {
        str += alphabet[rng.NextIndex(alphabet.size())];
      }
    }
    EXPECT_LE(fn(s[0], s[2]), fn(s[0], s[1]) + fn(s[1], s[2]))
        << s[0] << " " << s[1] << " " << s[2];
  }
}

TEST_P(DistancePropertyTest, LengthBoundNeverExceedsTheDistance) {
  // AGP skips candidates on this bound, so it must hold after rounding,
  // for the normalized kernel it uses and for the raw one.
  const DistanceMetric metric = GetParam();
  DistanceFn norm = MakeNormalizedDistanceFn(metric);
  DistanceFn raw = MakeDistanceFn(metric);
  Rng rng(99);
  const std::string alphabet = "abc";
  size_t unequal = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string a, b;
    for (size_t i = rng.NextIndex(9); i > 0; --i) a += alphabet[rng.NextIndex(3)];
    for (size_t i = rng.NextIndex(9); i > 0; --i) b += alphabet[rng.NextIndex(3)];
    const double d = NormalizedDistance(metric, a, b);
    EXPECT_EQ(d, norm(a, b)) << a << " vs " << b;
    if (a == b) continue;
    ++unequal;
    const double bound = NormalizedDistanceLowerBound(metric, a.size(), b.size());
    EXPECT_LE(bound, d) << a << " vs " << b;
    EXPECT_LE(bound, raw(a, b)) << a << " vs " << b;
  }
  EXPECT_GT(unequal, 400u);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, DistancePropertyTest,
                         ::testing::Values(DistanceMetric::kLevenshtein,
                                           DistanceMetric::kCosine,
                                           DistanceMetric::kDamerau),
                         [](const auto& info) {
                           return DistanceMetricName(info.param);
                         });

// ---- reference implementations the optimized kernels must agree with ----

// Full-matrix Levenshtein, no trimming or rolling rows.
size_t ReferenceLevenshtein(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1, 0));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost});
    }
  }
  return d[a.size()][b.size()];
}

// Full-matrix optimal-string-alignment Damerau-Levenshtein.
size_t ReferenceDamerau(const std::string& a, const std::string& b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1, 0));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
      }
    }
  }
  return d[a.size()][b.size()];
}

// Naive quadratic cosine over bigram (or unigram) count vectors.
double ReferenceCosine(const std::string& a, const std::string& b) {
  if (a == b) return 0.0;
  if (a.empty() || b.empty()) return 1.0;
  auto grams = [](const std::string& s) {
    std::vector<std::pair<uint16_t, double>> out;
    auto add = [&out](uint16_t key) {
      for (auto& kv : out) {
        if (kv.first == key) {
          kv.second += 1.0;
          return;
        }
      }
      out.emplace_back(key, 1.0);
    };
    if (s.size() < 2) {
      for (char c : s) add(static_cast<uint16_t>(static_cast<unsigned char>(c)));
    } else {
      for (size_t i = 0; i + 1 < s.size(); ++i) {
        add(static_cast<uint16_t>((static_cast<unsigned char>(s[i]) << 8) |
                                  static_cast<unsigned char>(s[i + 1])));
      }
    }
    return out;
  };
  auto va = grams(a), vb = grams(b);
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (const auto& [ka, ca] : va) {
    na += ca * ca;
    for (const auto& [kb, cb] : vb) {
      if (ka == kb) dot += ca * cb;
    }
  }
  for (const auto& [kb, cb] : vb) nb += cb * cb;
  if (na == 0.0 || nb == 0.0) return 1.0;
  double sim = dot / (std::sqrt(na) * std::sqrt(nb));
  return std::min(std::max(1.0 - sim, 0.0), 1.0);
}

std::string RandomString(Rng* rng, const std::string& alphabet, size_t max_len) {
  std::string s;
  for (size_t i = rng->NextIndex(max_len + 1); i > 0; --i) {
    s += alphabet[rng->NextIndex(alphabet.size())];
  }
  return s;
}

TEST(KernelPropertyTest, ScratchLevenshteinMatchesReference) {
  Rng rng(2024);
  EditDistanceScratch scratch;
  // A small alphabet forces long shared prefixes/suffixes, exercising the
  // affix-trimming fast path against the untrimmed full matrix.
  const std::string alphabet = "abcd";
  for (int trial = 0; trial < 500; ++trial) {
    std::string a = RandomString(&rng, alphabet, 16);
    std::string b = RandomString(&rng, alphabet, 16);
    EXPECT_EQ(Levenshtein(a, b, &scratch), ReferenceLevenshtein(a, b))
        << '"' << a << "\" vs \"" << b << '"';
    EXPECT_EQ(Levenshtein(a, b), ReferenceLevenshtein(a, b));
  }
}

TEST(KernelPropertyTest, ScratchDamerauMatchesReference) {
  Rng rng(2025);
  EditDistanceScratch scratch;
  const std::string alphabet = "abc";
  for (int trial = 0; trial < 500; ++trial) {
    std::string a = RandomString(&rng, alphabet, 14);
    std::string b = RandomString(&rng, alphabet, 14);
    EXPECT_EQ(DamerauLevenshtein(a, b, &scratch), ReferenceDamerau(a, b))
        << '"' << a << "\" vs \"" << b << '"';
  }
}

// ---- Myers bit-parallel kernel vs the reference DP ----------------------

TEST(MyersPropertyTest, MatchesReferenceDpOnShortStrings) {
  Rng rng(7001);
  EditDistanceScratch scratch, ref_scratch;
  const std::string alphabet = "abcd";
  for (int trial = 0; trial < 1000; ++trial) {
    std::string a = RandomString(&rng, alphabet, 20);
    std::string b = RandomString(&rng, alphabet, 20);
    EXPECT_EQ(Levenshtein(a, b, &scratch),
              LevenshteinReferenceDp(a, b, &ref_scratch))
        << '"' << a << "\" vs \"" << b << '"';
  }
}

TEST(MyersPropertyTest, MatchesReferenceAcrossTheBlockBoundary) {
  Rng rng(7002);
  EditDistanceScratch scratch, ref_scratch;
  const std::string alphabet = "abcdefgh";
  // Lengths straddling 64 force both the single-block kernel near its top
  // bit and the blocked kernel's carry propagation between words. The
  // random prefix keeps affix trimming from shortening everything back
  // under one block.
  for (int trial = 0; trial < 300; ++trial) {
    const size_t len_a = 40 + rng.NextIndex(120);  // up to 159
    const size_t len_b = 40 + rng.NextIndex(120);
    std::string a, b;
    while (a.size() < len_a) a += alphabet[rng.NextIndex(alphabet.size())];
    while (b.size() < len_b) b += alphabet[rng.NextIndex(alphabet.size())];
    EXPECT_EQ(Levenshtein(a, b, &scratch),
              LevenshteinReferenceDp(a, b, &ref_scratch))
        << "lengths " << len_a << " vs " << len_b << " (trial " << trial << ")";
  }
}

TEST(MyersPropertyTest, ExactlySixtyFourAndSixtyFivePatternChars) {
  EditDistanceScratch scratch, ref_scratch;
  // Pin the block boundary itself: a 64-char pattern uses the top bit of
  // the single block, a 65-char pattern is the smallest blocked case.
  std::string base(64, 'x');
  for (size_t i = 0; i < base.size(); i += 7) base[i] = 'y';
  for (size_t extra = 0; extra <= 3; ++extra) {
    std::string a = base + std::string(extra, 'z');
    std::string b = base;
    std::reverse(b.begin(), b.end());
    b += "qq";
    EXPECT_EQ(Levenshtein(a, b, &scratch),
              LevenshteinReferenceDp(a, b, &ref_scratch))
        << "pattern length " << a.size();
  }
}

TEST(MyersPropertyTest, EmptyAndSingleCharStrings) {
  EditDistanceScratch scratch;
  EXPECT_EQ(Levenshtein("", "", &scratch), 0u);
  EXPECT_EQ(Levenshtein("", "abc", &scratch), 3u);
  EXPECT_EQ(Levenshtein("abc", "", &scratch), 3u);
  EXPECT_EQ(Levenshtein("a", "abc", &scratch), 2u);
  EXPECT_EQ(Levenshtein("b", "abc", &scratch), 2u);
  EXPECT_EQ(Levenshtein("z", "abc", &scratch), 3u);
}

TEST(MyersPropertyTest, HighBytesAndUtf8) {
  Rng rng(7003);
  EditDistanceScratch scratch, ref_scratch;
  // The kernel works on raw bytes; multi-byte UTF-8 and bytes >= 0x80 must
  // index the pattern bitmap correctly (unsigned char, not char).
  const std::vector<std::string> pieces = {"é", "ß", "日", "本", "\xff",
                                           "\x80", "a",  "z"};
  for (int trial = 0; trial < 300; ++trial) {
    std::string a, b;
    for (size_t i = rng.NextIndex(40); i > 0; --i) {
      a += pieces[rng.NextIndex(pieces.size())];
    }
    for (size_t i = rng.NextIndex(40); i > 0; --i) {
      b += pieces[rng.NextIndex(pieces.size())];
    }
    EXPECT_EQ(Levenshtein(a, b, &scratch),
              LevenshteinReferenceDp(a, b, &ref_scratch));
  }
}

TEST(MyersPropertyTest, ScratchReuseAcrossMixedLengths) {
  // The pattern-bitmap invariant (all zeros between calls) must survive
  // arbitrary interleavings of short, long, and high-byte patterns in one
  // scratch — a stale bit from a previous call would corrupt a later one.
  Rng rng(7004);
  EditDistanceScratch scratch, ref_scratch;
  const std::string alphabet = "ab\x80\xff";
  for (int trial = 0; trial < 400; ++trial) {
    const size_t max_len = trial % 3 == 0 ? 150 : 12;
    std::string a = RandomString(&rng, alphabet, max_len);
    std::string b = RandomString(&rng, alphabet, max_len);
    EXPECT_EQ(Levenshtein(a, b, &scratch),
              LevenshteinReferenceDp(a, b, &ref_scratch));
  }
}

TEST(MyersPropertyTest, DamerauAffixTrimMatchesUntrimmedReference) {
  Rng rng(7005);
  EditDistanceScratch scratch;
  // Shared prefixes/suffixes around a transposition-heavy core: trims the
  // OSA recurrence must not change (transpositions never straddle an
  // agreeing position).
  const std::string alphabet = "ab";
  for (int trial = 0; trial < 500; ++trial) {
    const std::string prefix = RandomString(&rng, "xy", 6);
    const std::string suffix = RandomString(&rng, "uv", 6);
    std::string a = prefix + RandomString(&rng, alphabet, 10) + suffix;
    std::string b = prefix + RandomString(&rng, alphabet, 10) + suffix;
    EXPECT_EQ(DamerauLevenshtein(a, b, &scratch), ReferenceDamerau(a, b))
        << '"' << a << "\" vs \"" << b << '"';
  }
}

TEST(KernelPropertyTest, ProfileCosineMatchesReference) {
  Rng rng(2026);
  const std::string alphabet = "abcdef";
  BigramProfile pa, pb;
  for (int trial = 0; trial < 500; ++trial) {
    std::string a = RandomString(&rng, alphabet, 20);
    std::string b = RandomString(&rng, alphabet, 20);
    EXPECT_NEAR(CosineBigramDistance(a, b), ReferenceCosine(a, b), 1e-12)
        << '"' << a << "\" vs \"" << b << '"';
    pa.Assign(a);
    pb.Assign(b);
    if (!a.empty() && !b.empty() && a != b) {
      EXPECT_NEAR(CosineProfileDistance(pa, pb), ReferenceCosine(a, b), 1e-12);
    }
  }
}

TEST(BigramProfileTest, CountsSortedAndNormConsistent) {
  BigramProfile p("banana");
  double sq = 0.0;
  for (size_t i = 0; i < p.counts().size(); ++i) {
    if (i > 0) {
      EXPECT_LT(p.counts()[i - 1].first, p.counts()[i].first);
    }
    sq += p.counts()[i].second * p.counts()[i].second;
  }
  EXPECT_DOUBLE_EQ(p.norm(), std::sqrt(sq));
  // "banana" bigrams: ba, an, na, an, na -> 3 distinct keys.
  EXPECT_EQ(p.counts().size(), 3u);
  // Reassignment reuses the profile object.
  p.Assign("");
  EXPECT_TRUE(p.empty());
  EXPECT_DOUBLE_EQ(p.norm(), 0.0);
}

TEST(BigramProfileTest, EmptyProfilesAreDistanceOne) {
  BigramProfile empty(""), other("ab");
  EXPECT_DOUBLE_EQ(CosineProfileDistance(empty, other), 1.0);
  EXPECT_DOUBLE_EQ(CosineProfileDistance(empty, empty), 1.0);
}

}  // namespace
}  // namespace mlnclean

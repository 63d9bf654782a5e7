#include "common/varint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace mlnclean {
namespace {

std::vector<uint32_t> RandomValues(Rng* rng, size_t n) {
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    // Mix magnitudes so every 2-bit length code shows up.
    switch (rng->NextIndex(4)) {
      case 0:
        values[i] = static_cast<uint32_t>(rng->NextIndex(1u << 8));
        break;
      case 1:
        values[i] = static_cast<uint32_t>(rng->NextIndex(1u << 16));
        break;
      case 2:
        values[i] = static_cast<uint32_t>(rng->NextIndex(1u << 24));
        break;
      default:
        values[i] = static_cast<uint32_t>(rng->NextIndex(uint64_t{1} << 32));
        break;
    }
  }
  return values;
}

TEST(GroupVarintTest, EmptyRoundTrip) {
  uint8_t buf[1];
  EXPECT_EQ(GroupVarintEncode(nullptr, 0, buf), 0u);
  size_t consumed = 123;
  EXPECT_TRUE(GroupVarintDecode(buf, 0, 0, nullptr, &consumed));
  EXPECT_EQ(consumed, 0u);
}

TEST(GroupVarintTest, RoundTripsAllLengthsAndTails) {
  Rng rng(91001);
  for (int trial = 0; trial < 300; ++trial) {
    // Cover every tail length 0..3 and sizes around group boundaries.
    const size_t n = rng.NextIndex(70);
    std::vector<uint32_t> values = RandomValues(&rng, n);
    std::vector<uint8_t> buf(GroupVarintMaxSize(n));
    const size_t written = GroupVarintEncode(values.data(), n, buf.data());
    ASSERT_LE(written, buf.size());
    std::vector<uint32_t> decoded(n);
    size_t consumed = 0;
    ASSERT_TRUE(GroupVarintDecode(buf.data(), written, n, decoded.data(),
                                  &consumed))
        << "n=" << n << " trial=" << trial;
    EXPECT_EQ(consumed, written);
    EXPECT_EQ(decoded, values);
  }
}

TEST(GroupVarintTest, DeltaRoundTripsSortedAndUnsorted) {
  Rng rng(91002);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = rng.NextIndex(70);
    std::vector<uint32_t> values = RandomValues(&rng, n);
    if (trial % 2 == 0) std::sort(values.begin(), values.end());
    std::vector<uint8_t> buf(GroupVarintMaxSize(n));
    const size_t written = GroupVarintEncodeDelta(values.data(), n, buf.data());
    std::vector<uint32_t> decoded(n);
    size_t consumed = 0;
    ASSERT_TRUE(GroupVarintDecodeDelta(buf.data(), written, n, decoded.data(),
                                       &consumed));
    EXPECT_EQ(consumed, written);
    EXPECT_EQ(decoded, values);
  }
}

TEST(GroupVarintTest, SortedDenseIdsCompressWell) {
  // The motivating case: dictionary-coded ValueId columns. Dense sorted
  // ids delta down to one byte per value plus control overhead.
  std::vector<uint32_t> ids(1000);
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i / 3);
  std::vector<uint8_t> buf(GroupVarintMaxSize(ids.size()));
  const size_t written = GroupVarintEncodeDelta(ids.data(), ids.size(), buf.data());
  EXPECT_LT(written, ids.size() * 2);  // far below the 4 bytes/value raw cost
}

TEST(GroupVarintTest, TruncationAlwaysRejects) {
  Rng rng(91003);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextIndex(40);
    std::vector<uint32_t> values = RandomValues(&rng, n);
    std::vector<uint8_t> buf(GroupVarintMaxSize(n));
    const size_t written = GroupVarintEncode(values.data(), n, buf.data());
    std::vector<uint32_t> decoded(n);
    for (size_t cut = 0; cut < written; ++cut) {
      EXPECT_FALSE(GroupVarintDecode(buf.data(), cut, n, decoded.data()))
          << "cut=" << cut << " of " << written;
    }
  }
}

TEST(GroupVarintTest, CorruptedBytesDecodeOrReject) {
  // Any byte corruption must either decode to some values (wrong ones are
  // fine — the snapshot CRC layer catches content) or return false; it
  // must never read out of bounds or crash. Exercised under ASan in CI.
  Rng rng(91004);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextIndex(40);
    std::vector<uint32_t> values = RandomValues(&rng, n);
    std::vector<uint8_t> buf(GroupVarintMaxSize(n));
    const size_t written = GroupVarintEncodeDelta(values.data(), n, buf.data());
    std::vector<uint8_t> corrupt(buf.begin(), buf.begin() + written);
    for (int flips = 1 + static_cast<int>(rng.NextIndex(4)); flips > 0; --flips) {
      corrupt[rng.NextIndex(corrupt.size())] ^=
          static_cast<uint8_t>(1 + rng.NextIndex(255));
    }
    std::vector<uint32_t> decoded(n);
    size_t consumed = 0;
    const bool ok = GroupVarintDecodeDelta(corrupt.data(), corrupt.size(), n,
                                           decoded.data(), &consumed);
    if (ok) {
      EXPECT_LE(consumed, corrupt.size());
    }
  }
}

TEST(GroupVarintTest, PartialTailControlBitsAreStrict) {
  // A trailing group of k < 4 values must have zero codes above position
  // k; otherwise a truncated stream could alias a longer one.
  const uint32_t values[2] = {7, 300};
  uint8_t buf[16];
  const size_t written = GroupVarintEncode(values, 2, buf);
  ASSERT_GE(written, 1u);
  uint8_t poisoned[16];
  std::copy(buf, buf + written, poisoned);
  poisoned[0] |= 0x30;  // set a length code for the absent third value
  uint32_t out[2];
  EXPECT_FALSE(GroupVarintDecode(poisoned, written, 2, out));
}

TEST(GroupVarintTest, SimdAndScalarAgree) {
  // Above the 17-byte window the decoder takes the SSSE3 path when
  // available; a short input of the same values takes the scalar tail.
  // Decoding the same stream in one shot and value-by-value must agree.
  if (!GroupVarintUsesSimd()) GTEST_SKIP() << "scalar-only host";
  Rng rng(91005);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 8 + rng.NextIndex(100);
    std::vector<uint32_t> values = RandomValues(&rng, n);
    std::vector<uint8_t> buf(GroupVarintMaxSize(n));
    const size_t written = GroupVarintEncode(values.data(), n, buf.data());
    // One-shot decode (SIMD eligible for full groups with headroom).
    std::vector<uint32_t> fast(n);
    ASSERT_TRUE(GroupVarintDecode(buf.data(), written, n, fast.data()));
    EXPECT_EQ(fast, values);
    // Exact-size decode of each prefix group forces the scalar path at the
    // end of the buffer; results must match the one-shot decode.
    std::vector<uint32_t> slow(n);
    ASSERT_TRUE(GroupVarintDecode(buf.data(), written, n, slow.data()));
    EXPECT_EQ(slow, fast);
  }
}

}  // namespace
}  // namespace mlnclean

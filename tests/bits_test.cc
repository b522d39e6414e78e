// Unit tests for common/bits.h: scalar PEXT/PDEP twins vs the BMI2
// intrinsics, bit scans, and big-endian loads.

#include "common/bits.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hot {
namespace {

TEST(Bits, PextScalarBasics) {
  EXPECT_EQ(PextScalar(0b101100, 0b111100), 0b1011u);
  EXPECT_EQ(PextScalar(0xFF, 0x0F), 0x0Fu);
  EXPECT_EQ(PextScalar(0xF0, 0x0F), 0x00u);
  EXPECT_EQ(PextScalar(~0ULL, 0), 0u);
  EXPECT_EQ(PextScalar(0x8000000000000000ULL, 0x8000000000000000ULL), 1u);
}

TEST(Bits, PdepScalarBasics) {
  EXPECT_EQ(PdepScalar(0b1011, 0b111100), 0b101100u);
  EXPECT_EQ(PdepScalar(1, 0x8000000000000000ULL), 0x8000000000000000ULL);
  EXPECT_EQ(PdepScalar(0, ~0ULL), 0u);
}

TEST(Bits, PextPdepRoundTrip) {
  SplitMix64 rng(42);
  for (int i = 0; i < 10000; ++i) {
    uint64_t mask = rng.Next() & rng.Next();  // sparser masks
    uint64_t compact = rng.Next() & ((Popcount64(mask) == 64)
                                         ? ~0ULL
                                         : ((1ULL << Popcount64(mask)) - 1));
    EXPECT_EQ(PextScalar(PdepScalar(compact, mask), mask), compact);
  }
}

TEST(Bits, ScalarMatchesIntrinsics) {
  SplitMix64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    uint64_t value = rng.Next();
    uint64_t mask = rng.Next();
    if (i % 3 == 0) mask &= rng.Next();  // vary density
    EXPECT_EQ(Pext64(value, mask), PextScalar(value, mask));
    uint32_t v32 = static_cast<uint32_t>(value);
    uint32_t m32 = static_cast<uint32_t>(mask);
    EXPECT_EQ(Pext32(v32, m32), static_cast<uint32_t>(PextScalar(v32, m32)));
    EXPECT_EQ(Pdep32(v32, m32), static_cast<uint32_t>(PdepScalar(v32, m32)));
  }
}

TEST(Bits, BitScans) {
  EXPECT_EQ(BitScanReverse32(1), 0u);
  EXPECT_EQ(BitScanReverse32(0x80000000u), 31u);
  EXPECT_EQ(BitScanReverse32(0x00010001u), 16u);
  EXPECT_EQ(BitScanForward32(0x00010000u), 16u);
  EXPECT_EQ(BitScanReverse64(1ULL << 63), 63u);
}

TEST(Bits, BigEndianLoadStore) {
  uint8_t bytes[8] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(LoadBigEndian64(bytes), 0x0102030405060708ULL);
  uint8_t out[8];
  StoreBigEndian64(out, 0x0102030405060708ULL);
  EXPECT_EQ(0, memcmp(bytes, out, 8));
}

TEST(Bits, BigEndianOrderMatchesLexicographic) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint8_t a[8], b[8];
    StoreBigEndian64(a, rng.Next());
    StoreBigEndian64(b, rng.Next());
    int memcmp_order = memcmp(a, b, 8);
    uint64_t va = LoadBigEndian64(a), vb = LoadBigEndian64(b);
    if (memcmp_order < 0) {
      EXPECT_LT(va, vb);
    }
    if (memcmp_order > 0) {
      EXPECT_GT(va, vb);
    }
    if (memcmp_order == 0) {
      EXPECT_EQ(va, vb);
    }
  }
}

}  // namespace
}  // namespace hot

// Differential parity tests between the hardware-intrinsic primitives and
// their scalar twins (common/bits.h, common/simd.h).
//
// In a default build on BMI2/AVX2 hardware the dispatchers (Pext64,
// FindByteMatches16, ...) compile to the intrinsics, so these tests compare
// hardware against the scalar reference.  In a -DHOT_FORCE_SCALAR=ON build
// the dispatchers ARE the scalar twins, so the same tests pin the scalar
// implementations against the independent references below.  CI runs both
// flavors.

#include <gtest/gtest.h>

#include <cstdint>

#include "common/bits.h"
#include "common/rng.h"
#include "common/simd.h"

namespace hot {
namespace {

// Independent bit-by-bit references (deliberately written differently from
// PextScalar/PdepScalar's lowest-set-bit loops).
uint64_t ReferencePext(uint64_t value, uint64_t mask) {
  uint64_t out = 0;
  unsigned k = 0;
  for (unsigned i = 0; i < 64; ++i) {
    if (mask & (1ULL << i)) {
      if (value & (1ULL << i)) out |= 1ULL << k;
      ++k;
    }
  }
  return out;
}

uint64_t ReferencePdep(uint64_t value, uint64_t mask) {
  uint64_t out = 0;
  unsigned k = 0;
  for (unsigned i = 0; i < 64; ++i) {
    if (mask & (1ULL << i)) {
      if (value & (1ULL << k)) out |= 1ULL << i;
      ++k;
    }
  }
  return out;
}

uint32_t ReferenceMatches16(const uint8_t bytes[16], uint8_t needle) {
  uint32_t mask = 0;
  for (int i = 15; i >= 0; --i) {
    mask = (mask << 1) | (bytes[i] == needle ? 1u : 0u);
  }
  return mask;
}

uint32_t ReferenceLess16(const uint8_t bytes[16], uint8_t needle) {
  uint32_t mask = 0;
  for (int i = 15; i >= 0; --i) {
    mask = (mask << 1) | (bytes[i] < needle ? 1u : 0u);
  }
  return mask;
}

TEST(ScalarParity, PextPdep64RandomPairs) {
  SplitMix64 rng(0xb175);
  for (int i = 0; i < 10000; ++i) {
    uint64_t value = rng.Next();
    uint64_t mask = rng.Next();
    // Bias some masks towards sparse/dense shapes like real disc-bit masks.
    if (i % 3 == 1) mask &= rng.Next();
    if (i % 3 == 2) mask |= rng.Next();
    ASSERT_EQ(Pext64(value, mask), ReferencePext(value, mask))
        << "value=" << value << " mask=" << mask;
    ASSERT_EQ(PextScalar(value, mask), ReferencePext(value, mask));
    ASSERT_EQ(PdepScalar(value, mask), ReferencePdep(value, mask))
        << "value=" << value << " mask=" << mask;
    // The node code's one PDEP is 32-bit (§4.4 sparse-key recoding).
    uint32_t v32 = static_cast<uint32_t>(value);
    uint32_t m32 = static_cast<uint32_t>(mask);
    ASSERT_EQ(Pdep32(v32, m32), static_cast<uint32_t>(ReferencePdep(v32, m32)))
        << "value=" << v32 << " mask=" << m32;
  }
}

TEST(ScalarParity, PextPdep64EdgeMasks) {
  SplitMix64 rng(0xeade);
  const uint64_t masks[] = {0,
                            ~0ULL,
                            1,
                            1ULL << 63,
                            0x5555555555555555ULL,
                            0xaaaaaaaaaaaaaaaaULL,
                            0x00000000ffffffffULL,
                            0xffffffff00000000ULL};
  for (uint64_t mask : masks) {
    for (int i = 0; i < 100; ++i) {
      uint64_t value = rng.Next();
      ASSERT_EQ(Pext64(value, mask), ReferencePext(value, mask));
      for (unsigned half : {0u, 32u}) {
        uint32_t v32 = static_cast<uint32_t>(value >> half);
        uint32_t m32 = static_cast<uint32_t>(mask >> half);
        ASSERT_EQ(Pdep32(v32, m32),
                  static_cast<uint32_t>(ReferencePdep(v32, m32)));
      }
    }
  }
}

TEST(ScalarParity, PextPdep32RandomPairs) {
  SplitMix64 rng(0x3232);
  for (int i = 0; i < 10000; ++i) {
    uint32_t value = static_cast<uint32_t>(rng.Next());
    uint32_t mask = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Pext32(value, mask),
              static_cast<uint32_t>(ReferencePext(value, mask)));
    ASSERT_EQ(Pdep32(value, mask),
              static_cast<uint32_t>(ReferencePdep(value, mask)));
  }
}

TEST(ScalarParity, FindByteMatches16RandomArrays) {
  SplitMix64 rng(0x16161616);
  for (int i = 0; i < 10000; ++i) {
    uint8_t bytes[16];
    for (auto& b : bytes) {
      // Small alphabet so needles hit multiple positions often.
      b = static_cast<uint8_t>(rng.NextBounded(8) * 37);
    }
    uint8_t needle = static_cast<uint8_t>(rng.NextBounded(10) * 37);
    ASSERT_EQ(FindByteMatches16(bytes, needle),
              ReferenceMatches16(bytes, needle));
    ASSERT_EQ(FindByteLess16(bytes, needle), ReferenceLess16(bytes, needle));
  }
}

TEST(ScalarParity, FindByte16UnsignedBoundaries) {
  // The AVX2 less-than path emulates unsigned compare by sign-flipping; pin
  // the boundary values where a signed/unsigned mix-up would diverge.
  uint8_t bytes[16];
  for (int i = 0; i < 16; ++i) bytes[i] = static_cast<uint8_t>(i * 17);
  for (int needle : {0x00, 0x01, 0x7f, 0x80, 0x81, 0xfe, 0xff}) {
    uint8_t n = static_cast<uint8_t>(needle);
    EXPECT_EQ(FindByteLess16(bytes, n), ReferenceLess16(bytes, n)) << needle;
    EXPECT_EQ(FindByteMatches16(bytes, n), ReferenceMatches16(bytes, n))
        << needle;
  }
}

}  // namespace
}  // namespace hot

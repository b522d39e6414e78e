// Unit tests for common/key.h and common/extractors.h.

#include "common/key.h"

#include <gtest/gtest.h>

#include <string>

#include "common/extractors.h"
#include "common/rng.h"

namespace hot {
namespace {

KeyRef K(const char* s) { return KeyRef(std::string_view(s)); }

TEST(KeyRef, CompareLexicographic) {
  EXPECT_EQ(K("abc").Compare(K("abc")), 0);
  EXPECT_LT(K("abc").Compare(K("abd")), 0);
  EXPECT_GT(K("abd").Compare(K("abc")), 0);
  EXPECT_LT(K("ab").Compare(K("abc")), 0);
  EXPECT_GT(K("abc").Compare(K("ab")), 0);
  EXPECT_EQ(KeyRef().Compare(KeyRef()), 0);
}

TEST(KeyRef, BitAccess) {
  uint8_t data[2] = {0b10110001, 0b01000000};
  KeyRef k(data, 2);
  EXPECT_EQ(k.Bit(0), 1u);
  EXPECT_EQ(k.Bit(1), 0u);
  EXPECT_EQ(k.Bit(2), 1u);
  EXPECT_EQ(k.Bit(3), 1u);
  EXPECT_EQ(k.Bit(7), 1u);
  EXPECT_EQ(k.Bit(8), 0u);
  EXPECT_EQ(k.Bit(9), 1u);
  // Beyond the end: zero padded.
  EXPECT_EQ(k.Bit(100), 0u);
  EXPECT_EQ(k.ByteOrZero(5), 0u);
}

TEST(FirstMismatchBit, Basics) {
  EXPECT_EQ(FirstMismatchBit(K("a"), K("a")), kNoMismatch);
  // 'a' = 0x61 = 01100001, 'b' = 0x62 = 01100010: first differing bit is 6.
  EXPECT_EQ(FirstMismatchBit(K("a"), K("b")), 6u);
  // 'a' vs 'a\0...': trailing zero bytes match the implicit padding.
  uint8_t padded[3] = {'a', 0, 0};
  EXPECT_EQ(FirstMismatchBit(K("a"), KeyRef(padded, 3)), kNoMismatch);
}

TEST(FirstMismatchBit, LongKeysWordPath) {
  std::string a(100, 'x');
  std::string b = a;
  b[57] = 'y';  // 'x'=0x78, 'y'=0x79 differ in bit 7 of the byte
  EXPECT_EQ(FirstMismatchBit(KeyRef(a), KeyRef(b)), 57u * 8 + 7);
  EXPECT_EQ(FirstMismatchBit(KeyRef(a), KeyRef(a)), kNoMismatch);
}

TEST(FirstMismatchBit, AgainstBitwiseReference) {
  SplitMix64 rng(11);
  for (int iter = 0; iter < 2000; ++iter) {
    uint8_t a[16], b[16];
    size_t la = 1 + rng.NextBounded(16), lb = 1 + rng.NextBounded(16);
    for (size_t i = 0; i < la; ++i) a[i] = static_cast<uint8_t>(rng.Next());
    for (size_t i = 0; i < lb; ++i) b[i] = static_cast<uint8_t>(rng.Next());
    if (iter % 4 == 0) {  // force long shared prefixes
      size_t share = std::min(la, lb);
      memcpy(b, a, share);
    }
    KeyRef ka(a, la), kb(b, lb);
    size_t expected = kNoMismatch;
    for (size_t bit = 0; bit < std::max(la, lb) * 8; ++bit) {
      if (ka.Bit(bit) != kb.Bit(bit)) {
        expected = bit;
        break;
      }
    }
    EXPECT_EQ(FirstMismatchBit(ka, kb), expected);
  }
}

TEST(FirstMismatchBit, OrderConsistency) {
  // If a < b lexicographically (with zero padding), the bit at the mismatch
  // position must be 0 in a and 1 in b.
  SplitMix64 rng(13);
  for (int iter = 0; iter < 2000; ++iter) {
    uint8_t a[9], b[9];
    size_t la = 1 + rng.NextBounded(8), lb = 1 + rng.NextBounded(8);
    for (size_t i = 0; i < la; ++i) a[i] = static_cast<uint8_t>(rng.Next() % 4);
    for (size_t i = 0; i < lb; ++i) b[i] = static_cast<uint8_t>(rng.Next() % 4);
    KeyRef ka(a, la), kb(b, lb);
    size_t p = FirstMismatchBit(ka, kb);
    if (p == kNoMismatch) continue;
    if (ka.Bit(p) == 0) {
      EXPECT_LT(ka.Compare(kb), 0);
    } else {
      EXPECT_GT(ka.Compare(kb), 0);
    }
  }
}

TEST(EncodeU64, PreservesOrder) {
  SplitMix64 rng(17);
  for (int i = 0; i < 2000; ++i) {
    uint64_t x = rng.Next(), y = rng.Next();
    uint8_t bx[8], by[8];
    EncodeU64(x, bx);
    EncodeU64(y, by);
    EXPECT_EQ(LoadBigEndian64(bx), x);
    int c = memcmp(bx, by, 8);
    EXPECT_EQ(c < 0, x < y);
    EXPECT_EQ(c > 0, x > y);
  }
}

TEST(U64Key, BigEndianBytes) {
  U64Key k(0x0102030405060708ULL);
  EXPECT_EQ(k.ref().size(), 8u);
  EXPECT_EQ(k.ref()[0], 0x01);
  EXPECT_EQ(k.ref()[7], 0x08);
}

TEST(Extractors, U64KeyExtractor) {
  U64KeyExtractor ex;
  KeyScratch scratch;
  KeyRef k = ex(42, scratch);
  EXPECT_EQ(k.size(), 8u);
  EXPECT_EQ(k, U64Key(42).ref());
}

TEST(Extractors, StringTableExtractor) {
  std::vector<std::string> table = {"alpha", "beta"};
  StringTableExtractor ex(&table);
  KeyScratch scratch;
  KeyRef k = ex(1, scratch);
  EXPECT_EQ(k.size(), 5u);  // "beta" + NUL
  EXPECT_EQ(k[3], 'a');
  EXPECT_EQ(k[4], 0u);
  EXPECT_TRUE(k == TerminatedView(table[1]));
}

}  // namespace
}  // namespace hot

// Tests for the physical HOT node layer: the nine layouts, encode/decode
// round trips, PEXT extraction (SIMD vs scalar), the comply search, and the
// physical-mask rank / affected range against their logical definitions.

#include "hot/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <type_traits>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/fast_insert.h"
#include "hot/logical_node.h"
#include "hot/node_search.h"
#include "hot/trie.h"
#include "testing/keyspace.h"

namespace hot {
namespace {

// Every descent declares a PathLevel[kMaxDepth] search path; a non-trivial
// default constructor would zero-fill all of it before each one.
static_assert(std::is_trivially_default_constructible_v<NodeRef>);
static_assert(std::is_trivially_default_constructible_v<PathLevel>);

class NodeTest : public ::testing::Test {
 protected:
  MemoryCounter counter_;
  NodePool alloc_{&counter_};
  std::vector<NodeRef> nodes_;

  ~NodeTest() override {
    for (NodeRef n : nodes_) FreeNode(alloc_, n);
    EXPECT_EQ(counter_.live_bytes(), 0u);
  }

  NodeRef Track(NodeRef n) {
    nodes_.push_back(n);
    return n;
  }
};

TEST(NodeLayout, GeometryOfAllTypes) {
  EXPECT_EQ(MaskSectionBytes(NodeType::kSingleMask8), 16u);
  EXPECT_EQ(MaskSectionBytes(NodeType::kMultiMask8x8), 16u);
  EXPECT_EQ(MaskSectionBytes(NodeType::kMultiMask16x16), 32u);
  EXPECT_EQ(MaskSectionBytes(NodeType::kMultiMask32x32), 64u);
  EXPECT_EQ(PartialKeyBytes(NodeType::kSingleMask8), 1u);
  EXPECT_EQ(PartialKeyBytes(NodeType::kMultiMask8x16), 2u);
  EXPECT_EQ(PartialKeyBytes(NodeType::kMultiMask32x32), 4u);
  // Partial key sections are padded to whole SIMD vectors.
  EXPECT_EQ(PartialKeySectionBytes(NodeType::kSingleMask8, 2), 32u);
  EXPECT_EQ(PartialKeySectionBytes(NodeType::kSingleMask16, 20), 64u);
  EXPECT_EQ(PartialKeySectionBytes(NodeType::kSingleMask32, 32), 128u);
}

TEST(NodeLayout, EntryTagging) {
  uint64_t tid = HotEntry::MakeTid(0x1234);
  EXPECT_TRUE(HotEntry::IsTid(tid));
  EXPECT_FALSE(HotEntry::IsNode(tid));
  EXPECT_EQ(HotEntry::TidPayload(tid), 0x1234u);

  alignas(32) static char fake_node[64];
  uint64_t e = HotEntry::MakeNode(fake_node, NodeType::kMultiMask16x32, 64);
  EXPECT_TRUE(HotEntry::IsNode(e));
  EXPECT_FALSE(HotEntry::IsTid(e));
  EXPECT_EQ(HotEntry::Type(e), NodeType::kMultiMask16x32);
  EXPECT_EQ(HotEntry::NodeSizeBytes(e), 64u);
  EXPECT_EQ(HotEntry::NodePtr(e), static_cast<void*>(fake_node));
  EXPECT_FALSE(HotEntry::IsNode(HotEntry::kEmpty));
  EXPECT_FALSE(HotEntry::IsTid(HotEntry::kEmpty));
}

TEST(NodeLayout, ChooseNodeTypePicksSmallest) {
  {
    uint16_t bits[] = {0, 5, 13, 60};  // bytes 0..7: single mask
    EXPECT_EQ(ChooseNodeType(bits, 4), NodeType::kSingleMask8);
  }
  {
    uint16_t bits[] = {0, 100};  // bytes 0 and 12: multi-mask 8
    EXPECT_EQ(ChooseNodeType(bits, 2), NodeType::kMultiMask8x8);
  }
  {
    // 12 bits in 12 distinct far-apart bytes: 16 masks, 16-bit keys.
    uint16_t bits[12];
    for (int i = 0; i < 12; ++i) bits[i] = static_cast<uint16_t>(i * 100);
    EXPECT_EQ(ChooseNodeType(bits, 12), NodeType::kMultiMask16x16);
  }
  {
    // 20 bits in 20 distinct far-apart bytes: 32 masks.
    uint16_t bits[20];
    for (int i = 0; i < 20; ++i) bits[i] = static_cast<uint16_t>(i * 80);
    EXPECT_EQ(ChooseNodeType(bits, 20), NodeType::kMultiMask32x32);
  }
  {
    // Many bits but all within one 8-byte window: still single mask.
    uint16_t bits[20];
    for (int i = 0; i < 20; ++i) bits[i] = static_cast<uint16_t>(i * 3);
    EXPECT_EQ(ChooseNodeType(bits, 20), NodeType::kSingleMask32);
  }
  {
    // 9 bits spread over 5 distinct bytes beyond an 8-byte span: MM8 x16.
    uint16_t bits[] = {0, 1, 80, 81, 160, 161, 240, 241, 400};
    EXPECT_EQ(ChooseNodeType(bits, 9), NodeType::kMultiMask8x16);
  }
}

// Builds a logical node over the given bit positions with sparse keys
// enumerating a balanced local trie, encodes it, and checks that decode and
// extraction invert the encoding.
TEST_F(NodeTest, EncodeDecodeRoundTripAcrossLayouts) {
  struct Case {
    std::vector<uint16_t> bits;
  };
  std::vector<Case> cases = {
      {{3, 4, 6}},                                  // single mask, 8-bit
      {{3, 4, 6, 8, 9, 20, 40, 55, 61, 62}},        // single mask, 16-bit
      {{0, 100, 200}},                              // MM8, 8-bit
      {{0, 1, 2, 3, 100, 101, 200, 300, 400}},      // MM8, 16-bit (5 bytes)
  };
  // 12 far-apart bytes -> MM16.
  Case mm16;
  for (int i = 0; i < 12; ++i) mm16.bits.push_back(static_cast<uint16_t>(i * 64 + 5));
  cases.push_back(mm16);
  // 18 far-apart bytes -> MM32.
  Case mm32;
  for (int i = 0; i < 18; ++i) mm32.bits.push_back(static_cast<uint16_t>(i * 64 + 3));
  cases.push_back(mm32);

  SplitMix64 rng(5);
  for (const Case& c : cases) {
    unsigned nbits = static_cast<unsigned>(c.bits.size());
    LogicalNode ln;
    ln.height = 1;
    ln.num_bits = nbits;
    std::copy(c.bits.begin(), c.bits.end(), ln.bits);
    // Chain sparse keys: entry i turns 1 at rank i-1 after the path of
    // entry i-1 (a right-leaning local trie), which is trivially valid and
    // strictly increasing.
    ln.count = std::min(nbits + 1, kMaxFanout);
    ln.sparse[0] = 0;
    for (unsigned i = 1; i < ln.count; ++i) {
      ln.sparse[i] = ln.sparse[i - 1] | LogicalNode::RankBit(i - 1);
    }
    for (unsigned i = 0; i < ln.count; ++i) {
      ln.entries[i] = HotEntry::MakeTid(rng.Next() >> 1);
    }

    NodeRef node = Track(Encode(ln, alloc_));
    EXPECT_EQ(node.count(), ln.count);
    EXPECT_EQ(node.num_bits(), nbits);
    EXPECT_EQ(node.height(), 1u);

    // Bit positions survive the round trip.
    uint16_t decoded[kMaxDiscBits];
    ASSERT_EQ(DecodeBitPositions(node, decoded), nbits);
    for (unsigned i = 0; i < nbits; ++i) EXPECT_EQ(decoded[i], c.bits[i]);

    // Logical decode inverts encode.
    LogicalNode back = Decode(node);
    EXPECT_EQ(back.count, ln.count);
    EXPECT_EQ(back.num_bits, ln.num_bits);
    for (unsigned i = 0; i < ln.count; ++i) {
      EXPECT_EQ(back.sparse[i], ln.sparse[i]);
      EXPECT_EQ(back.entries[i], ln.entries[i]);
    }

    // RootDiscBit is the smallest bit.
    EXPECT_EQ(RootDiscBit(node), c.bits[0]);

    // SIMD and scalar extraction agree on random keys.
    for (int trial = 0; trial < 200; ++trial) {
      uint8_t keybytes[kMaxKeyBytes];
      size_t len = 1 + rng.NextBounded(kMaxKeyBytes);
      for (size_t b = 0; b < len; ++b) {
        keybytes[b] = static_cast<uint8_t>(rng.Next());
      }
      KeyRef key(keybytes, len);
      EXPECT_EQ(ExtractDensePartialKey(node, key),
                ExtractDensePartialKeyScalar(node, key));
      EXPECT_EQ(ComplyMask(node, ExtractDensePartialKey(node, key)) &
                    node.UsedMask(),
                ComplyMaskScalar(node, ExtractDensePartialKey(node, key)) &
                    node.UsedMask());
      EXPECT_EQ(SearchNode(node, key), SearchNodeScalar(node, key));
    }
  }
}

TEST_F(NodeTest, ExtractionMatchesBitByBitDefinition) {
  SplitMix64 rng(99);
  for (int trial = 0; trial < 300; ++trial) {
    // Random ascending bit set.
    std::set<uint16_t> bitset;
    unsigned nbits = 1 + rng.NextBounded(kMaxDiscBits);
    while (bitset.size() < nbits) {
      bitset.insert(static_cast<uint16_t>(rng.NextBounded(kMaxDiscBitPos)));
    }
    LogicalNode ln;
    ln.height = 1;
    ln.num_bits = nbits;
    unsigned j = 0;
    for (uint16_t b : bitset) ln.bits[j++] = b;
    ln.count = std::min(nbits + 1, kMaxFanout);
    ln.sparse[0] = 0;
    for (unsigned i = 1; i < ln.count; ++i) {
      ln.sparse[i] = ln.sparse[i - 1] | LogicalNode::RankBit(i - 1);
    }
    for (unsigned i = 0; i < ln.count; ++i) {
      ln.entries[i] = HotEntry::MakeTid(i);
    }
    NodeRef node = Encode(ln, alloc_);

    uint8_t keybytes[kMaxKeyBytes];
    size_t len = 1 + rng.NextBounded(kMaxKeyBytes);
    for (size_t b = 0; b < len; ++b) {
      keybytes[b] = static_cast<uint8_t>(rng.Next());
    }
    KeyRef key(keybytes, len);
    uint32_t expected = 0;
    for (uint16_t b : bitset) expected = (expected << 1) | key.Bit(b);
    EXPECT_EQ(ExtractDensePartialKey(node, key), expected);
    EXPECT_EQ(ExtractDensePartialKeyScalar(node, key), expected);
    FreeNode(alloc_, node);
  }
}

TEST_F(NodeTest, SearchReturnsHighestComplyingEntry) {
  // Hand-built node in the spirit of Fig. 5: bits {3,4,6,8,9}, 7 entries
  // forming a valid local Patricia trie (bit 9 is reused by two BiNodes).
  LogicalNode ln;
  ln.height = 1;
  ln.count = 7;
  ln.num_bits = 5;
  uint16_t bits[] = {3, 4, 6, 8, 9};
  std::copy(bits, bits + 5, ln.bits);
  uint32_t sparse5[] = {0b00000, 0b01000, 0b01100, 0b10000,
                        0b10001, 0b10010, 0b10011};
  for (int i = 0; i < 7; ++i) {
    ln.sparse[i] = sparse5[i] << 27;  // left-align 5-bit keys
    ln.entries[i] = HotEntry::MakeTid(100 + i);
  }
  NodeRef node = Track(Encode(ln, alloc_));
  EXPECT_EQ(node.type(), NodeType::kSingleMask8);

  // A key whose dense partial key is 11011 complies with 00000, 01000,
  // 10000, 10001, 10010, 10011 -> best (highest) is entry 6.
  // Construct a key with bits {3:1,4:1,6:0,8:1,9:1}.
  uint8_t keybytes[2] = {0, 0};
  auto set_bit = [&](unsigned pos) {
    keybytes[pos / 8] |= static_cast<uint8_t>(1u << (7 - pos % 8));
  };
  set_bit(3);
  set_bit(4);
  set_bit(8);
  set_bit(9);
  KeyRef key(keybytes, 2);
  EXPECT_EQ(ExtractDensePartialKey(node, key), 0b11011u);
  EXPECT_EQ(SearchNode(node, key), 6u);
  EXPECT_EQ(SearchNodeScalar(node, key), 6u);

  // Dense 00000 complies only with entry 0.
  uint8_t zero[2] = {0, 0};
  EXPECT_EQ(SearchNode(node, KeyRef(zero, 2)), 0u);
}

TEST_F(NodeTest, ShortKeysZeroPadInExtraction) {
  LogicalNode ln;
  ln.height = 1;
  ln.count = 2;
  ln.num_bits = 1;
  ln.bits[0] = 100;  // byte 12: beyond a 1-byte key
  ln.sparse[0] = 0;
  ln.sparse[1] = LogicalNode::RankBit(0);
  ln.entries[0] = HotEntry::MakeTid(1);
  ln.entries[1] = HotEntry::MakeTid(2);
  NodeRef node = Track(Encode(ln, alloc_));
  uint8_t one = 0xFF;
  KeyRef shortkey(&one, 1);
  EXPECT_EQ(ExtractDensePartialKey(node, shortkey), 0u);
  EXPECT_EQ(SearchNode(node, shortkey), 0u);
}

// Fills sparse[lo..hi) with a random local trie whose BiNodes use ranks
// >= r and whose entries share `prefix`.  Each BiNode leaves at least one
// rank per level the larger side could still need.
void RandomLocalTrie(SplitMix64& rng, unsigned num_bits, unsigned r,
                     uint32_t prefix, unsigned lo, unsigned hi,
                     uint32_t* sparse) {
  unsigned n = hi - lo;
  if (n == 1) {
    sparse[lo] = prefix;
    return;
  }
  unsigned q = r + static_cast<unsigned>(rng.NextBounded(num_bits - n + 2 - r));
  unsigned left = 1 + static_cast<unsigned>(rng.NextBounded(n - 1));
  RandomLocalTrie(rng, num_bits, q + 1, prefix, lo, lo + left, sparse);
  RandomLocalTrie(rng, num_bits, q + 1, prefix | LogicalNode::RankBit(q),
                  lo + left, hi, sparse);
}

// Checks the physical-mask rank and affected range (hot/fast_insert.h),
// which insert planning and lower-bound repositioning read, against the
// logical definitions on the decoded node: the rank of every bit position,
// and the affected range around every slot at every rank.
void ExpectPhysicalMatchesLogical(NodeRef node) {
  SCOPED_TRACE(::testing::Message()
               << "layout " << static_cast<int>(node.type()));
  LogicalNode ln = Decode(node);
  for (unsigned p = 0; p < kMaxKeyBytes * 8; ++p) {
    bool want_exists;
    unsigned want = BitRank(ln, p, &want_exists);
    unsigned rank;
    bool exists;
    PhysicalBitRank(node, p, &rank, &exists);
    ASSERT_EQ(rank, want) << "bit " << p;
    ASSERT_EQ(exists, want_exists) << "bit " << p;
  }
  for (unsigned rank = 0; rank <= ln.num_bits; ++rank) {
    for (unsigned cand = 0; cand < ln.count; ++cand) {
      AffectedRange want = FindAffectedRange(ln, cand, rank);
      unsigned first, last;
      PhysicalAffectedRange(node, cand, rank, &first, &last);
      ASSERT_EQ(first, want.first) << "rank " << rank << ", slot " << cand;
      ASSERT_EQ(last, want.last) << "rank " << rank << ", slot " << cand;
    }
  }
}

TEST_F(NodeTest, PhysicalRankAndRangeMatchLogical) {
  std::set<NodeType> layouts;
  // Nodes of tries over every keyspace kind.
  for (unsigned k = 0; k < testing::kNumKeySpaceKinds; ++k) {
    testing::KeySpace ks =
        testing::BuildKeySpace(static_cast<testing::KeySpaceKind>(k), 3000, k);
    auto check = [&](auto& trie) {
      for (size_t i = 0; i < ks.size(); ++i) trie.Insert(ks.ValueOf(i));
      trie.ForEachNode([&](NodeRef node, unsigned) {
        layouts.insert(node.type());
        ExpectPhysicalMatchesLogical(node);
      });
    };
    if (ks.is_string) {
      HotTrie<StringTableExtractor> trie{StringTableExtractor(&ks.strings)};
      check(trie);
    } else {
      HotTrie<U64KeyExtractor> trie;
      check(trie);
    }
  }
  // Encoded nodes with random local tries over bit sets that land in each
  // of the nine layouts, so none depends on what the key sets reach.
  // spread(): `per_byte` consecutive bits at the start of `bytes` spans of
  // `stride` bits each.
  auto spread = [](int bytes, int per_byte, int stride) {
    std::vector<uint16_t> bits;
    for (int b = 0; b < bytes; ++b) {
      for (int i = 0; i < per_byte; ++i) {
        bits.push_back(static_cast<uint16_t>(b * stride + i));
      }
    }
    return bits;
  };
  std::vector<std::vector<uint16_t>> bit_sets = {
      {3, 4, 6},                              // single mask, 8-bit
      {3, 4, 6, 8, 9, 20, 40, 55, 61, 62},    // single mask, 16-bit
      spread(20, 1, 3),                       // single mask, 32-bit
      {0, 100, 200},                          // MM8, 8-bit
      {0, 1, 2, 3, 100, 101, 200, 300, 400},  // MM8, 16-bit
      spread(4, 5, 160),                      // MM8, 32-bit
      spread(12, 1, 64),                      // MM16, 16-bit
      spread(10, 2, 96),                      // MM16, 32-bit
      spread(18, 1, 64),                      // MM32, 32-bit
  };
  SplitMix64 rng(17);
  for (size_t t = 0; t < bit_sets.size(); ++t) {
    const std::vector<uint16_t>& bits = bit_sets[t];
    unsigned nbits = static_cast<unsigned>(bits.size());
    ASSERT_EQ(ChooseNodeType(bits.data(), nbits), static_cast<NodeType>(t));
    for (int shape = 0; shape < 8; ++shape) {
      LogicalNode ln;
      ln.height = 1;
      ln.num_bits = nbits;
      std::copy(bits.begin(), bits.end(), ln.bits);
      unsigned max_count = std::min(nbits + 1, kMaxFanout);
      ln.count = 2 + static_cast<unsigned>(rng.NextBounded(max_count - 1));
      RandomLocalTrie(rng, nbits, 0, 0, 0, ln.count, ln.sparse);
      for (unsigned i = 0; i < ln.count; ++i) {
        ln.entries[i] = HotEntry::MakeTid(i);
      }
      NodeRef node = Track(Encode(ln, alloc_));
      layouts.insert(node.type());
      ExpectPhysicalMatchesLogical(node);
    }
  }
  EXPECT_EQ(layouts.size(), kNumNodeTypes);
}

TEST(NodeAlloc, CounterTracksNodeBytes) {
  MemoryCounter counter;
  NodePool alloc(&counter);
  NodeRef n = AllocateNode(alloc, NodeType::kSingleMask8, 10, 1, 5);
  // The pool counts the block it hands out: the node rounded up to its
  // 16-byte size class (136 -> 144 bytes here).
  size_t bytes = NodeBytes(NodeType::kSingleMask8, 10);
  EXPECT_EQ(counter.live_bytes(), (bytes + 15) / 16 * 16);
  FreeNode(alloc, n);
  EXPECT_EQ(counter.live_bytes(), 0u);
}

}  // namespace
}  // namespace hot

// Logical (decoded) view of a HOT node, and the structure-adapting node
// operations of paper §3.2 / §4.4.
//
// Read operations run directly on the physical layouts (node_search.h).
// Structural modifications — insert, split, pull-up, delete — decode the
// node into a LogicalNode scratch struct, manipulate it there, and re-encode
// into the smallest fitting physical layout (nodes are copy-on-write, §4.2,
// so a new allocation is made anyway).
//
// Representation invariants of a LogicalNode:
//   * bits[0..num_bits) are the node's discriminative bit positions,
//     strictly ascending; bits[0] is the bit of the node-local root BiNode.
//   * sparse[i] is entry i's sparse partial key in *left-aligned* form:
//     rank j (position bits[j]) lives at integer bit (31 - j).  A bit is set
//     iff the path from the local root BiNode to entry i turns "1" at that
//     BiNode; all other bits are 0 (paper §4.4).
//   * sparse[] is strictly increasing, so entry order == key order, and
//     sparse[0] == 0.
//   * entries[i] is the tagged child slot (tid or node pointer).
//
// During an insert the LogicalNode may transiently hold kMaxFanout+1 entries
// (and up to kMaxFanout discriminative bits); Split() restores the
// k-constraint.

#ifndef HOT_HOT_LOGICAL_NODE_H_
#define HOT_HOT_LOGICAL_NODE_H_

#include <cassert>
#include <cstdint>
#include <cstring>

#include "common/bits.h"
#include "hot/node.h"
#include "hot/node_search.h"

namespace hot {

struct LogicalNode {
  unsigned height = 1;
  unsigned count = 0;
  unsigned num_bits = 0;
  uint16_t bits[kMaxFanout];          // ascending absolute bit positions
  uint32_t sparse[kMaxFanout + 1];    // left-aligned sparse partial keys
  uint64_t entries[kMaxFanout + 1];   // tagged child slots

  // Integer bit holding rank `j` in the left-aligned representation.
  static uint32_t RankBit(unsigned j) { return 1u << (31 - j); }

  // Mask selecting all ranks strictly smaller than `j` (the "prefix" above
  // a mismatching bit, §4.4).
  static uint32_t PrefixMask(unsigned j) {
    return j == 0 ? 0u : (~0u << (32 - j));
  }
};

// ---------------------------------------------------------------------------
// Decode / encode
// ---------------------------------------------------------------------------

inline LogicalNode Decode(NodeRef node) {
  LogicalNode ln;
  ln.height = node.height();
  ln.count = node.count();
  ln.num_bits = DecodeBitPositions(node, ln.bits);
  assert(ln.num_bits == node.num_bits());
  unsigned shift = 32 - ln.num_bits;
  for (unsigned i = 0; i < ln.count; ++i) {
    ln.sparse[i] = node.PartialKeyAt(i) << shift;
  }
  std::memcpy(ln.entries, node.values(), ln.count * sizeof(uint64_t));
  return ln;
}

// Chooses the smallest of the nine layouts for the given discriminative bit
// positions and bit count (§4.2: first dimension = partial-key width,
// second dimension = mask representation).
inline NodeType ChooseNodeType(const uint16_t* bits, unsigned num_bits) {
  assert(num_bits >= 1 && num_bits <= kMaxDiscBits);
  unsigned first_byte = bits[0] / 8;
  unsigned last_byte = bits[num_bits - 1] / 8;
  unsigned distinct_bytes = 1;
  for (unsigned i = 1; i < num_bits; ++i) {
    if (bits[i] / 8 != bits[i - 1] / 8) ++distinct_bytes;
  }
  if (last_byte - first_byte <= 7) {
    if (num_bits <= 8) return NodeType::kSingleMask8;
    if (num_bits <= 16) return NodeType::kSingleMask16;
    return NodeType::kSingleMask32;
  }
  if (distinct_bytes <= 8) {
    if (num_bits <= 8) return NodeType::kMultiMask8x8;
    if (num_bits <= 16) return NodeType::kMultiMask8x16;
    return NodeType::kMultiMask8x32;
  }
  if (distinct_bytes <= 16) {
    // >8 distinct bytes imply >8 discriminative bits.
    if (num_bits <= 16) return NodeType::kMultiMask16x16;
    return NodeType::kMultiMask16x32;
  }
  return NodeType::kMultiMask32x32;
}

// Encodes a logical node into a fresh physical node (copy-on-write).
inline NodeRef Encode(const LogicalNode& ln, NodePool& alloc) {
  assert(ln.count >= 2 && ln.count <= kMaxFanout);
  assert(ln.num_bits >= 1 && ln.num_bits <= kMaxDiscBits);
  NodeType type = ChooseNodeType(ln.bits, ln.num_bits);
  NodeRef node = AllocateNode(alloc, type, ln.count, ln.height, ln.num_bits);

  if (node.mask_slots() == 0) {
    unsigned offset = ln.bits[0] / 8;
    uint64_t mask = 0;
    for (unsigned i = 0; i < ln.num_bits; ++i) {
      unsigned rel = ln.bits[i] - offset * 8;  // 0..63 within the window
      mask |= 1ULL << (63 - rel);
    }
    *node.single_offset() = static_cast<uint8_t>(offset);
    *node.single_mask() = mask;
  } else {
    uint8_t* offs = node.byte_offsets();
    uint64_t* words = node.mask_words();
    unsigned slot = ~0u;
    int last_byte = -1;
    for (unsigned i = 0; i < ln.num_bits; ++i) {
      int byte = ln.bits[i] / 8;
      if (byte != last_byte) {
        ++slot;
        offs[slot] = static_cast<uint8_t>(byte);
        last_byte = byte;
      }
      unsigned lane = slot % 8;             // byte lane within the mask word
      unsigned bit_in_byte = ln.bits[i] % 8;
      words[slot / 8] |= 1ULL << (63 - (lane * 8 + bit_in_byte));
    }
    // Unused tail slots keep offset 0 / mask 0: they gather key[0] and
    // extract nothing.
  }

  unsigned shift = 32 - ln.num_bits;
  for (unsigned i = 0; i < ln.count; ++i) {
    assert((ln.sparse[i] & ((1u << shift) - 1)) == 0 && shift != 32);
    node.SetPartialKeyAt(i, ln.sparse[i] >> shift);
  }
  std::memcpy(node.values(), ln.entries, ln.count * sizeof(uint64_t));
  return node;
}

// ---------------------------------------------------------------------------
// Bit-set manipulation
// ---------------------------------------------------------------------------

// Rank `pos` would occupy among the node's bits; *exists reports whether it
// is already present.
inline unsigned BitRank(const LogicalNode& ln, unsigned pos, bool* exists) {
  unsigned r = 0;
  while (r < ln.num_bits && ln.bits[r] < pos) ++r;
  *exists = (r < ln.num_bits && ln.bits[r] == pos);
  return r;
}

// Inserts a new discriminative bit position at rank `rank`, recoding every
// sparse partial key (the PDEP recode of §4.4: existing bits keep their
// relative order, the new position reads as 0 everywhere).
inline void AddBitAtRank(LogicalNode& ln, unsigned rank, unsigned pos) {
  assert(ln.num_bits < kMaxFanout);
  for (unsigned i = ln.num_bits; i > rank; --i) ln.bits[i] = ln.bits[i - 1];
  ln.bits[rank] = static_cast<uint16_t>(pos);
  ++ln.num_bits;
  uint32_t hi = LogicalNode::PrefixMask(rank);
  for (unsigned i = 0; i < ln.count; ++i) {
    uint32_t s = ln.sparse[i];
    ln.sparse[i] = (s & hi) | ((s & ~hi) >> 1);
  }
}

// Drops unused discriminative bits and renormalizes the sparse keys after a
// removal or a split.  The set of bits actually used by the local trie is
// exactly union(sparse) & ~intersection(sparse): every BiNode has a 1-side
// (so its bit is in the union) and a 0-side (so it is not in the
// intersection), while inherited prefix bits are set in *all* entries and
// positions outside every path in none.
inline void RecomputeBits(LogicalNode& ln) {
  assert(ln.count >= 1);
  if (ln.count == 1) {
    ln.num_bits = 0;
    ln.sparse[0] = 0;
    return;
  }
  uint32_t uni = 0, inter = ~0u;
  for (unsigned i = 0; i < ln.count; ++i) {
    uni |= ln.sparse[i];
    inter &= ln.sparse[i];
  }
  uint32_t keep = uni & ~inter;
  assert(keep != 0 && "distinct entries must diverge somewhere");
  unsigned new_num = Popcount32(keep);
  // Compact the bit-position list.
  unsigned w = 0;
  for (unsigned r = 0; r < ln.num_bits; ++r) {
    if (keep & LogicalNode::RankBit(r)) ln.bits[w++] = ln.bits[r];
  }
  assert(w == new_num);
  // PEXT each sparse key through the kept mask, then left-align again.
  unsigned shift = 32 - new_num;
  for (unsigned i = 0; i < ln.count; ++i) {
    ln.sparse[i] = Pext32(ln.sparse[i], keep) << shift;
  }
  ln.num_bits = new_num;
}

// ---------------------------------------------------------------------------
// Affected range (paper §4.4)
// ---------------------------------------------------------------------------

// Entries in the subtree of the mismatching BiNode: exactly those whose
// sparse partial key agrees with the search-path candidate on every
// discriminative bit above the mismatch rank.  The range is contiguous
// around the candidate because entries are in key order.
struct AffectedRange {
  unsigned first;
  unsigned last;  // inclusive
};

inline AffectedRange FindAffectedRange(const LogicalNode& ln,
                                       unsigned candidate,
                                       unsigned mismatch_rank) {
  uint32_t prefix = LogicalNode::PrefixMask(mismatch_rank);
  uint32_t want = ln.sparse[candidate] & prefix;
  AffectedRange range{candidate, candidate};
  while (range.first > 0 && (ln.sparse[range.first - 1] & prefix) == want) {
    --range.first;
  }
  while (range.last + 1 < ln.count &&
         (ln.sparse[range.last + 1] & prefix) == want) {
    ++range.last;
  }
  return range;
}

// ---------------------------------------------------------------------------
// Insert (normal case, §3.2 / §4.4)
// ---------------------------------------------------------------------------

// Inserts `new_entry`, whose key first diverges from the keys below the
// candidate entry at absolute bit `mismatch_pos` with bit value `key_bit`.
// The caller must afterwards check count > kMaxFanout and split.
// Returns the index at which the entry was placed.
inline unsigned LogicalInsert(LogicalNode& ln, unsigned candidate,
                              unsigned mismatch_pos, unsigned key_bit,
                              uint64_t new_entry) {
  bool exists;
  unsigned rank = BitRank(ln, mismatch_pos, &exists);
  if (!exists) AddBitAtRank(ln, rank, mismatch_pos);
  AffectedRange range = FindAffectedRange(ln, candidate, rank);
  uint32_t prefix = ln.sparse[candidate] & LogicalNode::PrefixMask(rank);
  uint32_t rank_bit = LogicalNode::RankBit(rank);

  unsigned insert_at;
  uint32_t new_sparse;
  if (key_bit == 1) {
    // New key turns 1 at the new BiNode: it follows the affected subtree,
    // whose entries keep 0 at the mismatch rank (not on their paths).
    insert_at = range.last + 1;
    new_sparse = prefix | rank_bit;
  } else {
    // New key turns 0: the affected subtree moves to the 1-side, so its
    // entries' paths now include the new BiNode with a 1-turn.
    for (unsigned i = range.first; i <= range.last; ++i) {
      ln.sparse[i] |= rank_bit;
    }
    insert_at = range.first;
    new_sparse = prefix;
  }

  for (unsigned i = ln.count; i > insert_at; --i) {
    ln.sparse[i] = ln.sparse[i - 1];
    ln.entries[i] = ln.entries[i - 1];
  }
  ln.sparse[insert_at] = new_sparse;
  ln.entries[insert_at] = new_entry;
  ++ln.count;
  return insert_at;
}

// ---------------------------------------------------------------------------
// Split (overflow handling, §3.2)
// ---------------------------------------------------------------------------

// Height contributed by an entry: node children report their stored height,
// tuple identifiers contribute 0 (paper §3.1: h(n) = 1 for childless nodes).
inline unsigned EntryHeight(uint64_t e) {
  return HotEntry::IsNode(e) ? NodeRef::FromEntry(e).height() : 0;
}

// Exact height of a compound node per the paper's definition:
// 1 + max(height of compound children), 1 if all entries are tids.
inline unsigned ComputeHeight(const uint64_t* entries, unsigned count) {
  unsigned max_child = 0;
  for (unsigned i = 0; i < count; ++i) {
    unsigned h = EntryHeight(entries[i]);
    if (h > max_child) max_child = h;
  }
  return max_child + 1;
}

// Splitting severs the local root BiNode (rank 0, the node's smallest
// discriminative bit): the 0-side entries form the left half, the 1-side the
// right half.  Each half's height is recomputed exactly from its children —
// keeping heights tight is what lets intermediate-node creation find "room"
// below the parent (§3.2) and keeps the overall height logarithmic.  A half
// with a single entry collapses to that entry directly (the parent
// references it without an intermediate one-entry node).
struct SplitResult {
  unsigned bit_pos;   // absolute position of the severed root BiNode
  LogicalNode left;
  LogicalNode right;
};

inline SplitResult Split(const LogicalNode& ln) {
  assert(ln.count >= 2 && ln.num_bits >= 1);
  SplitResult out;
  out.bit_pos = ln.bits[0];
  uint32_t root_bit = LogicalNode::RankBit(0);
  unsigned boundary = 0;
  while (boundary < ln.count && (ln.sparse[boundary] & root_bit) == 0) {
    ++boundary;
  }
  assert(boundary > 0 && boundary < ln.count);

  auto fill = [&](LogicalNode& half, unsigned from, unsigned to) {
    half.height = ComputeHeight(ln.entries + from, to - from);
    half.count = to - from;
    half.num_bits = ln.num_bits;
    std::memcpy(half.bits, ln.bits, ln.num_bits * sizeof(uint16_t));
    for (unsigned i = from; i < to; ++i) {
      half.sparse[i - from] = ln.sparse[i];
      half.entries[i - from] = ln.entries[i];
    }
    RecomputeBits(half);
  };
  fill(out.left, 0, boundary);
  fill(out.right, boundary, ln.count);
  return out;
}

// ---------------------------------------------------------------------------
// Parent pull-up support (§3.2)
// ---------------------------------------------------------------------------

// Replaces entry `idx` (the slot that pointed to an overflowed child) with
// two entries separated by the child's severed root BiNode at `bit_pos`.
// The caller must afterwards check count > kMaxFanout.
inline void ReplaceEntryWithTwo(LogicalNode& ln, unsigned idx,
                                unsigned bit_pos, uint64_t left_entry,
                                uint64_t right_entry) {
  bool exists;
  unsigned rank = BitRank(ln, bit_pos, &exists);
  if (!exists) AddBitAtRank(ln, rank, bit_pos);
  uint32_t rank_bit = LogicalNode::RankBit(rank);
  assert((ln.sparse[idx] & rank_bit) == 0 &&
         "pulled-up bit lies below every bit on the path to the slot");
  for (unsigned i = ln.count; i > idx + 1; --i) {
    ln.sparse[i] = ln.sparse[i - 1];
    ln.entries[i] = ln.entries[i - 1];
  }
  ln.entries[idx] = left_entry;
  ln.sparse[idx + 1] = ln.sparse[idx] | rank_bit;
  ln.entries[idx + 1] = right_entry;
  ++ln.count;
}

// ---------------------------------------------------------------------------
// Delete (normal case, §3.2)
// ---------------------------------------------------------------------------

// Rank (leading position index) at which two distinct sparse keys first
// diverge — the rank of the BiNode separating them in the local trie.
inline unsigned DivergenceRank(uint32_t a, uint32_t b) {
  assert(a != b);
  return static_cast<unsigned>(std::countl_zero(a ^ b));
}

// Removes entry `idx` and drops discriminative bits that became unused —
// the sparse representation makes this purely local (§4.4: "In case of a
// deletion this allows to remove unused discriminative bits").
//
// Removing a leaf also removes its parent BiNode B.  If the leaf was B's
// 0-side child, the entries of B's 1-side subtree carried a 1-bit for B on
// their paths; that bit must be cleared, or it lingers as a stale turn at a
// BiNode that no longer exists (corrupting searches if the same bit
// position is still used elsewhere in the node).
inline void RemoveEntry(LogicalNode& ln, unsigned idx) {
  assert(idx < ln.count);
  if (ln.count > 1) {
    // The parent BiNode of leaf `idx` is the deeper of the divergence
    // points with its two neighbours.
    int left_rank = idx > 0 ? static_cast<int>(DivergenceRank(
                                  ln.sparse[idx - 1], ln.sparse[idx]))
                            : -1;
    int right_rank = idx + 1 < ln.count
                         ? static_cast<int>(DivergenceRank(
                               ln.sparse[idx], ln.sparse[idx + 1]))
                         : -1;
    if (right_rank > left_rank) {
      // `idx` was the 0-side child: clear the vanished BiNode's bit in the
      // 1-side sibling subtree (the contiguous run sharing idx's prefix
      // above the divergence rank).
      unsigned rank = static_cast<unsigned>(right_rank);
      uint32_t rank_bit = LogicalNode::RankBit(rank);
      uint32_t prefix = LogicalNode::PrefixMask(rank);
      uint32_t want = ln.sparse[idx] & prefix;
      for (unsigned j = idx + 1; j < ln.count &&
                                 (ln.sparse[j] & prefix) == want &&
                                 (ln.sparse[j] & rank_bit) != 0;
           ++j) {
        ln.sparse[j] &= ~rank_bit;
      }
    }
    // (If `idx` was the 1-side child, the 0-side sibling subtree carries
    // 0-bits for B already — nothing to clear.)
  }
  for (unsigned i = idx; i + 1 < ln.count; ++i) {
    ln.sparse[i] = ln.sparse[i + 1];
    ln.entries[i] = ln.entries[i + 1];
  }
  --ln.count;
  RecomputeBits(ln);
}

// Builds the two-entry node used by leaf-node pushdown and root creation:
// one BiNode at `bit_pos`, the 0-side entry first.
inline LogicalNode MakeTwoEntryNode(unsigned bit_pos, uint64_t zero_entry,
                                    uint64_t one_entry, unsigned height) {
  LogicalNode ln;
  ln.height = height;
  ln.count = 2;
  ln.num_bits = 1;
  ln.bits[0] = static_cast<uint16_t>(bit_pos);
  ln.sparse[0] = 0;
  ln.sparse[1] = LogicalNode::RankBit(0);
  ln.entries[0] = zero_entry;
  ln.entries[1] = one_entry;
  return ln;
}

}  // namespace hot

#endif  // HOT_HOT_LOGICAL_NODE_H_

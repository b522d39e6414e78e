// Physical-layout insertion fast path (paper §4.4).
//
// The common insert neither overflows the node nor changes its physical
// layout; the paper performs it directly on the linearized representation:
// mark the affected entries, recode every sparse partial key with one PDEP
// when the mismatching bit is new, and splice the new partial key/value in
// front of or behind the affected range.  This file implements exactly
// that: AnalyzeInsert derives the mismatch rank and affected range from the
// physical masks, and TryPhysicalInsert builds the replacement node without
// the logical decode/encode round trip (falling back — returning an empty
// entry — whenever the insert would change the node's layout type or
// overflow it, which the general logical path handles).

#ifndef HOT_HOT_FAST_INSERT_H_
#define HOT_HOT_FAST_INSERT_H_

#include <cstdint>
#include <cstring>

#include "common/bits.h"
#include "hot/node.h"
#include "hot/node_pool.h"

namespace hot {

struct PhysicalInsertInfo {
  unsigned rank;   // rank `p` holds/would hold among the node's disc bits
  bool exists;     // p already a discriminative bit?
  unsigned first;  // affected range (inclusive)
  unsigned last;
};

// Rank and presence of absolute bit position `p` within the node's
// discriminative bit set, computed from the physical masks.
inline void PhysicalBitRank(NodeRef node, unsigned p, unsigned* rank,
                            bool* exists) {
  unsigned byte = p / 8, bit_in_byte = p % 8;
  if (node.mask_slots() == 0) {
    unsigned offset = *node.single_offset();
    uint64_t mask = *node.single_mask();
    if (byte < offset) {
      *rank = 0;
      *exists = false;
      return;
    }
    unsigned rel = (byte - offset) * 8 + bit_in_byte;
    if (rel >= 64) {
      *rank = node.num_bits();
      *exists = false;
      return;
    }
    // Mask bit (63 - rel') encodes window position rel'; positions < rel
    // are the mask bits strictly above (63 - rel).
    *rank = rel == 0 ? 0 : Popcount64(mask >> (64 - rel));
    *exists = ((mask >> (63 - rel)) & 1) != 0;
    return;
  }
  const uint8_t* offs = node.byte_offsets();
  const uint64_t* words = node.mask_words();
  unsigned words_n = node.num_mask_words();
  unsigned r = 0;
  bool found = false;
  for (unsigned w = 0; w < words_n; ++w) {
    uint64_t mask = words[w];
    if (mask == 0) continue;
    // Threshold mask: which positions in this word are < p.
    uint64_t below = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      unsigned slot = w * 8 + lane;
      uint64_t lane_mask = 0xFFULL << (8 * (7 - lane));
      if ((mask & lane_mask) == 0) continue;
      if (offs[slot] < byte) {
        below |= lane_mask;
      } else if (offs[slot] == byte) {
        // Bits above (more significant than) bit_in_byte within the lane.
        uint64_t head =
            bit_in_byte == 0
                ? 0
                : (lane_mask & (lane_mask << (8 - bit_in_byte)));
        below |= head;
        if ((mask >> (63 - (lane * 8 + bit_in_byte))) & 1) found = true;
      }
    }
    r += Popcount64(mask & below);
  }
  *rank = r;
  *exists = found;
}

// Affected range around `cand`: entries agreeing with it on every rank
// above `rank` (physical partial-key space).
inline void PhysicalAffectedRange(NodeRef node, unsigned cand, unsigned rank,
                                  unsigned* first, unsigned* last) {
  unsigned nb = node.num_bits();
  uint32_t key_space = nb >= 32 ? ~0u : ((1u << nb) - 1);
  uint32_t prefix_mask =
      rank == 0 ? 0u : (key_space & ~((1u << (nb - rank)) - 1));
  uint32_t want = node.PartialKeyAt(cand) & prefix_mask;
  unsigned l = cand, r = cand;
  while (l > 0 && (node.PartialKeyAt(l - 1) & prefix_mask) == want) --l;
  while (r + 1 < node.count() &&
         (node.PartialKeyAt(r + 1) & prefix_mask) == want) {
    ++r;
  }
  *first = l;
  *last = r;
}

// Whether inserting bit `p` keeps the node's physical layout type.
inline bool LayoutStableWithNewBit(NodeRef node, unsigned p) {
  unsigned nb = node.num_bits();
  // Partial-key width bucket must not change.
  unsigned width_bits = node.partial_key_bytes() * 8;
  if (nb + 1 > width_bits) return false;
  unsigned byte = p / 8;
  if (node.mask_slots() == 0) {
    unsigned offset = *node.single_offset();
    return byte >= offset && byte < offset + 8;
  }
  // Multi-mask: the byte must already have a slot (a new byte changes the
  // offsets array and possibly the slot count).
  const uint8_t* offs = node.byte_offsets();
  const uint64_t* words = node.mask_words();
  for (unsigned w = 0; w < node.num_mask_words(); ++w) {
    uint64_t mask = words[w];
    while (mask != 0) {
      unsigned msb = BitScanReverse64(mask);
      unsigned slot = w * 8 + (63 - msb) / 8;
      if (offs[slot] == byte) return true;
      // Skip the rest of this lane.
      mask &= ~(0xFFULL << (8 * (7 - (63 - msb) / 8)));
    }
  }
  return false;
}

// Performs the §4.4 physical insert, returning the replacement node's
// tagged entry, or HotEntry::kEmpty when the general path must run
// (overflow or layout change).  `info` comes from PhysicalBitRank +
// PhysicalAffectedRange; `key_bit` is the new key's bit at the mismatch.
inline uint64_t TryPhysicalInsert(NodeRef node, const PhysicalInsertInfo& info,
                                  unsigned p, unsigned key_bit, uint64_t tid,
                                  NodePool& alloc) {
  unsigned count = node.count();
  if (count >= kMaxFanout) return HotEntry::kEmpty;
  if (!info.exists && !LayoutStableWithNewBit(node, p)) {
    return HotEntry::kEmpty;
  }

  unsigned nb = node.num_bits();
  unsigned new_nb = info.exists ? nb : nb + 1;
  NodeRef fresh = AllocateNode(alloc, node.type(), count + 1, node.height(),
                               new_nb);

  // --- masks -----------------------------------------------------------------
  if (node.mask_slots() == 0) {
    *fresh.single_offset() = *node.single_offset();
    uint64_t mask = *node.single_mask();
    if (!info.exists) {
      unsigned rel = p - *node.single_offset() * 8u;
      mask |= 1ULL << (63 - rel);
    }
    *fresh.single_mask() = mask;
  } else {
    std::memcpy(fresh.byte_offsets(), node.byte_offsets(), node.mask_slots());
    std::memcpy(fresh.mask_words(), node.mask_words(),
                node.num_mask_words() * sizeof(uint64_t));
    if (!info.exists) {
      // Find the slot for p's byte and set the bit.
      const uint8_t* offs = fresh.byte_offsets();
      uint64_t* words = fresh.mask_words();
      for (unsigned w = 0; w < fresh.num_mask_words(); ++w) {
        uint64_t mask = node.mask_words()[w];
        bool done = false;
        for (unsigned lane = 0; lane < 8 && !done; ++lane) {
          unsigned slot = w * 8 + lane;
          if ((mask & (0xFFULL << (8 * (7 - lane)))) == 0) continue;
          if (offs[slot] == p / 8) {
            words[w] |= 1ULL << (63 - (lane * 8 + p % 8));
            done = true;
          }
        }
        if (done) break;
      }
    }
  }

  // --- partial keys and values -------------------------------------------------
  unsigned insert_at = key_bit ? info.last + 1 : info.first;
  uint32_t new_rank_bit = 1u << (new_nb - 1 - info.rank);
  uint32_t key_space = new_nb >= 32 ? ~0u : ((1u << new_nb) - 1);
  uint32_t prefix_mask = info.rank == 0
                             ? 0u
                             : (key_space & ~((1u << (new_nb - info.rank)) - 1));
  // PDEP keep-mask: every new-width position except the new bit's.
  uint32_t keep = key_space & ~new_rank_bit;

  uint32_t cand_recoded = 0;
  for (unsigned i = 0; i < count; ++i) {
    uint32_t pk = node.PartialKeyAt(i);
    if (!info.exists) pk = Pdep32(pk, keep);  // §4.4: one PDEP per key
    if (key_bit == 0 && i >= info.first && i <= info.last) {
      pk |= new_rank_bit;  // affected subtree moves to the 1-side
    }
    if (i == info.first) cand_recoded = pk;  // any affected entry's prefix
    unsigned dst = i < insert_at ? i : i + 1;
    fresh.SetPartialKeyAt(dst, pk);
  }
  uint32_t new_sparse = (cand_recoded & prefix_mask) |
                        (key_bit ? new_rank_bit : 0u);
  fresh.SetPartialKeyAt(insert_at, new_sparse);

  const uint64_t* src_values = node.values();
  uint64_t* dst_values = fresh.values();
  std::memcpy(dst_values, src_values, insert_at * sizeof(uint64_t));
  dst_values[insert_at] = tid;
  std::memcpy(dst_values + insert_at + 1, src_values + insert_at,
              (count - insert_at) * sizeof(uint64_t));
  return fresh.ToEntry();
}

}  // namespace hot

#endif  // HOT_HOT_FAST_INSERT_H_

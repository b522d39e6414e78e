// Physical HOT node layouts (paper §4.1, §4.2, Fig. 6).
//
// A HOT node is a linearized k-constrained binary Patricia trie (k = 32):
// up to 31 discriminative bit positions and up to 32 entries.  Each node
// stores, in one contiguous allocation:
//
//   [ header | bit-position section | sparse partial keys | values ]
//
// The bit-position section comes in four flavours — a single 64-bit mask
// with one byte offset, or 8/16/32 per-byte 8-bit masks with their byte
// offsets (stored pre-combined into 64-bit PEXT mask words) — and the
// partial keys in three widths (8/16/32 bits), yielding the paper's nine
// layouts.  For every node the smallest layout that fits is chosen.
//
// Entries ("values") are 64-bit words: MSB set = tuple identifier (63-bit
// payload); MSB clear = child pointer with the node's layout encoded in the
// low 4 bits (§4.5 — the tag is decoded while the prefetch of the node's
// first cache lines is in flight).

#ifndef HOT_HOT_NODE_H_
#define HOT_HOT_NODE_H_

#include <cassert>
#include <cstdint>
#include <cstring>

#include "common/bits.h"
#include "common/locks.h"
#include "common/simd.h"
#include "hot/node_pool.h"

namespace hot {

// ---------------------------------------------------------------------------
// Compile-time parameters
// ---------------------------------------------------------------------------

// Maximum node fanout (paper §4.1 fixes k = 32: large enough for cache
// efficiency, small enough for fast SIMD updates, and 32 entries need at
// most 31 discriminative bits, which fits 32-bit partial-key lanes).
inline constexpr unsigned kMaxFanout = 32;
inline constexpr unsigned kMaxDiscBits = kMaxFanout - 1;

// Byte offsets inside nodes are 8 bit wide (Fig. 6), so discriminative bits
// must lie within the first 256 key bytes.  Keys longer than this limit are
// rejected at the API boundary (same restriction as the reference
// implementation).
inline constexpr size_t kMaxKeyBytes = 256;
inline constexpr size_t kMaxDiscBitPos = kMaxKeyBytes * 8;

// Maximum tree depth: heights are uint8_t ranks that strictly decrease along
// every root-to-leaf path.
inline constexpr unsigned kMaxDepth = 256;

// ---------------------------------------------------------------------------
// Node types (the nine layouts)
// ---------------------------------------------------------------------------

enum class NodeType : uint8_t {
  kSingleMask8 = 0,    // one 64-bit mask, 8-bit partial keys
  kSingleMask16 = 1,   // one 64-bit mask, 16-bit partial keys
  kSingleMask32 = 2,   // one 64-bit mask, 32-bit partial keys
  kMultiMask8x8 = 3,   // 8 byte-masks, 8-bit partial keys
  kMultiMask8x16 = 4,  // 8 byte-masks, 16-bit partial keys
  kMultiMask8x32 = 5,  // 8 byte-masks, 32-bit partial keys
  kMultiMask16x16 = 6, // 16 byte-masks, 16-bit partial keys
  kMultiMask16x32 = 7, // 16 byte-masks, 32-bit partial keys
  kMultiMask32x32 = 8, // 32 byte-masks, 32-bit partial keys
};

inline constexpr unsigned kNumNodeTypes = 9;

// Number of byte-offset/mask slots; 0 means single-mask layout.
inline constexpr unsigned MaskSlots(NodeType t) {
  switch (t) {
    case NodeType::kSingleMask8:
    case NodeType::kSingleMask16:
    case NodeType::kSingleMask32:
      return 0;
    case NodeType::kMultiMask8x8:
    case NodeType::kMultiMask8x16:
    case NodeType::kMultiMask8x32:
      return 8;
    case NodeType::kMultiMask16x16:
    case NodeType::kMultiMask16x32:
      return 16;
    case NodeType::kMultiMask32x32:
      return 32;
  }
  return 0;
}

// Partial-key width in bytes (1, 2, or 4).
inline constexpr unsigned PartialKeyBytes(NodeType t) {
  switch (t) {
    case NodeType::kSingleMask8:
    case NodeType::kMultiMask8x8:
      return 1;
    case NodeType::kSingleMask16:
    case NodeType::kMultiMask8x16:
    case NodeType::kMultiMask16x16:
      return 2;
    default:
      return 4;
  }
}

// ---------------------------------------------------------------------------
// Tagged 64-bit entries
// ---------------------------------------------------------------------------

// HotEntry is the universal child slot: empty, tuple identifier, or tagged
// node pointer.  Nodes are 16-byte aligned, leaving the low 4 bits for the
// NodeType tag; x86-64 user pointers are below 2^48, leaving bits 48..56
// for the node's byte size (the largest layout is 456 bytes < 512).  The
// size rides in the pointer so the §4.5 prefetch can cover exactly the
// node's cache lines before the header — the memory being prefetched —
// has been read.
class HotEntry {
 public:
  static constexpr uint64_t kEmpty = 0;
  static constexpr uint64_t kTidBit = 1ULL << 63;
  static constexpr uint64_t kTypeMask = 0xF;
  static constexpr unsigned kSizeShift = 48;
  static constexpr uint64_t kSizeMask = 0x1FFULL << kSizeShift;
  // Pointer payload: bits 4..47.  (Size/type bits overlap the 63-bit tid
  // payload, which is fine: they are only decoded for node entries.)
  static constexpr uint64_t kPtrMask = ((1ULL << kSizeShift) - 1) & ~kTypeMask;

  static uint64_t MakeTid(uint64_t payload) {
    assert((payload >> 63) == 0);
    return payload | kTidBit;
  }

  static uint64_t MakeNode(const void* node, NodeType type,
                           size_t size_bytes) {
    auto raw = reinterpret_cast<uintptr_t>(node);
    assert((raw & kTypeMask) == 0 && "nodes must be 16-byte aligned");
    assert((raw >> kSizeShift) == 0 && "node pointers must fit 48 bits");
    assert(size_bytes < 512 && "node sizes fit the 9-bit size tag");
    return static_cast<uint64_t>(raw) |
           (static_cast<uint64_t>(size_bytes) << kSizeShift) |
           static_cast<uint64_t>(type);
  }

  static bool IsEmpty(uint64_t e) { return e == kEmpty; }
  static bool IsTid(uint64_t e) { return (e & kTidBit) != 0; }
  static bool IsNode(uint64_t e) { return e != kEmpty && (e & kTidBit) == 0; }
  static uint64_t TidPayload(uint64_t e) { return e & ~kTidBit; }
  static NodeType Type(uint64_t e) {
    return static_cast<NodeType>(e & kTypeMask);
  }
  static size_t NodeSizeBytes(uint64_t e) {
    return static_cast<size_t>((e & kSizeMask) >> kSizeShift);
  }
  static void* NodePtr(uint64_t e) {
    return reinterpret_cast<void*>(static_cast<uintptr_t>(e & kPtrMask));
  }
};

// ---------------------------------------------------------------------------
// Header and section geometry
// ---------------------------------------------------------------------------

struct NodeHeader {
  RowexLockWord lock;  // §5: writer spin bit + obsolete bit (readers ignore)
  uint8_t type;        // NodeType, duplicated from the pointer tag
  uint8_t height;      // subtree height "rank" (root BiNode creation level)
  uint8_t count;       // number of entries, 2..32
  uint8_t num_bits;    // number of discriminative bits, 1..31
  uint8_t value_off8;  // offset of the value section, in 8-byte units
  uint8_t pk_shift;    // log2(partial-key bytes): 0, 1 or 2
  uint8_t reserved;
};
static_assert(sizeof(NodeHeader) == 8);

// Size of the bit-position section, in bytes (already 8-byte aligned).
//   single-mask : u8 offset + 7 pad + u64 mask                  = 16
//   multi-mask-N: u8 offsets[N] + u64 mask words[N/8]           = 2N
inline constexpr size_t MaskSectionBytes(NodeType t) {
  unsigned slots = MaskSlots(t);
  return slots == 0 ? 16 : 2 * static_cast<size_t>(slots);
}

// Partial-key array size, padded to a whole number of 32-byte SIMD vectors
// so search kernels can over-read safely.
inline constexpr size_t PartialKeySectionBytes(NodeType t, unsigned count) {
  size_t raw = static_cast<size_t>(count) * PartialKeyBytes(t);
  return (raw + 31) & ~size_t{31};
}

inline constexpr size_t NodeBytes(NodeType t, unsigned count) {
  return sizeof(NodeHeader) + MaskSectionBytes(t) +
         PartialKeySectionBytes(t, count) +
         static_cast<size_t>(count) * sizeof(uint64_t);
}

// ---------------------------------------------------------------------------
// NodeRef: typed view over a raw node allocation
// ---------------------------------------------------------------------------

class NodeRef {
 public:
  // Trivial, so that a search path (PathLevel[kMaxDepth]) is not zero-filled
  // on every descent.
  NodeRef() = default;
  NodeRef(void* base, NodeType type)
      : base_(static_cast<uint8_t*>(base)), type_(type) {}

  // Decodes a tagged entry known to be a node pointer.
  static NodeRef FromEntry(uint64_t entry) {
    assert(HotEntry::IsNode(entry));
    return NodeRef(HotEntry::NodePtr(entry), HotEntry::Type(entry));
  }

  uint64_t ToEntry() const {
    return HotEntry::MakeNode(base_, type_, NodeBytes(type_, count()));
  }

  void* raw() const { return base_; }
  NodeType type() const { return type_; }

  NodeHeader* header() const { return reinterpret_cast<NodeHeader*>(base_); }
  unsigned count() const { return header()->count; }
  unsigned num_bits() const { return header()->num_bits; }
  unsigned height() const { return header()->height; }

  // --- bit-position section -------------------------------------------------

  // Single-mask accessors (valid only for single-mask layouts).
  uint8_t* single_offset() const { return base_ + sizeof(NodeHeader); }
  uint64_t* single_mask() const {
    return reinterpret_cast<uint64_t*>(base_ + sizeof(NodeHeader) + 8);
  }

  // Multi-mask accessors.
  unsigned mask_slots() const { return MaskSlots(type_); }
  uint8_t* byte_offsets() const { return base_ + sizeof(NodeHeader); }
  uint64_t* mask_words() const {
    return reinterpret_cast<uint64_t*>(base_ + sizeof(NodeHeader) +
                                       mask_slots());
  }
  unsigned num_mask_words() const { return mask_slots() / 8; }

  // --- partial keys and values ----------------------------------------------

  unsigned partial_key_bytes() const { return PartialKeyBytes(type_); }

  uint8_t* partial_keys_raw() const {
    return base_ + sizeof(NodeHeader) + MaskSectionBytes(type_);
  }

  uint64_t* values() const {
    return reinterpret_cast<uint64_t*>(base_) + header()->value_off8;
  }

  uint32_t PartialKeyAt(unsigned i) const {
    switch (partial_key_bytes()) {
      case 1:
        return partial_keys_raw()[i];
      case 2:
        return reinterpret_cast<const uint16_t*>(partial_keys_raw())[i];
      default:
        return reinterpret_cast<const uint32_t*>(partial_keys_raw())[i];
    }
  }

  void SetPartialKeyAt(unsigned i, uint32_t pk) const {
    switch (partial_key_bytes()) {
      case 1:
        partial_keys_raw()[i] = static_cast<uint8_t>(pk);
        break;
      case 2:
        reinterpret_cast<uint16_t*>(partial_keys_raw())[i] =
            static_cast<uint16_t>(pk);
        break;
      default:
        reinterpret_cast<uint32_t*>(partial_keys_raw())[i] = pk;
        break;
    }
  }

  size_t SizeBytes() const { return NodeBytes(type_, count()); }

  // Bitmask of populated entry slots (§4.2 "used entries"); search results
  // are intersected with it so vector-padding lanes never win.
  uint32_t UsedMask() const {
    unsigned c = count();
    return c >= 32 ? ~0u : ((1u << c) - 1u);
  }

 private:
  uint8_t* base_;
  NodeType type_;
};

// Sized prefetch of a node entry (§4.5): the tagged pointer carries the
// node's byte size, so exactly the cache lines the node occupies are
// fetched — a 72-byte two-entry node touches 2 lines instead of the fixed
// 4 the paper's scheme would issue, and the largest 456-byte layout is
// fully covered instead of truncated at 256 bytes.  Nodes are 16-byte
// aligned and may therefore start mid-line.  Entries lacking a size tag
// (hand-built in tests) degrade to a single-line header prefetch.
inline void PrefetchNode(uint64_t entry) {
  auto base = reinterpret_cast<uintptr_t>(HotEntry::NodePtr(entry));
  size_t size = HotEntry::NodeSizeBytes(entry);
  uintptr_t first = base & ~uintptr_t{63};
  unsigned lines = static_cast<unsigned>((base + size - first + 63) >> 6);
  if (lines == 0) lines = 1;
  PrefetchLines(reinterpret_cast<const void*>(first), lines);
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

// Tagged pointers use 4 low bits for the node type, so 16-byte alignment
// suffices (AVX2 kernels use unaligned loads).  Every node comes from a
// NodePool (node_pool.h), whose blocks are that aligned.
inline constexpr size_t kNodeAlignment = 16;
static_assert(NodePool::kGranularity % kNodeAlignment == 0);

inline NodeRef AllocateNode(NodePool& alloc, NodeType type, unsigned count,
                            unsigned height, unsigned num_bits) {
  size_t bytes = NodeBytes(type, count);
  void* mem = alloc.Allocate(bytes);
  // Only the header and the mask section need zeroing: Encode builds masks
  // with |=, overwrites every partial key and value, and search results are
  // intersected with the used-entries mask, so partial-key padding may hold
  // garbage.
  std::memset(mem, 0, sizeof(NodeHeader) + MaskSectionBytes(type));
  NodeRef node(mem, type);
  NodeHeader* h = node.header();
  new (&h->lock) RowexLockWord();
  h->type = static_cast<uint8_t>(type);
  h->height = static_cast<uint8_t>(height);
  h->count = static_cast<uint8_t>(count);
  h->num_bits = static_cast<uint8_t>(num_bits);
  h->value_off8 = static_cast<uint8_t>(
      (sizeof(NodeHeader) + MaskSectionBytes(type) +
       PartialKeySectionBytes(type, count)) /
      8);
  h->pk_shift = PartialKeyBytes(type) == 1 ? 0 : (PartialKeyBytes(type) == 2 ? 1 : 2);
  return node;
}

inline void FreeNode(NodePool& alloc, NodeRef node) {
  alloc.Free(node.raw(), node.SizeBytes());
}

}  // namespace hot

#endif  // HOT_HOT_NODE_H_

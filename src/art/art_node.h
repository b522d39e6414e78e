// Adaptive Radix Tree node structures (Leis, Kemper, Neumann, ICDE 2013),
// the paper's primary trie baseline (§6.1).
//
// ART is a span-8 radix tree with four adaptive inner-node layouts (Node4,
// Node16, Node48, Node256) and hybrid path compression (a bounded prefix
// snippet stored inline, longer prefixes re-validated against a leaf key).
// Leaves are 63-bit tuple identifiers tagged in the entry word's MSB,
// exactly like HOT's entries, so both indexes share extractors and
// benchmarks.

#ifndef HOT_ART_ART_NODE_H_
#define HOT_ART_ART_NODE_H_

#include <cassert>
#include <cstdint>
#include <cstring>

#include "common/alloc.h"
#include "common/bits.h"
#include "common/simd.h"

namespace hot {
namespace art {

enum class ArtNodeType : uint8_t { kNode4 = 0, kNode16 = 1, kNode48 = 2, kNode256 = 3 };

// Entries use the same tagging convention as HOT: MSB set = tid.
struct ArtEntry {
  static constexpr uint64_t kEmpty = 0;
  static constexpr uint64_t kTidBit = 1ULL << 63;

  static uint64_t MakeTid(uint64_t payload) {
    assert((payload >> 63) == 0);
    return payload | kTidBit;
  }
  static bool IsTid(uint64_t e) { return (e & kTidBit) != 0; }
  static bool IsNode(uint64_t e) { return e != kEmpty && (e & kTidBit) == 0; }
  static uint64_t TidPayload(uint64_t e) { return e & ~kTidBit; }
};

// Bytes of key prefix stored inline for path compression; longer compressed
// paths fall back to re-checking against a stored leaf key (the "hybrid"
// scheme of the ART paper §III-E).
inline constexpr unsigned kArtMaxPrefix = 10;

struct ArtNodeHeader {
  ArtNodeType type;
  uint8_t num_children;
  uint16_t num_children16;     // Node256 can hold 256 children
  uint32_t prefix_len;         // full compressed-path length
  uint8_t prefix[kArtMaxPrefix];

  unsigned Count() const {
    return type == ArtNodeType::kNode256 ? num_children16 : num_children;
  }
  void SetCount(unsigned n) {
    if (type == ArtNodeType::kNode256) {
      num_children16 = static_cast<uint16_t>(n);
    } else {
      num_children = static_cast<uint8_t>(n);
    }
  }
};

struct ArtNode4 {
  ArtNodeHeader header;
  uint8_t keys[4];
  uint64_t children[4];
};

struct ArtNode16 {
  ArtNodeHeader header;
  uint8_t keys[16];
  uint64_t children[16];
};

struct ArtNode48 {
  ArtNodeHeader header;
  uint8_t child_index[256];  // 0xFF = empty
  uint64_t children[48];
  static constexpr uint8_t kEmptySlot = 0xFF;
};

struct ArtNode256 {
  ArtNodeHeader header;
  uint64_t children[256];
};

inline ArtNodeHeader* ArtHeader(uint64_t e) {
  return reinterpret_cast<ArtNodeHeader*>(static_cast<uintptr_t>(e));
}

inline uint64_t ArtMakeNode(ArtNodeHeader* n) {
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(n));
}

inline size_t ArtNodeBytes(ArtNodeType t) {
  switch (t) {
    case ArtNodeType::kNode4:
      return sizeof(ArtNode4);
    case ArtNodeType::kNode16:
      return sizeof(ArtNode16);
    case ArtNodeType::kNode48:
      return sizeof(ArtNode48);
    case ArtNodeType::kNode256:
      return sizeof(ArtNode256);
  }
  return 0;
}

inline ArtNodeHeader* ArtAllocNode(CountingAllocator& alloc, ArtNodeType t) {
  size_t bytes = ArtNodeBytes(t);
  void* mem = alloc.AllocateAligned(bytes, 8);
  std::memset(mem, 0, bytes);
  auto* h = static_cast<ArtNodeHeader*>(mem);
  h->type = t;
  if (t == ArtNodeType::kNode48) {
    std::memset(reinterpret_cast<ArtNode48*>(h)->child_index,
                ArtNode48::kEmptySlot, 256);
  }
  return h;
}

inline void ArtFreeNode(CountingAllocator& alloc, ArtNodeHeader* n) {
  alloc.FreeAligned(n, ArtNodeBytes(n->type), 8);
}

// --- child access -----------------------------------------------------------

// Returns the slot for byte `c`, or nullptr.
inline uint64_t* ArtFindChild(ArtNodeHeader* n, uint8_t c) {
  switch (n->type) {
    case ArtNodeType::kNode4: {
      auto* node = reinterpret_cast<ArtNode4*>(n);
      for (unsigned i = 0; i < n->num_children; ++i) {
        if (node->keys[i] == c) return &node->children[i];
      }
      return nullptr;
    }
    case ArtNodeType::kNode16: {
      auto* node = reinterpret_cast<ArtNode16*>(n);
      uint32_t matches = FindByteMatches16(node->keys, c) &
                         ((1u << n->num_children) - 1);
      if (matches == 0) return nullptr;
      return &node->children[BitScanForward32(matches)];
    }
    case ArtNodeType::kNode48: {
      auto* node = reinterpret_cast<ArtNode48*>(n);
      uint8_t idx = node->child_index[c];
      return idx == ArtNode48::kEmptySlot ? nullptr : &node->children[idx];
    }
    case ArtNodeType::kNode256: {
      auto* node = reinterpret_cast<ArtNode256*>(n);
      return node->children[c] == ArtEntry::kEmpty ? nullptr
                                                   : &node->children[c];
    }
  }
  return nullptr;
}

inline bool ArtIsFull(const ArtNodeHeader* n) {
  switch (n->type) {
    case ArtNodeType::kNode4:
      return n->num_children == 4;
    case ArtNodeType::kNode16:
      return n->num_children == 16;
    case ArtNodeType::kNode48:
      return n->num_children == 48;
    case ArtNodeType::kNode256:
      return false;
  }
  return false;
}

// Adds child `c` to a non-full node (sorted order for Node4/16).
inline void ArtAddChild(ArtNodeHeader* n, uint8_t c, uint64_t child) {
  switch (n->type) {
    case ArtNodeType::kNode4: {
      auto* node = reinterpret_cast<ArtNode4*>(n);
      unsigned i = 0;
      while (i < n->num_children && node->keys[i] < c) ++i;
      std::memmove(node->keys + i + 1, node->keys + i, n->num_children - i);
      std::memmove(node->children + i + 1, node->children + i,
                   (n->num_children - i) * sizeof(uint64_t));
      node->keys[i] = c;
      node->children[i] = child;
      ++n->num_children;
      return;
    }
    case ArtNodeType::kNode16: {
      auto* node = reinterpret_cast<ArtNode16*>(n);
      unsigned i = Popcount32(FindByteLess16(node->keys, c) &
                              ((1u << n->num_children) - 1));
      std::memmove(node->keys + i + 1, node->keys + i, n->num_children - i);
      std::memmove(node->children + i + 1, node->children + i,
                   (n->num_children - i) * sizeof(uint64_t));
      node->keys[i] = c;
      node->children[i] = child;
      ++n->num_children;
      return;
    }
    case ArtNodeType::kNode48: {
      auto* node = reinterpret_cast<ArtNode48*>(n);
      unsigned slot = n->num_children;
      node->child_index[c] = static_cast<uint8_t>(slot);
      node->children[slot] = child;
      ++n->num_children;
      return;
    }
    case ArtNodeType::kNode256: {
      auto* node = reinterpret_cast<ArtNode256*>(n);
      node->children[c] = child;
      n->num_children16++;
      return;
    }
  }
}

// Grows a full node into the next larger layout; returns the new node.
// The old node is freed.
inline ArtNodeHeader* ArtGrow(CountingAllocator& alloc, ArtNodeHeader* n) {
  switch (n->type) {
    case ArtNodeType::kNode4: {
      auto* old_node = reinterpret_cast<ArtNode4*>(n);
      auto* bigger =
          reinterpret_cast<ArtNode16*>(ArtAllocNode(alloc, ArtNodeType::kNode16));
      bigger->header.prefix_len = n->prefix_len;
      std::memcpy(bigger->header.prefix, n->prefix, kArtMaxPrefix);
      bigger->header.num_children = n->num_children;
      std::memcpy(bigger->keys, old_node->keys, 4);
      std::memcpy(bigger->children, old_node->children, 4 * sizeof(uint64_t));
      ArtFreeNode(alloc, n);
      return &bigger->header;
    }
    case ArtNodeType::kNode16: {
      auto* old_node = reinterpret_cast<ArtNode16*>(n);
      auto* bigger =
          reinterpret_cast<ArtNode48*>(ArtAllocNode(alloc, ArtNodeType::kNode48));
      bigger->header.prefix_len = n->prefix_len;
      std::memcpy(bigger->header.prefix, n->prefix, kArtMaxPrefix);
      bigger->header.num_children = n->num_children;
      for (unsigned i = 0; i < 16; ++i) {
        bigger->child_index[old_node->keys[i]] = static_cast<uint8_t>(i);
        bigger->children[i] = old_node->children[i];
      }
      ArtFreeNode(alloc, n);
      return &bigger->header;
    }
    case ArtNodeType::kNode48: {
      auto* old_node = reinterpret_cast<ArtNode48*>(n);
      auto* bigger = reinterpret_cast<ArtNode256*>(
          ArtAllocNode(alloc, ArtNodeType::kNode256));
      bigger->header.prefix_len = n->prefix_len;
      std::memcpy(bigger->header.prefix, n->prefix, kArtMaxPrefix);
      unsigned moved = 0;
      for (unsigned c = 0; c < 256; ++c) {
        uint8_t idx = old_node->child_index[c];
        if (idx != ArtNode48::kEmptySlot) {
          bigger->children[c] = old_node->children[idx];
          ++moved;
        }
      }
      bigger->header.num_children16 = static_cast<uint16_t>(moved);
      ArtFreeNode(alloc, n);
      return &bigger->header;
    }
    case ArtNodeType::kNode256:
      return n;  // never full
  }
  return n;
}

// Removes the child for byte `c`; caller guarantees presence.
inline void ArtRemoveChild(ArtNodeHeader* n, uint8_t c) {
  switch (n->type) {
    case ArtNodeType::kNode4: {
      auto* node = reinterpret_cast<ArtNode4*>(n);
      unsigned i = 0;
      while (node->keys[i] != c) ++i;
      std::memmove(node->keys + i, node->keys + i + 1,
                   n->num_children - i - 1);
      std::memmove(node->children + i, node->children + i + 1,
                   (n->num_children - i - 1) * sizeof(uint64_t));
      --n->num_children;
      return;
    }
    case ArtNodeType::kNode16: {
      auto* node = reinterpret_cast<ArtNode16*>(n);
      uint32_t matches = FindByteMatches16(node->keys, c) &
                         ((1u << n->num_children) - 1);
      unsigned i = BitScanForward32(matches);
      std::memmove(node->keys + i, node->keys + i + 1,
                   n->num_children - i - 1);
      std::memmove(node->children + i, node->children + i + 1,
                   (n->num_children - i - 1) * sizeof(uint64_t));
      --n->num_children;
      return;
    }
    case ArtNodeType::kNode48: {
      auto* node = reinterpret_cast<ArtNode48*>(n);
      uint8_t slot = node->child_index[c];
      node->child_index[c] = ArtNode48::kEmptySlot;
      // Move the last slot into the vacated one to keep slots dense.
      unsigned last = n->num_children - 1;
      if (slot != last) {
        node->children[slot] = node->children[last];
        for (unsigned b = 0; b < 256; ++b) {
          if (node->child_index[b] == last) {
            node->child_index[b] = slot;
            break;
          }
        }
      }
      node->children[last] = ArtEntry::kEmpty;
      --n->num_children;
      return;
    }
    case ArtNodeType::kNode256: {
      auto* node = reinterpret_cast<ArtNode256*>(n);
      node->children[c] = ArtEntry::kEmpty;
      n->num_children16--;
      return;
    }
  }
}

// Shrinks an under-full node into the next smaller layout (Node4 callers
// handle the 1-child collapse separately).  Returns the (possibly new) node.
inline ArtNodeHeader* ArtMaybeShrink(CountingAllocator& alloc,
                                     ArtNodeHeader* n) {
  switch (n->type) {
    case ArtNodeType::kNode4:
      return n;
    case ArtNodeType::kNode16: {
      if (n->num_children > 3) return n;
      auto* old_node = reinterpret_cast<ArtNode16*>(n);
      auto* smaller =
          reinterpret_cast<ArtNode4*>(ArtAllocNode(alloc, ArtNodeType::kNode4));
      smaller->header.prefix_len = n->prefix_len;
      std::memcpy(smaller->header.prefix, n->prefix, kArtMaxPrefix);
      smaller->header.num_children = n->num_children;
      std::memcpy(smaller->keys, old_node->keys, n->num_children);
      std::memcpy(smaller->children, old_node->children,
                  n->num_children * sizeof(uint64_t));
      ArtFreeNode(alloc, n);
      return &smaller->header;
    }
    case ArtNodeType::kNode48: {
      if (n->num_children > 12) return n;
      auto* old_node = reinterpret_cast<ArtNode48*>(n);
      auto* smaller = reinterpret_cast<ArtNode16*>(
          ArtAllocNode(alloc, ArtNodeType::kNode16));
      smaller->header.prefix_len = n->prefix_len;
      std::memcpy(smaller->header.prefix, n->prefix, kArtMaxPrefix);
      unsigned j = 0;
      for (unsigned c = 0; c < 256; ++c) {
        uint8_t idx = old_node->child_index[c];
        if (idx != ArtNode48::kEmptySlot) {
          smaller->keys[j] = static_cast<uint8_t>(c);
          smaller->children[j] = old_node->children[idx];
          ++j;
        }
      }
      smaller->header.num_children = static_cast<uint8_t>(j);
      ArtFreeNode(alloc, n);
      return &smaller->header;
    }
    case ArtNodeType::kNode256: {
      if (n->num_children16 > 40) return n;
      auto* old_node = reinterpret_cast<ArtNode256*>(n);
      auto* smaller = reinterpret_cast<ArtNode48*>(
          ArtAllocNode(alloc, ArtNodeType::kNode48));
      smaller->header.prefix_len = n->prefix_len;
      std::memcpy(smaller->header.prefix, n->prefix, kArtMaxPrefix);
      unsigned j = 0;
      for (unsigned c = 0; c < 256; ++c) {
        if (old_node->children[c] != ArtEntry::kEmpty) {
          smaller->child_index[c] = static_cast<uint8_t>(j);
          smaller->children[j] = old_node->children[c];
          ++j;
        }
      }
      smaller->header.num_children = static_cast<uint8_t>(j);
      ArtFreeNode(alloc, n);
      return &smaller->header;
    }
  }
  return n;
}

// Visits children in ascending byte order.  fn(byte, entry) returns false to
// stop; the function returns false if stopped.
template <typename Fn>
bool ArtForEachChild(ArtNodeHeader* n, Fn&& fn) {
  switch (n->type) {
    case ArtNodeType::kNode4: {
      auto* node = reinterpret_cast<ArtNode4*>(n);
      for (unsigned i = 0; i < n->num_children; ++i) {
        if (!fn(node->keys[i], node->children[i])) return false;
      }
      return true;
    }
    case ArtNodeType::kNode16: {
      auto* node = reinterpret_cast<ArtNode16*>(n);
      for (unsigned i = 0; i < n->num_children; ++i) {
        if (!fn(node->keys[i], node->children[i])) return false;
      }
      return true;
    }
    case ArtNodeType::kNode48: {
      auto* node = reinterpret_cast<ArtNode48*>(n);
      for (unsigned c = 0; c < 256; ++c) {
        uint8_t idx = node->child_index[c];
        if (idx != ArtNode48::kEmptySlot) {
          if (!fn(static_cast<uint8_t>(c), node->children[idx])) return false;
        }
      }
      return true;
    }
    case ArtNodeType::kNode256: {
      auto* node = reinterpret_cast<ArtNode256*>(n);
      for (unsigned c = 0; c < 256; ++c) {
        if (node->children[c] != ArtEntry::kEmpty) {
          if (!fn(static_cast<uint8_t>(c), node->children[c])) return false;
        }
      }
      return true;
    }
  }
  return true;
}

// First child entry with byte >= c, or kEmpty.  *out_byte receives the byte.
inline uint64_t ArtLowerBoundChild(ArtNodeHeader* n, unsigned c,
                                   unsigned* out_byte) {
  uint64_t found = ArtEntry::kEmpty;
  ArtForEachChild(n, [&](uint8_t byte, uint64_t entry) {
    if (byte >= c) {
      found = entry;
      *out_byte = byte;
      return false;
    }
    return true;
  });
  return found;
}

}  // namespace art
}  // namespace hot

#endif  // HOT_ART_ART_NODE_H_

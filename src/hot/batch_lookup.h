// Memory-level-parallel batched trie descent (AMAC / group prefetching).
//
// A HOT point lookup is a pointer-chasing loop: one dependent cache miss
// per trie level.  The §4.5 prefetch hides latency *within* a node (the
// tagged pointer is decoded while the node's lines stream in) but between
// keys the misses still serialize.  This driver interleaves up to
// kMaxBatchWidth independent descents as tiny state machines — (current
// tagged entry, key index) — and round-robins over them: the sized
// PrefetchNode for probe i's next node is issued as soon as its child
// entry is known, then the driver does the SIMD partial-key search for the
// *other* in-flight probes before touching probe i's node again.  By the
// time the round robin returns, the lines are (ideally) in L1 and the DRAM
// misses of a whole group overlap instead of queuing one behind another.
//
// BatchDescend serves both the single-threaded HotTrie and the
// ROWEX-synchronized RowexHotTrie (under one epoch guard per batch); both
// reach it through LookupBatchBelow (hot/trie.h).
//
// Width: 8–16 probes saturate the line-fill buffers of current x86 cores
// (10–16 outstanding L1 misses); beyond that the probe state and the
// round-robin bookkeeping start competing with the payloads.  12 is a
// robust middle; bench/ablation_batch.cc sweeps 1..32.

#ifndef HOT_HOT_BATCH_LOOKUP_H_
#define HOT_HOT_BATCH_LOOKUP_H_

#include <atomic>
#include <cstdint>

#include "common/key.h"
#include "hot/node.h"
#include "hot/node_search.h"

namespace hot {

inline constexpr unsigned kDefaultBatchWidth = 12;
inline constexpr unsigned kMaxBatchWidth = 32;

// Reads a 64-bit child slot (or the root slot).  Every descent of both
// tries reads slots through this one acquire load: RowexHotTrie's
// wait-free readers need it, and on x86-64, the only target (the build
// requires AVX2 and BMI2), it compiles to the same plain load as a
// non-atomic read, so HotTrie pays nothing for it.
inline uint64_t LoadSlot(const uint64_t* slot) {
  // atomic_ref<const T> arrives only in C++26; the slot is never const.
  return std::atomic_ref<uint64_t>(*const_cast<uint64_t*>(slot))
      .load(std::memory_order_acquire);
}

// Descends every `keys[i]` from `root` to its terminal entry (tid or
// empty), keeping up to `width` probes in flight; results land in
// terminal[i].  `root` must be a node entry (callers handle empty/tid
// roots, which need no traversal).
inline void BatchDescend(uint64_t root, const KeyRef* keys, size_t n,
                         uint64_t* terminal, unsigned width) {
  assert(HotEntry::IsNode(root));
  if (n == 0) return;
  if (width == 0) width = kDefaultBatchWidth;
  if (width > kMaxBatchWidth) width = kMaxBatchWidth;

  struct Probe {
    uint64_t entry;    // current node entry (always a node, never terminal)
    uint32_t key_idx;  // index into keys/terminal
  };
  Probe probes[kMaxBatchWidth];
  unsigned active = 0;
  size_t next = 0;

  PrefetchNode(root);  // shared first level: one prefetch serves everyone
  while (active < width && next < n) {
    probes[active++] = {root, static_cast<uint32_t>(next++)};
  }

  while (active > 0) {
    for (unsigned s = 0; s < active;) {
      Probe& pr = probes[s];
      NodeRef node = NodeRef::FromEntry(pr.entry);
      unsigned idx = SearchNode(node, keys[pr.key_idx]);
      uint64_t child = LoadSlot(&node.values()[idx]);
      if (HotEntry::IsNode(child)) {
        // Issue the prefetch now; the child's lines load while the driver
        // services the other in-flight probes.
        PrefetchNode(child);
        pr.entry = child;
        ++s;
      } else {
        terminal[pr.key_idx] = child;
        if (next < n) {
          // Refill from the pending keys; the root is hot by now.
          pr = {root, static_cast<uint32_t>(next++)};
          ++s;
        } else {
          probes[s] = probes[--active];  // drain: retire this probe slot
        }
      }
    }
  }
}

}  // namespace hot

#endif  // HOT_HOT_BATCH_LOOKUP_H_

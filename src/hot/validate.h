// Structural validation for HOT trees (test/debug support).
//
// Self-contained free functions over a tree's root entry, so both the
// single-threaded HotTrie and the ROWEX-synchronized RowexHotTrie can share
// one checker.  Quiescent-only: the walk reads value slots with plain loads,
// so no writer may run concurrently (the stress tests call this at round
// barriers).
//
// Checks, for every compound node:
//   * k-constraint: 2 <= count <= 32, 1 <= num_bits <= min(31, count-1)
//   * discriminative bits strictly ascending and *minimal*: every bit is
//     used by some BiNode (union of sparse keys == all ranks, intersection
//     == 0 — see RecomputeBits)
//   * sparse partial keys strictly increasing with sparse[0] == 0
//   * the physical layout is the smallest of the nine (ChooseNodeType)
//   * heights (ranks) strictly decrease parent -> child; height-1 nodes
//     hold only tuple identifiers
//   * functional search correctness: for the leftmost and rightmost key
//     below each entry, the node-local search returns exactly that entry
//     (exercises masks, extraction and comply semantics)
// and globally that in-order traversal yields strictly ascending keys whose
// count equals the expected size.

#ifndef HOT_HOT_VALIDATE_H_
#define HOT_HOT_VALIDATE_H_

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "common/extractors.h"
#include "common/key.h"
#include "hot/logical_node.h"
#include "hot/node.h"
#include "hot/node_search.h"

namespace hot {
namespace detail {

inline uint64_t EdgeLeaf(uint64_t entry, bool leftmost) {
  while (HotEntry::IsNode(entry)) {
    NodeRef node = NodeRef::FromEntry(entry);
    entry = node.values()[leftmost ? 0 : node.count() - 1];
  }
  return entry;
}

// Recursively checks that sparse[l..r] encode a well-formed binary Patricia
// trie: each subtree has a root BiNode (its first non-constant rank), no
// constant-1 bits below it (stale turns at vanished BiNodes), and both
// children are non-empty and themselves well-formed.
inline bool CheckLocalTrie(const LogicalNode& ln, unsigned l, unsigned r,
                           std::string* error) {
  if (l == r) return true;
  uint32_t uni = 0, inter = ~0u;
  for (unsigned i = l; i <= r; ++i) {
    uni |= ln.sparse[i];
    inter &= ln.sparse[i];
  }
  uint32_t diff = uni & ~inter;
  if (diff == 0) {
    *error = "subtree entries share identical sparse keys";
    return false;
  }
  unsigned root_rank = static_cast<unsigned>(std::countl_zero(diff));
  // Bits common to the whole subtree below its root BiNode would be turns
  // at BiNodes that cannot lie on a shared path: stale state.
  uint32_t below_mask = root_rank + 1 >= 32 ? 0u : (~0u >> (root_rank + 1));
  if ((inter & below_mask) != 0) {
    *error = "stale shared 1-bit below subtree root BiNode";
    return false;
  }
  uint32_t root_bit = LogicalNode::RankBit(root_rank);
  unsigned m = l;
  while (m <= r && (ln.sparse[m] & root_bit) == 0) ++m;
  if (m == l || m > r) {
    *error = "subtree root BiNode lacks a 0- or 1-side";
    return false;
  }
  for (unsigned i = m; i <= r; ++i) {
    if ((ln.sparse[i] & root_bit) == 0) {
      *error = "subtree sides not contiguous";
      return false;
    }
  }
  return CheckLocalTrie(ln, l, m - 1, error) &&
         CheckLocalTrie(ln, m, r, error);
}

}  // namespace detail

// Per-node structural check.  `extractor` maps a tid payload to its KeyRef
// (same contract as the tries' KeyExtractor template parameter).
template <typename KeyExtractor>
bool ValidateHotNode(NodeRef node, const KeyExtractor& extractor,
                     std::string* error) {
  std::ostringstream oss;
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  LogicalNode ln = Decode(node);
  if (ln.count < 2 || ln.count > kMaxFanout) {
    oss << "node count " << ln.count << " out of [2,32]";
    return fail(oss.str());
  }
  if (ln.num_bits < 1 || ln.num_bits > kMaxDiscBits ||
      ln.num_bits > ln.count - 1) {
    oss << "num_bits " << ln.num_bits << " invalid for count " << ln.count;
    return fail(oss.str());
  }
  for (unsigned i = 1; i < ln.num_bits; ++i) {
    if (ln.bits[i] <= ln.bits[i - 1]) return fail("bits not ascending");
  }
  if (node.type() != ChooseNodeType(ln.bits, ln.num_bits)) {
    return fail("node layout is not the minimal one");
  }
  uint32_t uni = 0, inter = ~0u, all_ranks = ~0u << (32 - ln.num_bits);
  if (ln.sparse[0] != 0) return fail("sparse[0] != 0");
  for (unsigned i = 0; i < ln.count; ++i) {
    uni |= ln.sparse[i];
    inter &= ln.sparse[i];
    if (i > 0 && ln.sparse[i] <= ln.sparse[i - 1]) {
      return fail("sparse keys not strictly increasing");
    }
    if ((ln.sparse[i] & ~all_ranks) != 0) {
      return fail("sparse key uses bits beyond num_bits");
    }
  }
  if (uni != all_ranks) return fail("unused discriminative bit present");
  if (inter != 0) return fail("non-discriminative shared bit present");
  {
    std::string local_err;
    if (!detail::CheckLocalTrie(ln, 0, ln.count - 1, &local_err)) {
      return fail("local trie malformed: " + local_err);
    }
  }

  for (unsigned i = 0; i < ln.count; ++i) {
    uint64_t e = ln.entries[i];
    if (HotEntry::IsEmpty(e)) return fail("empty entry slot");
    if (HotEntry::IsNode(e)) {
      NodeRef child = NodeRef::FromEntry(e);
      if (node.height() == 1) return fail("height-1 node has a child node");
      if (child.height() >= node.height()) {
        oss << "child height " << child.height() << " >= parent "
            << node.height();
        return fail(oss.str());
      }
      // The child's root BiNode must lie strictly below every BiNode on the
      // path to this entry; the node's own root BiNode (bits[0]) is on every
      // path, so this is a necessary condition.  (The functional search
      // check below is the authoritative structural test.)
      if (RootDiscBit(child) <= ln.bits[0]) {
        return fail("child root bit not below parent's root bit");
      }
    }
    // Functional check: node-local search must route the extreme keys of
    // this entry's subtree back to this entry.
    for (bool leftmost : {true, false}) {
      uint64_t leaf = detail::EdgeLeaf(e, leftmost);
      KeyScratch scratch;
      KeyRef key = extractor(HotEntry::TidPayload(leaf), scratch);
      unsigned got = SearchNodeScalar(node, key);
      unsigned got_simd = SearchNode(node, key);
      if (got != i || got_simd != i) {
        oss << "search misroutes subtree key: entry " << i << " got scalar "
            << got << " simd " << got_simd;
        return fail(oss.str());
      }
    }
  }
  return true;
}

// Whole-tree check over a quiescent snapshot rooted at `root_entry`: every
// node passes ValidateHotNode, in-order leaves are strictly ascending, and
// the leaf count equals `expected_size`.
template <typename KeyExtractor>
bool ValidateHotTree(uint64_t root_entry, const KeyExtractor& extractor,
                     size_t expected_size, std::string* error) {
  bool ok = true;
  std::string err;
  auto walk_nodes = [&](auto&& self, uint64_t entry) -> void {
    if (!ok || !HotEntry::IsNode(entry)) return;
    NodeRef node = NodeRef::FromEntry(entry);
    if (!ValidateHotNode(node, extractor, &err)) {
      ok = false;
      return;
    }
    for (unsigned i = 0; i < node.count() && ok; ++i) {
      self(self, node.values()[i]);
    }
  };
  walk_nodes(walk_nodes, root_entry);
  if (!ok) {
    if (error != nullptr) *error = err;
    return false;
  }

  size_t seen = 0;
  bool have_prev = false;
  std::string prev_key;
  auto walk_leaves = [&](auto&& self, uint64_t entry) -> void {
    if (!ok || HotEntry::IsEmpty(entry)) return;
    if (HotEntry::IsTid(entry)) {
      ++seen;
      KeyScratch scratch;
      KeyRef key = extractor(HotEntry::TidPayload(entry), scratch);
      std::string cur(reinterpret_cast<const char*>(key.data()), key.size());
      if (have_prev && !(prev_key < cur)) {
        err = "in-order traversal not strictly ascending";
        ok = false;
      }
      prev_key = std::move(cur);
      have_prev = true;
      return;
    }
    NodeRef node = NodeRef::FromEntry(entry);
    for (unsigned i = 0; i < node.count() && ok; ++i) {
      self(self, node.values()[i]);
    }
  };
  walk_leaves(walk_leaves, root_entry);
  if (ok && seen != expected_size) {
    std::ostringstream oss;
    oss << "leaf count " << seen << " != size " << expected_size;
    err = oss.str();
    ok = false;
  }
  if (!ok && error != nullptr) *error = err;
  return ok;
}

}  // namespace hot

#endif  // HOT_HOT_VALIDATE_H_

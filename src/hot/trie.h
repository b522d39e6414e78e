// HOT — the Height Optimized Trie, single-threaded variant (paper §3, §4).
//
// The tree is a hierarchy of compound nodes, each a linearized k-constrained
// binary Patricia trie (k = 32).  The root slot, like every entry slot, is a
// tagged 64-bit word: empty, a tuple identifier, or a node pointer.
//
// Insertion implements the four structure-adapting cases of §3.2:
//   * normal insert             — add one BiNode to the covering node,
//   * leaf-node pushdown        — replace a tid entry of an inner node by a
//                                 fresh height-1 node,
//   * parent pull-up            — on overflow, move the severed root BiNode
//                                 into the parent (recursing upward; a full
//                                 root grows a new root, the only operation
//                                 that increases the tree height),
//   * intermediate node creation— on overflow with head room, move the
//                                 severed root BiNode into a new node.
//
// Node heights follow the paper's §3.1 definition (1 + max height of
// compound children) and are recomputed exactly wherever nodes are created:
// leaf-pushdown nodes have height 1, split halves and intermediate/root
// nodes compute 1 + max over their children.  Heights strictly decrease from
// parent to child, bounding the tree depth by the root height.  A stored
// height may over-estimate the true subtree height after deletions (heights
// are not shrunk), which only makes overflow handling slightly more
// conservative.

#ifndef HOT_HOT_TRIE_H_
#define HOT_HOT_TRIE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/alloc.h"
#include "common/extractors.h"
#include "common/key.h"
#include "hot/batch_lookup.h"
#include "hot/bulk_load.h"
#include "hot/fast_insert.h"
#include "hot/logical_node.h"
#include "hot/node_pool.h"
#include "hot/node.h"
#include "hot/node_search.h"

namespace hot {

template <typename KeyExtractor>
class HotTrie {
 public:
  explicit HotTrie(KeyExtractor extractor = KeyExtractor(),
                   MemoryCounter* counter = nullptr)
      : extractor_(extractor), alloc_(counter), root_(HotEntry::kEmpty) {}

  ~HotTrie() { Clear(); }

  HotTrie(const HotTrie&) = delete;
  HotTrie& operator=(const HotTrie&) = delete;

  // --- mutations -------------------------------------------------------------

  // Inserts `value` (63-bit payload) under its extracted key.  Returns false
  // if the key is already present; the stored value is left unchanged.
  bool Insert(uint64_t value);

  // Inserts or overwrites.  Returns the previous value if one existed.
  std::optional<uint64_t> Upsert(uint64_t value);

  // Bulk-builds a height-optimized trie from values sorted ascending by
  // extracted key and duplicate-free (hot/bulk_load.h); duplicates are
  // rejected with std::invalid_argument.  The trie must be empty.
  // Guarantees height <= ceil(log_32 n) + 1 for any distribution (usually
  // exactly ceil) and maximally filled nodes — including the monotone
  // orders that degrade incremental insertion.
  //
  // With threads > 1 the input is partitioned at BiNode-consistent cuts and
  // the subtrie pieces are built on worker threads through disjoint node-
  // pool stripes, then grafted serially — same logical structure (nodes,
  // heights, key→value map) as the single-threaded build.
  void BulkLoad(const uint64_t* values, size_t n, unsigned threads = 1) {
    assert(empty() && "BulkLoad requires an empty trie");
    root_ = detail::ParallelBulkBuild(extractor_, values, n, alloc_, threads);
    size_ = n;
  }
  void BulkLoad(const std::vector<uint64_t>& values, unsigned threads = 1) {
    BulkLoad(values.data(), values.size(), threads);
  }

  // Removes the entry for `key`.  Returns false if absent.
  bool Remove(KeyRef key);

  // --- queries ---------------------------------------------------------------

  std::optional<uint64_t> Lookup(KeyRef key) const;

  // Batched point lookups with memory-level parallelism (batch_lookup.h):
  // out[i] = Lookup(keys[i]), bit-identical.  Up to `width` descents stay
  // in flight so their DRAM misses overlap; out must be at least as long
  // as keys.
  void LookupBatch(std::span<const KeyRef> keys,
                   std::span<std::optional<uint64_t>> out,
                   unsigned width = kDefaultBatchWidth) const;

  // Ordered iteration.  An Iterator is valid() while it points at an entry.
  class Iterator;
  Iterator Begin() const;
  // Iterator at the maximum key (for descending iteration via Prev()).
  Iterator Last() const;
  // First entry with key >= `key`.
  Iterator LowerBound(KeyRef key) const;
  // Batched LowerBound: out[i] = LowerBound(keys[i]).  The blind descents
  // — the cache-miss-dominated phase — run interleaved; repositioning then
  // walks the just-touched (cache-hot) path per key.
  void LowerBoundBatch(std::span<const KeyRef> keys, Iterator* out,
                       unsigned width = kDefaultBatchWidth) const;
  // First entry with key > `key`.
  Iterator UpperBound(KeyRef key) const;

  // Visits up to `limit` values with key >= `start` in key order; returns
  // the number visited (YCSB workload E short range scans).
  template <typename Fn>
  size_t ScanFrom(KeyRef start, size_t limit, Fn&& fn) const;

  // Visits up to `limit` values with key <= `start` in DESCENDING key
  // order (ORDER BY ... DESC paging).
  template <typename Fn>
  size_t ScanReverseFrom(KeyRef start, size_t limit, Fn&& fn) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear();

  // --- introspection (stats & validation) ------------------------------------

  // Visits every compound node with its depth (root nodes have depth 1).
  void ForEachNode(const std::function<void(NodeRef, unsigned depth)>& fn)
      const;
  // Visits every stored value with the number of compound nodes on its path
  // (the Fig. 11 leaf-depth metric).
  void ForEachLeaf(
      const std::function<void(unsigned depth, uint64_t value)>& fn) const;

  // Checks every structural invariant; returns true and clears *error on
  // success.  Expensive — test/debug use.
  bool Validate(std::string* error) const;

  const KeyExtractor& extractor() const { return extractor_; }
  MemoryCounter* counter() const { return alloc_.counter(); }
  NodePool::Stats pool_stats() const { return alloc_.stats(); }
  uint64_t root_entry() const { return root_; }

 private:
  struct PathLevel {
    NodeRef node;
    unsigned idx;
  };

  KeyRef ExtractKey(uint64_t tagged_entry, KeyScratch& scratch) const {
    return extractor_(HotEntry::TidPayload(tagged_entry), scratch);
  }

  // Final verification of a terminal entry against the search key (Listing
  // 2 line 7); shared by scalar and batched lookups.
  std::optional<uint64_t> VerifyTerminal(uint64_t entry, KeyRef key) const {
    if (HotEntry::IsEmpty(entry)) return std::nullopt;
    KeyScratch scratch;
    if (ExtractKey(entry, scratch) == key) return HotEntry::TidPayload(entry);
    return std::nullopt;
  }

  // Repositions `it` — holding the blind-descent path for `key` with
  // terminal entry `cur` — at the first entry >= key (paper §3.1: the
  // mismatching BiNode orders the whole affected subtree on one bit).
  void RepositionLowerBound(Iterator& it, KeyRef key, uint64_t cur) const;

  // Stores `entry` into the slot that pointed at path[level]'s node:
  // the parent's value slot, or the root.
  void ReplaceChild(PathLevel* path, unsigned level, uint64_t entry) {
    if (level == 0) {
      root_ = entry;
    } else {
      path[level - 1].node.values()[path[level - 1].idx] = entry;
    }
  }

  // Resolves overflow by parent pull-up / intermediate node creation /
  // root growth (§3.2).  `ln` holds kMaxFanout+1 entries belonging to the
  // node at path[level], which is consumed (freed).
  void HandleOverflow(PathLevel* path, unsigned level, LogicalNode& ln);

  uint64_t EncodeEntry(const LogicalNode& ln) {
    return Encode(ln, alloc_).ToEntry();
  }

  // Encodes a split half: a single-entry half collapses to its entry.
  uint64_t EncodeHalf(LogicalNode& half) {
    return half.count == 1 ? half.entries[0] : EncodeEntry(half);
  }

  void FreeSubtree(uint64_t entry);

  KeyExtractor extractor_;
  mutable NodePool alloc_;
  uint64_t root_;
  size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

template <typename KeyExtractor>
bool HotTrie<KeyExtractor>::Insert(uint64_t value) {
  KeyScratch scratch;
  KeyRef key = extractor_(value, scratch);
  // Real checks, not asserts: violating either corrupts the node layouts
  // (8-bit byte offsets / 63-bit tid payloads), which must not depend on
  // the build type.
  if (key.size() > kMaxKeyBytes) {
    throw std::invalid_argument("HotTrie: keys longer than 256 bytes");
  }
  if ((value >> 63) != 0) {
    throw std::invalid_argument("HotTrie: values must be 63-bit payloads");
  }

  if (HotEntry::IsEmpty(root_)) {
    root_ = HotEntry::MakeTid(value);
    ++size_;
    return true;
  }

  if (HotEntry::IsTid(root_)) {
    KeyScratch existing_scratch;
    KeyRef existing = ExtractKey(root_, existing_scratch);
    size_t p = FirstMismatchBit(key, existing);
    if (p == kNoMismatch) return false;
    uint64_t tid = HotEntry::MakeTid(value);
    LogicalNode two = key.Bit(p) ? MakeTwoEntryNode(p, root_, tid, 1)
                                 : MakeTwoEntryNode(p, tid, root_, 1);
    root_ = EncodeEntry(two);
    ++size_;
    return true;
  }

  // Traverse to the candidate leaf, recording the search path.
  PathLevel path[kMaxDepth];
  unsigned depth = 0;
  uint64_t cur = root_;
  while (HotEntry::IsNode(cur)) {
    PrefetchNode(cur);
    NodeRef node = NodeRef::FromEntry(cur);
    unsigned idx = SearchNode(node, key);
    path[depth++] = {node, idx};
    cur = node.values()[idx];
  }

  KeyScratch existing_scratch;
  KeyRef existing = ExtractKey(cur, existing_scratch);
  size_t p = FirstMismatchBit(key, existing);
  if (p == kNoMismatch) return false;
  unsigned key_bit = key.Bit(p);
  uint64_t tid = HotEntry::MakeTid(value);

  // The covering node: the deepest node on the path whose root BiNode bit is
  // <= p (root bits strictly increase along the path).  If even the tree
  // root's bit exceeds p, the new BiNode becomes the root node's new root
  // BiNode — handled by the same normal-insert code (all entries affected).
  unsigned target = depth - 1;
  while (target > 0 && RootDiscBit(path[target].node) > p) --target;

  NodeRef tnode = path[target].node;
  PhysicalInsertInfo info;
  PhysicalBitRank(tnode, static_cast<unsigned>(p), &info.rank, &info.exists);
  PhysicalAffectedRange(tnode, path[target].idx, info.rank, &info.first,
                        &info.last);

  if (info.first == info.last &&
      HotEntry::IsTid(tnode.values()[info.first]) && tnode.height() > 1) {
    // Leaf-node pushdown: the mismatching BiNode is a single tid entry of an
    // inner node; grow downward without touching this node's BiNodes.
    uint64_t old_leaf = tnode.values()[info.first];
    LogicalNode two = key_bit ? MakeTwoEntryNode(p, old_leaf, tid, 1)
                              : MakeTwoEntryNode(p, tid, old_leaf, 1);
    tnode.values()[info.first] = EncodeEntry(two);
    ++size_;
    return true;
  }

  // Common case (§4.4): splice the entry directly into the physical layout.
  uint64_t fast = TryPhysicalInsert(tnode, info, static_cast<unsigned>(p),
                                    key_bit, tid, alloc_);
  if (fast != HotEntry::kEmpty) {
    ReplaceChild(path, target, fast);
    FreeNode(alloc_, tnode);
    ++size_;
    return true;
  }

  // General path: layout change or overflow.
  LogicalNode ln = Decode(tnode);
  LogicalInsert(ln, path[target].idx, static_cast<unsigned>(p), key_bit, tid);
  if (ln.count <= kMaxFanout) {
    uint64_t replacement = EncodeEntry(ln);
    ReplaceChild(path, target, replacement);
    FreeNode(alloc_, tnode);
  } else {
    HandleOverflow(path, target, ln);
  }
  ++size_;
  return true;
}

template <typename KeyExtractor>
void HotTrie<KeyExtractor>::HandleOverflow(PathLevel* path, unsigned level,
                                           LogicalNode& ln) {
  for (;;) {
    SplitResult split = Split(ln);
    uint64_t left_entry = EncodeHalf(split.left);
    uint64_t right_entry = EncodeHalf(split.right);
    NodeRef overflowed = path[level].node;

    if (level == 0) {
      // Root overflow: grow a new root — the only height-increasing case.
      unsigned h = 1 + std::max(EntryHeight(left_entry),
                                EntryHeight(right_entry));
      LogicalNode new_root =
          MakeTwoEntryNode(split.bit_pos, left_entry, right_entry, h);
      root_ = EncodeEntry(new_root);
      FreeNode(alloc_, overflowed);
      return;
    }

    PathLevel& parent = path[level - 1];
    if (ln.height + 1 == parent.node.height()) {
      // Parent pull-up: move the severed root BiNode into the parent, which
      // may overflow in turn.
      LogicalNode pl = Decode(parent.node);
      ReplaceEntryWithTwo(pl, parent.idx, split.bit_pos, left_entry,
                          right_entry);
      FreeNode(alloc_, overflowed);
      if (pl.count <= kMaxFanout) {
        uint64_t replacement = EncodeEntry(pl);
        NodeRef old = parent.node;
        ReplaceChild(path, level - 1, replacement);
        FreeNode(alloc_, old);
        return;
      }
      ln = pl;
      --level;
      continue;
    }

    // Intermediate node creation: there is head room below the parent
    // (ln.height + 1 < parent height), so a new node above the halves does
    // not increase the overall tree height.
    assert(ln.height + 1 < parent.node.height());
    unsigned h =
        1 + std::max(EntryHeight(left_entry), EntryHeight(right_entry));
    LogicalNode intermediate =
        MakeTwoEntryNode(split.bit_pos, left_entry, right_entry, h);
    parent.node.values()[parent.idx] = EncodeEntry(intermediate);
    FreeNode(alloc_, overflowed);
    return;
  }
}

template <typename KeyExtractor>
std::optional<uint64_t> HotTrie<KeyExtractor>::Upsert(uint64_t value) {
  KeyScratch scratch;
  KeyRef key = extractor_(value, scratch);
  if (Insert(value)) return std::nullopt;
  // Key exists: overwrite the tid in place.
  uint64_t cur = root_;
  if (HotEntry::IsTid(cur)) {
    uint64_t prev = HotEntry::TidPayload(cur);
    root_ = HotEntry::MakeTid(value);
    return prev;
  }
  NodeRef node;
  uint64_t* slot = &root_;
  while (HotEntry::IsNode(*slot)) {
    node = NodeRef::FromEntry(*slot);
    slot = &node.values()[SearchNode(node, key)];
  }
  uint64_t prev = HotEntry::TidPayload(*slot);
  *slot = HotEntry::MakeTid(value);
  return prev;
}

// ---------------------------------------------------------------------------
// Lookup
// ---------------------------------------------------------------------------

template <typename KeyExtractor>
std::optional<uint64_t> HotTrie<KeyExtractor>::Lookup(KeyRef key) const {
  uint64_t cur = root_;
  while (HotEntry::IsNode(cur)) {
    PrefetchNode(cur);
    NodeRef node = NodeRef::FromEntry(cur);
    cur = node.values()[SearchNode(node, key)];
  }
  // Final verification against the stored key (Listing 2 line 7): the
  // Patricia search may return a false positive.
  return VerifyTerminal(cur, key);
}

template <typename KeyExtractor>
void HotTrie<KeyExtractor>::LookupBatch(std::span<const KeyRef> keys,
                                        std::span<std::optional<uint64_t>> out,
                                        unsigned width) const {
  assert(out.size() >= keys.size());
  size_t n = keys.size();
  if (n == 0) return;
  if (!HotEntry::IsNode(root_)) {
    for (size_t i = 0; i < n; ++i) out[i] = VerifyTerminal(root_, keys[i]);
    return;
  }
  constexpr size_t kInlineTerminals = 256;
  uint64_t inline_buf[kInlineTerminals];
  std::vector<uint64_t> heap_buf;
  uint64_t* terminal = inline_buf;
  if (n > kInlineTerminals) {
    heap_buf.resize(n);
    terminal = heap_buf.data();
  }
  BatchDescend<PlainSlotLoad>(root_, keys.data(), n, terminal, width,
                              [](uint32_t, NodeRef, unsigned) {});
  for (size_t i = 0; i < n; ++i) out[i] = VerifyTerminal(terminal[i], keys[i]);
}

// ---------------------------------------------------------------------------
// Remove
// ---------------------------------------------------------------------------

template <typename KeyExtractor>
bool HotTrie<KeyExtractor>::Remove(KeyRef key) {
  if (HotEntry::IsEmpty(root_)) return false;
  if (HotEntry::IsTid(root_)) {
    KeyScratch scratch;
    if (!(ExtractKey(root_, scratch) == key)) return false;
    root_ = HotEntry::kEmpty;
    --size_;
    return true;
  }

  PathLevel path[kMaxDepth];
  unsigned depth = 0;
  uint64_t cur = root_;
  while (HotEntry::IsNode(cur)) {
    NodeRef node = NodeRef::FromEntry(cur);
    unsigned idx = SearchNode(node, key);
    path[depth++] = {node, idx};
    cur = node.values()[idx];
  }
  KeyScratch scratch;
  if (!(ExtractKey(cur, scratch) == key)) return false;

  // Normal delete: remove the entry from its owning node; a node left with
  // a single entry collapses into its parent slot (the k-constraint demands
  // >= 2 entries = >= 1 BiNode per node).
  PathLevel& leaf_level = path[depth - 1];
  LogicalNode ln = Decode(leaf_level.node);
  RemoveEntry(ln, leaf_level.idx);
  NodeRef old = leaf_level.node;
  uint64_t replacement =
      ln.count == 1 ? ln.entries[0] : EncodeEntry(ln);
  ReplaceChild(path, depth - 1, replacement);
  FreeNode(alloc_, old);
  --size_;
  return true;
}

// ---------------------------------------------------------------------------
// Iteration
// ---------------------------------------------------------------------------

template <typename KeyExtractor>
class HotTrie<KeyExtractor>::Iterator {
 public:
  Iterator() : depth_(0), current_(HotEntry::kEmpty) {}

  bool valid() const { return current_ != HotEntry::kEmpty; }
  uint64_t value() const { return HotEntry::TidPayload(current_); }

  void Next() {
    while (depth_ > 0) {
      Level& top = levels_[depth_ - 1];
      if (top.idx + 1 < top.node.count()) {
        ++top.idx;
        DescendLeftmost(top.node.values()[top.idx]);
        return;
      }
      --depth_;
    }
    current_ = HotEntry::kEmpty;
  }

  // Moves to the predecessor in key order; invalidates at the minimum.
  void Prev() {
    while (depth_ > 0) {
      Level& top = levels_[depth_ - 1];
      if (top.idx > 0) {
        --top.idx;
        DescendRightmost(top.node.values()[top.idx]);
        return;
      }
      --depth_;
    }
    current_ = HotEntry::kEmpty;
  }

 private:
  friend class HotTrie;

  struct Level {
    NodeRef node;
    unsigned idx;
  };

  void Reset() {
    depth_ = 0;
    current_ = HotEntry::kEmpty;
  }

  void DescendLeftmost(uint64_t entry) { DescendEdge(entry, /*leftmost=*/true); }
  void DescendRightmost(uint64_t entry) {
    DescendEdge(entry, /*leftmost=*/false);
  }

  void DescendEdge(uint64_t entry, bool leftmost) {
    while (HotEntry::IsNode(entry)) {
      NodeRef node = NodeRef::FromEntry(entry);
      unsigned idx = leftmost ? 0 : node.count() - 1;
      levels_[depth_++] = {node, idx};
      entry = node.values()[idx];
    }
    current_ = entry;
  }

  Level levels_[kMaxDepth];
  unsigned depth_;
  uint64_t current_;
};

template <typename KeyExtractor>
typename HotTrie<KeyExtractor>::Iterator HotTrie<KeyExtractor>::Begin() const {
  Iterator it;
  if (!HotEntry::IsEmpty(root_)) it.DescendLeftmost(root_);
  return it;
}

template <typename KeyExtractor>
typename HotTrie<KeyExtractor>::Iterator HotTrie<KeyExtractor>::Last() const {
  Iterator it;
  if (!HotEntry::IsEmpty(root_)) it.DescendRightmost(root_);
  return it;
}

template <typename KeyExtractor>
typename HotTrie<KeyExtractor>::Iterator HotTrie<KeyExtractor>::UpperBound(
    KeyRef key) const {
  Iterator it = LowerBound(key);
  if (it.valid()) {
    KeyScratch scratch;
    if (ExtractKey(HotEntry::MakeTid(it.value()), scratch) == key) it.Next();
  }
  return it;
}

template <typename KeyExtractor>
typename HotTrie<KeyExtractor>::Iterator HotTrie<KeyExtractor>::LowerBound(
    KeyRef key) const {
  Iterator it;
  if (HotEntry::IsEmpty(root_)) return it;
  if (HotEntry::IsTid(root_)) {
    KeyScratch scratch;
    if (ExtractKey(root_, scratch).Compare(key) >= 0) it.current_ = root_;
    return it;
  }

  // Blind descent recording the path.
  uint64_t cur = root_;
  while (HotEntry::IsNode(cur)) {
    NodeRef node = NodeRef::FromEntry(cur);
    unsigned idx = SearchNode(node, key);
    it.levels_[it.depth_++] = {node, idx};
    cur = node.values()[idx];
  }
  RepositionLowerBound(it, key, cur);
  return it;
}

template <typename KeyExtractor>
void HotTrie<KeyExtractor>::RepositionLowerBound(Iterator& it, KeyRef key,
                                                 uint64_t cur) const {
  KeyScratch scratch;
  KeyRef cand = ExtractKey(cur, scratch);
  size_t p = FirstMismatchBit(key, cand);
  if (p == kNoMismatch) {
    it.current_ = cur;  // exact hit
    return;
  }

  // Everything under the mismatching BiNode shares the search key's prefix
  // up to p, so the whole affected subtree orders on the one bit key[p].
  unsigned target = it.depth_ - 1;
  while (target > 0 && RootDiscBit(it.levels_[target].node) > p) --target;
  LogicalNode ln = Decode(it.levels_[target].node);
  bool exists;
  unsigned rank = BitRank(ln, static_cast<unsigned>(p), &exists);
  AffectedRange range =
      FindAffectedRange(ln, it.levels_[target].idx, rank);

  it.depth_ = target;
  NodeRef tnode = it.levels_[target].node;
  if (key.Bit(p) == 0) {
    // key < all affected entries: lower bound is the subtree's minimum.
    it.levels_[it.depth_++] = {tnode, range.first};
    it.DescendLeftmost(tnode.values()[range.first]);
  } else {
    // key > all affected entries: successor of the subtree's maximum.
    it.levels_[it.depth_++] = {tnode, range.last};
    it.DescendRightmost(tnode.values()[range.last]);
    it.Next();
  }
}

template <typename KeyExtractor>
void HotTrie<KeyExtractor>::LowerBoundBatch(std::span<const KeyRef> keys,
                                            Iterator* out,
                                            unsigned width) const {
  size_t n = keys.size();
  if (n == 0) return;
  if (!HotEntry::IsNode(root_)) {
    // Empty or single-tid root: no descent to interleave.
    for (size_t i = 0; i < n; ++i) out[i] = LowerBound(keys[i]);
    return;
  }
  for (size_t i = 0; i < n; ++i) out[i].Reset();
  std::vector<uint64_t> terminal(n);
  BatchDescend<PlainSlotLoad>(
      root_, keys.data(), n, terminal.data(), width,
      [&](uint32_t i, NodeRef node, unsigned idx) {
        Iterator& it = out[i];
        it.levels_[it.depth_++] = {node, idx};
      });
  for (size_t i = 0; i < n; ++i) {
    RepositionLowerBound(out[i], keys[i], terminal[i]);
  }
}

template <typename KeyExtractor>
template <typename Fn>
size_t HotTrie<KeyExtractor>::ScanFrom(KeyRef start, size_t limit,
                                       Fn&& fn) const {
  Iterator it = LowerBound(start);
  size_t n = 0;
  while (it.valid() && n < limit) {
    fn(it.value());
    ++n;
    it.Next();
  }
  return n;
}

template <typename KeyExtractor>
template <typename Fn>
size_t HotTrie<KeyExtractor>::ScanReverseFrom(KeyRef start, size_t limit,
                                              Fn&& fn) const {
  // Position at the largest key <= start: the predecessor of UpperBound.
  Iterator it = UpperBound(start);
  if (!it.valid()) {
    it = Last();
  } else {
    it.Prev();
  }
  size_t n = 0;
  while (it.valid() && n < limit) {
    fn(it.value());
    ++n;
    it.Prev();
  }
  return n;
}

// ---------------------------------------------------------------------------
// Maintenance & introspection
// ---------------------------------------------------------------------------

template <typename KeyExtractor>
void HotTrie<KeyExtractor>::FreeSubtree(uint64_t entry) {
  if (!HotEntry::IsNode(entry)) return;
  NodeRef node = NodeRef::FromEntry(entry);
  unsigned n = node.count();
  for (unsigned i = 0; i < n; ++i) FreeSubtree(node.values()[i]);
  FreeNode(alloc_, node);
}

template <typename KeyExtractor>
void HotTrie<KeyExtractor>::Clear() {
  FreeSubtree(root_);
  root_ = HotEntry::kEmpty;
  size_ = 0;
}

template <typename KeyExtractor>
void HotTrie<KeyExtractor>::ForEachNode(
    const std::function<void(NodeRef, unsigned)>& fn) const {
  struct Walker {
    const std::function<void(NodeRef, unsigned)>& fn;
    void Walk(uint64_t entry, unsigned depth) {
      if (!HotEntry::IsNode(entry)) return;
      NodeRef node = NodeRef::FromEntry(entry);
      fn(node, depth);
      for (unsigned i = 0; i < node.count(); ++i) {
        Walk(node.values()[i], depth + 1);
      }
    }
  } walker{fn};
  walker.Walk(root_, 1);
}

template <typename KeyExtractor>
void HotTrie<KeyExtractor>::ForEachLeaf(
    const std::function<void(unsigned, uint64_t)>& fn) const {
  struct Walker {
    const std::function<void(unsigned, uint64_t)>& fn;
    void Walk(uint64_t entry, unsigned depth) {
      if (HotEntry::IsEmpty(entry)) return;
      if (HotEntry::IsTid(entry)) {
        fn(depth, HotEntry::TidPayload(entry));
        return;
      }
      NodeRef node = NodeRef::FromEntry(entry);
      for (unsigned i = 0; i < node.count(); ++i) {
        Walk(node.values()[i], depth + 1);
      }
    }
  } walker{fn};
  walker.Walk(root_, 0);
}

}  // namespace hot

#include "hot/validate.h"

namespace hot {

template <typename KeyExtractor>
bool HotTrie<KeyExtractor>::Validate(std::string* error) const {
  return ValidateHotTree(root_, extractor_, size_, error);
}

}  // namespace hot

#endif  // HOT_HOT_TRIE_H_

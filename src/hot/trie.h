// HOT — the Height Optimized Trie (paper §3, §4): the single-threaded
// HotTrie, and the one home of HOT's algorithms.
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
//
// Every algorithm below is written and compiled once: it reads child slots
// through one acquire load (LoadSlot, hot/batch_lookup.h) and allocates and
// frees nodes through a NodePool (hot/node_pool.h).  HotTrie and
// RowexHotTrie (hot/rowex.h) run the same code and differ only in their
// key extractors; RowexHotTrie adds only §5's protocol: an epoch guard
// around reads, and lock -> validate -> publish -> retire around the writes
// that the insert planner and the builders here describe.  Node contents
// other than the value slots are immutable once a node is published, so
// the acquire slot loads are the only synchronization readers need.

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

// ---------------------------------------------------------------------------
// Search paths
// ---------------------------------------------------------------------------

// One level of a root-to-leaf search path: a node and the slot chosen in it.
struct PathLevel {
  NodeRef node;
  unsigned idx;
};

// The slot that holds path[level]'s node: the chosen slot of path[level-1],
// or the root slot at level 0.  With level == the path's length it is the
// slot holding the descent's terminal entry.
inline uint64_t* SlotAbove(uint64_t* root, const PathLevel* path,
                           unsigned level) {
  return level == 0 ? root
                    : &path[level - 1].node.values()[path[level - 1].idx];
}

// Descends from `root` to the terminal entry (tid or empty) for `key`.
inline uint64_t Descend(uint64_t root, KeyRef key) {
  uint64_t cur = root;
  while (HotEntry::IsNode(cur)) {
    PrefetchNode(cur);
    NodeRef node = NodeRef::FromEntry(cur);
    cur = LoadSlot(&node.values()[SearchNode(node, key)]);
  }
  return cur;
}

// The same descent, recording the nodes it passes in path[0..*depth).
inline uint64_t DescendRecording(uint64_t root, KeyRef key, PathLevel* path,
                                 unsigned* depth) {
  unsigned d = 0;
  uint64_t cur = root;
  while (HotEntry::IsNode(cur)) {
    PrefetchNode(cur);
    NodeRef node = NodeRef::FromEntry(cur);
    unsigned idx = SearchNode(node, key);
    path[d++] = {node, idx};
    cur = LoadSlot(&node.values()[idx]);
  }
  *depth = d;
  return cur;
}

// Locates the BiNode that a mismatch at bit `p` hangs below, on a recorded
// path of `depth` >= 1 nodes.  The covering node is the deepest one whose
// root BiNode bit is <= p (root bits strictly increase along the path); if
// even the tree root's bit exceeds p, it is the root node, all of whose
// entries are then affected.  Fills in p's rank among the covering node's
// bits and the affected range around its chosen slot (§4.4), both read from
// the physical masks, and returns the covering node's level.
inline unsigned LocateMismatch(const PathLevel* path, unsigned depth,
                               unsigned p, PhysicalInsertInfo* info) {
  unsigned target = depth - 1;
  while (target > 0 && RootDiscBit(path[target].node) > p) --target;
  NodeRef node = path[target].node;
  PhysicalBitRank(node, p, &info->rank, &info->exists);
  PhysicalAffectedRange(node, path[target].idx, info->rank, &info->first,
                        &info->last);
  return target;
}

// ---------------------------------------------------------------------------
// Point reads
// ---------------------------------------------------------------------------

// Final verification of a terminal entry against the search key (Listing
// 2 line 7): the Patricia search may return a false positive.
template <typename KeyExtractor>
inline std::optional<uint64_t> VerifyTerminal(const KeyExtractor& extractor,
                                              uint64_t entry, KeyRef key) {
  if (HotEntry::IsEmpty(entry)) return std::nullopt;
  KeyScratch scratch;
  if (extractor(HotEntry::TidPayload(entry), scratch) == key) {
    return HotEntry::TidPayload(entry);
  }
  return std::nullopt;
}

// Batched point lookups with memory-level parallelism (batch_lookup.h):
// out[i] = the verified terminal entry of keys[i] below `root`, with up to
// `width` descents in flight.  Always inlined, so each trie's LookupBatch
// stays one function, with RowexHotTrie's epoch guard in the same frame as
// the staging, which is how the served GET drain calls it.
template <typename KeyExtractor>
[[gnu::always_inline]] inline void LookupBatchBelow(
    uint64_t root, const KeyExtractor& extractor, std::span<const KeyRef> keys,
    std::span<std::optional<uint64_t>> out, unsigned width) {
  assert(out.size() >= keys.size());
  size_t n = keys.size();
  if (n == 0) return;
  if (!HotEntry::IsNode(root)) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = VerifyTerminal(extractor, root, keys[i]);
    }
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
  BatchDescend(root, keys.data(), n, terminal, width);
  for (size_t i = 0; i < n; ++i) {
    out[i] = VerifyTerminal(extractor, terminal[i], keys[i]);
  }
}

// ---------------------------------------------------------------------------
// Ordered iteration
// ---------------------------------------------------------------------------

// Forward cursor over the tree below a root entry, holding the path from
// the root to the current leaf.  Both tries' scans run one; RowexHotTrie's
// run under one epoch guard and see some consistent recent state of each
// node they pass.  valid() while at an entry.
class HotCursor {
 public:
  bool valid() const { return current_ != HotEntry::kEmpty; }
  uint64_t value() const { return HotEntry::TidPayload(current_); }

  // Positions at the first entry with key >= `key`.
  template <typename KeyExtractor>
  void SeekLowerBound(uint64_t root, KeyRef key,
                      const KeyExtractor& extractor);

  // Moves to the successor in key order; invalidates past the maximum.
  void Next() {
    while (depth_ > 0) {
      PathLevel& top = levels_[depth_ - 1];
      if (top.idx + 1 < top.node.count()) {
        ++top.idx;
        DescendEdge(LoadSlot(&top.node.values()[top.idx]), /*leftmost=*/true);
        return;
      }
      --depth_;
    }
    current_ = HotEntry::kEmpty;
  }

  // Visits up to `limit` values from the current entry on, in key order;
  // returns the number visited.
  template <typename Fn>
  size_t Scan(size_t limit, Fn&& fn) {
    size_t n = 0;
    while (n < limit && valid()) {
      fn(value());
      if (++n < limit) Next();
    }
    return n;
  }

 private:
  void DescendEdge(uint64_t entry, bool leftmost) {
    while (HotEntry::IsNode(entry)) {
      NodeRef node = NodeRef::FromEntry(entry);
      unsigned idx = leftmost ? 0 : node.count() - 1;
      levels_[depth_++] = {node, idx};
      entry = LoadSlot(&node.values()[idx]);
    }
    current_ = entry;
  }

  PathLevel levels_[kMaxDepth];
  unsigned depth_ = 0;
  uint64_t current_ = HotEntry::kEmpty;
};

template <typename KeyExtractor>
void HotCursor::SeekLowerBound(uint64_t root, KeyRef key,
                               const KeyExtractor& extractor) {
  // Blind descent recording the path.
  current_ = DescendRecording(root, key, levels_, &depth_);
  if (HotEntry::IsEmpty(current_)) return;
  KeyScratch scratch;
  KeyRef cand = extractor(HotEntry::TidPayload(current_), scratch);
  if (depth_ == 0) {
    // A leaf root: the tree's only entry.
    if (cand.Compare(key) < 0) current_ = HotEntry::kEmpty;
    return;
  }
  size_t p = FirstMismatchBit(key, cand);
  if (p == kNoMismatch) return;  // exact hit

  // Everything under the mismatching BiNode shares the search key's prefix
  // up to p, so the whole affected subtree orders on the one bit key[p]
  // (paper §3.1).
  PhysicalInsertInfo range;
  unsigned target =
      LocateMismatch(levels_, depth_, static_cast<unsigned>(p), &range);
  NodeRef tnode = levels_[target].node;
  depth_ = target;
  if (key.Bit(p) == 0) {
    // key < all affected entries: lower bound is the subtree's minimum.
    levels_[depth_++] = {tnode, range.first};
    DescendEdge(LoadSlot(&tnode.values()[range.first]), /*leftmost=*/true);
  } else {
    // key > all affected entries: successor of the subtree's maximum.
    levels_[depth_++] = {tnode, range.last};
    DescendEdge(LoadSlot(&tnode.values()[range.last]), /*leftmost=*/false);
    Next();
  }
}

// ---------------------------------------------------------------------------
// Insert (§3.2, §4.4) and remove
// ---------------------------------------------------------------------------

// Extracts the key of a value about to be inserted.  Real checks, not
// asserts: violating either corrupts the node layouts (8-bit byte offsets /
// 63-bit tid payloads), which must not depend on the build type.
template <typename KeyExtractor>
inline KeyRef InsertKey(const KeyExtractor& extractor, uint64_t value,
                        KeyScratch& scratch) {
  KeyRef key = extractor(value, scratch);
  if (key.size() > kMaxKeyBytes) {
    throw std::invalid_argument("HOT: keys longer than 256 bytes");
  }
  if ((value >> 63) != 0) {
    throw std::invalid_argument("HOT: values must be 63-bit payloads");
  }
  return key;
}

// What inserting one key does to the tree, found by one descent before
// anything is modified.  RowexHotTrie locks exactly the slots and nodes a
// plan names and validates that it still holds.
struct InsertPlan {
  PathLevel path[kMaxDepth];  // the search path from the root
  unsigned depth;             // nodes on it
  uint64_t leaf;              // the terminal entry it reached

  // The rest is set only when the key is absent.  A pushdown replaces just
  // the leaf, in SlotAbove(depth): by the new tid in an empty tree, else by
  // a height-1 node over the leaf and the tid (a leaf root, or a leaf-node
  // pushdown).  Otherwise the new BiNode goes into the covering node
  // path[target], and the nodes path[top..target] are replaced
  // copy-on-write (top < target when an overflow pulls BiNodes up).
  bool pushdown;
  unsigned bit;             // first bit where the key and leaf's key differ
  unsigned key_bit;         // the key's value at `bit`
  unsigned target;
  PhysicalInsertInfo info;  // `bit`'s rank and affected range in path[target]
  unsigned top;
};

// Plans inserting `key` below `root` (empty, a leaf or a node).  Returns
// false if the key is present: plan->leaf then holds it, in the slot
// SlotAbove(plan->depth).
template <typename KeyExtractor>
inline bool PlanInsert(uint64_t root, KeyRef key,
                       const KeyExtractor& extractor, InsertPlan* plan) {
  plan->leaf = DescendRecording(root, key, plan->path, &plan->depth);
  plan->pushdown = true;
  if (HotEntry::IsEmpty(plan->leaf)) return true;
  KeyScratch scratch;
  size_t p = FirstMismatchBit(
      key, extractor(HotEntry::TidPayload(plan->leaf), scratch));
  if (p == kNoMismatch) return false;
  plan->bit = static_cast<unsigned>(p);
  plan->key_bit = key.Bit(p);
  if (plan->depth == 0) return true;

  unsigned target =
      LocateMismatch(plan->path, plan->depth, plan->bit, &plan->info);
  const PathLevel* path = plan->path;
  // Leaf-node pushdown: the mismatching BiNode is a single tid entry of an
  // inner node.  The affected range holds the chosen slot, so a one-entry
  // range at the path's last node is the leaf itself.
  plan->pushdown = plan->info.first == plan->info.last &&
                   target == plan->depth - 1 &&
                   path[target].node.height() > 1;
  plan->target = target;
  // The overflow chain: a full node splits, and its severed root BiNode
  // moves into a parent exactly one level above (parent pull-up), which may
  // overflow in turn.  It ends at a node with room, at the root (which
  // grows), or below a parent with head room (intermediate node creation).
  unsigned top = target;
  while (top > 0 && path[top].node.count() >= kMaxFanout &&
         path[top].node.height() + 1 == path[top - 1].node.height()) {
    --top;
  }
  plan->top = top;
  return true;
}

// The entry that replaces the leaf of a `pushdown` plan: the tid itself in
// an empty tree, else a height-1 node over the leaf and the tid.
inline uint64_t BuildPushdown(const InsertPlan& plan, uint64_t tid,
                              NodePool& alloc) {
  if (HotEntry::IsEmpty(plan.leaf)) return tid;
  LogicalNode two = plan.key_bit
                        ? MakeTwoEntryNode(plan.bit, plan.leaf, tid, 1)
                        : MakeTwoEntryNode(plan.bit, tid, plan.leaf, 1);
  return Encode(two, alloc).ToEntry();
}

// The replacement BuildInsert makes for the nodes path[plan.top..target].
struct Replacement {
  uint64_t entry;  // to store into SlotAbove(plan.top)
  bool spliced;    // made by the §4.4 physical splice
};

// Builds the insert of `tid` that a non-pushdown plan describes.  The
// common case (§4.4) splices the entry into the covering node's physical
// layout.  Otherwise a logical insert runs, and an overflow splits upward:
// parent pull-up, then root growth or intermediate node creation (§3.2).
// The caller stores the result's entry into SlotAbove(plan.top) and then
// frees or retires path[plan.top..plan.target]; the nodes are read with
// plain loads, so a concurrent caller must hold their locks.
// Exception-safe: if an allocation throws, every node built so far is
// freed, and the tree is untouched.
inline Replacement BuildInsert(const InsertPlan& plan, uint64_t tid,
                               NodePool& alloc) {
  unsigned level = plan.target;
  NodeRef tnode = plan.path[level].node;
  uint64_t fast =
      TryPhysicalInsert(tnode, plan.info, plan.bit, plan.key_bit, tid, alloc);
  if (fast != HotEntry::kEmpty) return {fast, true};

  // Every encoded node is tracked so a throwing allocation can free the
  // unpublished chain (each level encodes at most two halves plus one
  // final node).
  uint64_t fresh[2 * kMaxDepth + 2];
  unsigned n_fresh = 0;
  auto encode = [&](const LogicalNode& n) {
    uint64_t e = Encode(n, alloc).ToEntry();
    fresh[n_fresh++] = e;
    return e;
  };
  auto encode_half = [&](const LogicalNode& half) {
    return half.count == 1 ? half.entries[0] : encode(half);
  };

  LogicalNode ln = Decode(tnode);
  LogicalInsert(ln, plan.path[level].idx, plan.bit, plan.key_bit, tid);
  try {
    while (ln.count > kMaxFanout) {
      SplitResult split = Split(ln);
      uint64_t left = encode_half(split.left);
      uint64_t right = encode_half(split.right);
      if (level > 0 && ln.height + 1 == plan.path[level - 1].node.height()) {
        // Parent pull-up: move the severed root BiNode into the parent,
        // which may overflow in turn.
        const PathLevel& parent = plan.path[--level];
        ln = Decode(parent.node);
        ReplaceEntryWithTwo(ln, parent.idx, split.bit_pos, left, right);
      } else {
        // Root growth — the only height-increasing case — or intermediate
        // node creation: with head room below the parent, a new node above
        // the halves does not increase the tree height.
        unsigned h = 1 + std::max(EntryHeight(left), EntryHeight(right));
        ln = MakeTwoEntryNode(split.bit_pos, left, right, h);
      }
    }
    assert(level == plan.top);
    return {encode(ln), false};
  } catch (...) {
    // Nothing built here was published: free it (FreeNode is per node, so
    // children shared with the tree are untouched).
    for (unsigned i = 0; i < n_fresh; ++i) {
      FreeNode(alloc, NodeRef::FromEntry(fresh[i]));
    }
    throw;
  }
}

// Normal delete: the entry that replaces `owner`'s node once its entry at
// owner.idx is gone.  A node left with a single entry collapses into it
// (the k-constraint demands >= 2 entries = >= 1 BiNode per node).
inline uint64_t BuildRemove(const PathLevel& owner, NodePool& alloc) {
  LogicalNode ln = Decode(owner.node);
  RemoveEntry(ln, owner.idx);
  return ln.count == 1 ? ln.entries[0] : Encode(ln, alloc).ToEntry();
}

// ---------------------------------------------------------------------------
// Walks (quiescent)
// ---------------------------------------------------------------------------

// Visits every compound node below `entry` with its depth; `entry`'s own
// node has depth `depth`.
inline void VisitNodes(uint64_t entry, unsigned depth,
                       const std::function<void(NodeRef, unsigned)>& fn) {
  if (!HotEntry::IsNode(entry)) return;
  NodeRef node = NodeRef::FromEntry(entry);
  fn(node, depth);
  for (unsigned i = 0; i < node.count(); ++i) {
    VisitNodes(node.values()[i], depth + 1, fn);
  }
}

// Visits every stored value below `entry` with `depth` plus the number of
// compound nodes on its path from `entry`.
inline void VisitLeaves(uint64_t entry, unsigned depth,
                        const std::function<void(unsigned, uint64_t)>& fn) {
  if (HotEntry::IsEmpty(entry)) return;
  if (HotEntry::IsTid(entry)) {
    fn(depth, HotEntry::TidPayload(entry));
    return;
  }
  NodeRef node = NodeRef::FromEntry(entry);
  for (unsigned i = 0; i < node.count(); ++i) {
    VisitLeaves(node.values()[i], depth + 1, fn);
  }
}

inline void FreeSubtree(uint64_t entry, NodePool& alloc) {
  if (!HotEntry::IsNode(entry)) return;
  NodeRef node = NodeRef::FromEntry(entry);
  for (unsigned i = 0; i < node.count(); ++i) {
    FreeSubtree(node.values()[i], alloc);
  }
  FreeNode(alloc, node);
}

// ---------------------------------------------------------------------------
// HotTrie
// ---------------------------------------------------------------------------

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
  bool Insert(uint64_t value) {
    return !Put(value, /*overwrite=*/false).has_value();
  }

  // Inserts or overwrites.  Returns the previous value if one existed.
  std::optional<uint64_t> Upsert(uint64_t value) {
    return Put(value, /*overwrite=*/true);
  }

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

  std::optional<uint64_t> Lookup(KeyRef key) const {
    return VerifyTerminal(extractor_, Descend(root_, key), key);
  }

  // Batched point lookups with memory-level parallelism (batch_lookup.h):
  // out[i] = Lookup(keys[i]), bit-identical.  Up to `width` descents stay
  // in flight so their DRAM misses overlap; out must be at least as long
  // as keys.
  void LookupBatch(std::span<const KeyRef> keys,
                   std::span<std::optional<uint64_t>> out,
                   unsigned width = kDefaultBatchWidth) const {
    LookupBatchBelow(root_, extractor_, keys, out, width);
  }

  // Visits up to `limit` values with key >= `start` in key order; returns
  // the number visited (YCSB workload E short range scans).
  template <typename Fn>
  size_t ScanFrom(KeyRef start, size_t limit, Fn&& fn) const {
    HotCursor it;
    it.SeekLowerBound(root_, start, extractor_);
    return it.Scan(limit, fn);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear() {
    FreeSubtree(root_, alloc_);
    root_ = HotEntry::kEmpty;
    size_ = 0;
  }

  // --- introspection (stats & validation) ------------------------------------

  // Visits every compound node with its depth (root nodes have depth 1).
  void ForEachNode(const std::function<void(NodeRef, unsigned depth)>& fn)
      const {
    VisitNodes(root_, 1, fn);
  }
  // Visits every stored value with the number of compound nodes on its path
  // (the Fig. 11 leaf-depth metric).
  void ForEachLeaf(
      const std::function<void(unsigned depth, uint64_t value)>& fn) const {
    VisitLeaves(root_, 0, fn);
  }

  // Checks every structural invariant; returns true and clears *error on
  // success.  Expensive — test/debug use.
  bool Validate(std::string* error) const;

  const KeyExtractor& extractor() const { return extractor_; }
  MemoryCounter* counter() const { return alloc_.counter(); }
  NodePool::Stats pool_stats() const { return alloc_.stats(); }
  uint64_t root_entry() const { return root_; }

 private:
  // Inserts `value` if its key is absent.  Otherwise returns the stored
  // value, and overwrites it when `overwrite`.
  std::optional<uint64_t> Put(uint64_t value, bool overwrite);

  KeyExtractor extractor_;
  mutable NodePool alloc_;
  uint64_t root_;
  size_t size_ = 0;
};

template <typename KeyExtractor>
std::optional<uint64_t> HotTrie<KeyExtractor>::Put(uint64_t value,
                                                   bool overwrite) {
  KeyScratch scratch;
  KeyRef key = InsertKey(extractor_, value, scratch);
  uint64_t tid = HotEntry::MakeTid(value);
  InsertPlan plan;
  if (!PlanInsert(root_, key, extractor_, &plan)) {
    if (overwrite) *SlotAbove(&root_, plan.path, plan.depth) = tid;
    return HotEntry::TidPayload(plan.leaf);
  }
  if (plan.pushdown) {
    *SlotAbove(&root_, plan.path, plan.depth) =
        BuildPushdown(plan, tid, alloc_);
  } else {
    uint64_t entry = BuildInsert(plan, tid, alloc_).entry;
    *SlotAbove(&root_, plan.path, plan.top) = entry;
    for (unsigned l = plan.top; l <= plan.target; ++l) {
      FreeNode(alloc_, plan.path[l].node);
    }
  }
  ++size_;
  return std::nullopt;
}

template <typename KeyExtractor>
bool HotTrie<KeyExtractor>::Remove(KeyRef key) {
  PathLevel path[kMaxDepth];
  unsigned depth;
  uint64_t leaf = DescendRecording(root_, key, path, &depth);
  if (!VerifyTerminal(extractor_, leaf, key)) return false;
  if (depth == 0) {
    root_ = HotEntry::kEmpty;
  } else {
    const PathLevel& owner = path[depth - 1];
    *SlotAbove(&root_, path, depth - 1) = BuildRemove(owner, alloc_);
    FreeNode(alloc_, owner.node);
  }
  --size_;
  return true;
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

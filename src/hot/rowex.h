// ROWEX-synchronized HOT (paper §5): the algorithms of hot/trie.h with §5's
// protocol around them.  This file adds the protocol only; every descent,
// the cursor, the insert planner and the node builders are trie.h's, the
// same compiled code HotTrie runs (its slot reads are already acquire
// loads).
//
// Readers are wait-free: they never lock, never restart, and may finish a
// lookup on an obsolete (copy-on-write superseded) node; epoch-based
// reclamation keeps such nodes alive until no reader can observe them.
//
// Writers perform the five steps of Fig. 7:
//   (a) traverse and determine the affected nodes (trie.h's InsertPlan, or
//       the remove descent)
//       - overwrite, leaf-node pushdown, leaf root: the slot holding the
//                               leaf (written in place inside its holder)
//       - normal insert/remove: covering node + its parent (slot write)
//       - overflow:             the pull-up chain up to the first node with
//                               space (all copy-on-write replaced) + the
//                               parent of the last (slot write)
//   (b) lock them bottom-up (a tree-level lock stands in for the root slot)
//   (c) validate that none is obsolete and that the links/slots the plan
//       was computed from are unchanged — otherwise unlock and restart
//   (d) apply the modification: build replacement nodes copy-on-write
//       (trie.h's builders), publish with release stores into the parent
//       slot, mark replaced nodes obsolete and retire them to the epoch
//       manager
//   (e) unlock top-down.
//
// Node contents other than the 64-bit value slots are immutable after
// publication, so readers only need atomic loads on value slots and on the
// root slot.

#ifndef HOT_HOT_ROWEX_H_
#define HOT_HOT_ROWEX_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "common/extractors.h"
#include "common/key.h"
#include "hot/trie.h"
#include "obs/telemetry.h"

namespace hot {

template <typename KeyExtractor>
class RowexHotTrie {
 public:
  explicit RowexHotTrie(KeyExtractor extractor = KeyExtractor(),
                        MemoryCounter* counter = nullptr)
      : extractor_(extractor), alloc_(counter) {}

  ~RowexHotTrie() {
    epochs_.CollectAll();
    FreeSubtree(root_, alloc_);
  }

  RowexHotTrie(const RowexHotTrie&) = delete;
  RowexHotTrie& operator=(const RowexHotTrie&) = delete;

  // --- wait-free reads --------------------------------------------------------

  std::optional<uint64_t> Lookup(KeyRef key) const {
    EpochGuard guard(&epochs_);
    return VerifyTerminal(extractor_, Descend(LoadSlot(&root_), key), key);
  }

  // Batched wait-free point lookups (hot/batch_lookup.h): out[i] =
  // Lookup(keys[i]) with up to `width` interleaved descents so DRAM misses
  // overlap.  The whole batch runs under a single epoch guard — one
  // pin/unpin instead of |keys| — and every slot read is an acquire load,
  // so each probe sees some consistent recent state of each node it
  // traverses, exactly like scalar Lookup.  Nodes retired by concurrent
  // writers stay alive until the guard is released.
  void LookupBatch(std::span<const KeyRef> keys,
                   std::span<std::optional<uint64_t>> out,
                   unsigned width = kDefaultBatchWidth) const {
    if (keys.empty()) return;
    EpochGuard guard(&epochs_);
    LookupBatchBelow(LoadSlot(&root_), extractor_, keys, out, width);
  }

  // Visits up to `limit` values with key >= start in key order.  Wait-free
  // with respect to writers; sees some consistent recent state of each
  // traversed node.
  template <typename Fn>
  size_t ScanFrom(KeyRef start, size_t limit, Fn&& fn) const {
    EpochGuard guard(&epochs_);
    HotCursor it;
    it.SeekLowerBound(LoadSlot(&root_), start, extractor_);
    return it.Scan(limit, fn);
  }

  // --- writers ----------------------------------------------------------------

  bool Insert(uint64_t value) {
    return !Put(value, /*overwrite=*/false).has_value();
  }

  bool Remove(KeyRef key) {
    for (;;) {
      EpochGuard guard(&epochs_);
      bool removed;
      if (TryRemove(key, &removed)) return removed;
      telemetry_.writer_restarts.Add();
    }
  }

  // Insert-or-overwrite: stores `value` under its extracted key, replacing
  // any value that currently maps to the same key.  Returns the previous
  // value if one was replaced.  An overwrite is an in-place store into the
  // slot the insert's own descent found the key in, under the owning
  // node's lock (no copy-on-write needed: only the 64-bit value slot
  // changes, which readers already load atomically).
  std::optional<uint64_t> Upsert(uint64_t value) {
    return Put(value, /*overwrite=*/true);
  }

  // Bulk-builds from values sorted ascending by extracted key and
  // duplicate-free, exactly like HotTrie::BulkLoad (hot/bulk_load.h) —
  // same parallel BiNode-partitioned construction, same resulting shape.
  // Quiescent-only and only on an EMPTY trie: the root is published with a
  // release store, so readers starting afterwards see the full tree, but
  // no concurrent writer may run during the build.  The recovery path
  // (persist/recovery.h -> net/server.cc) rebuilds multi-million-key
  // served tries through this instead of replaying inserts.
  void BulkLoad(const uint64_t* values, size_t n, unsigned threads = 1) {
    assert(empty() && "BulkLoad requires an empty trie");
    StoreSlot(&root_, detail::ParallelBulkBuild(extractor_, values, n, alloc_,
                                                threads));
    size_.store(n, std::memory_order_relaxed);
  }
  void BulkLoad(const std::vector<uint64_t>& values, unsigned threads = 1) {
    BulkLoad(values.data(), values.size(), threads);
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }
  MemoryCounter* counter() const { return alloc_.counter(); }
  EpochManager* epochs() const { return &epochs_; }

  // Telemetry surfaces (obs/telemetry.h capability dispatch).  The counter
  // reads are relaxed and may be slightly stale under concurrent writers;
  // exact invariants hold at quiescent points.
  const obs::RowexCounters& rowex_counters() const { return telemetry_; }
  NodePool::Stats pool_stats() const { return alloc_.stats(); }

  // Quiescent-only introspection (no concurrent writers), same contracts
  // as HotTrie's.
  void ForEachLeaf(
      const std::function<void(unsigned depth, uint64_t value)>& fn) const {
    VisitLeaves(LoadSlot(&root_), 0, fn);
  }
  void ForEachNode(
      const std::function<void(NodeRef, unsigned depth)>& fn) const {
    VisitNodes(LoadSlot(&root_), 1, fn);
  }

  // Checks every structural invariant of the current tree.  Quiescent-only
  // (the stress tests call this at round barriers); expensive — test/debug
  // use.
  bool Validate(std::string* error) const {
    return ValidateHotTree(LoadSlot(&root_), extractor_, size(), error);
  }

  // Quiescent-only root snapshot for external checkers (testing/audit.h
  // walks the tree through the same tagged-entry view as validate.h).
  uint64_t root_entry() const { return LoadSlot(&root_); }

  const KeyExtractor& extractor() const { return extractor_; }

 private:
  static void StoreSlot(uint64_t* slot, uint64_t value) {
    std::atomic_ref<uint64_t>(*slot).store(value, std::memory_order_release);
  }

  // The lock guarding SlotAbove(level): the tree-level root lock, or
  // path[level-1]'s node lock.
  RowexLockWord& HolderLock(const PathLevel* path, unsigned level) {
    return level == 0 ? root_lock_ : path[level - 1].node.header()->lock;
  }

  void Retire(NodeRef node) {
    // Nodes cannot be freed inline: readers may still traverse them.  The
    // deleter gets the pool as its context and reads the node's type from
    // its own header.  Callers retire only after the replacement is
    // published, so if the limbo list cannot grow the node is leaked rather
    // than letting an exception escape past the publication point with
    // locks still held.
    try {
      epochs_.Retire(
          node.raw(),
          [](void* raw, void* pool) {
            NodeType type =
                static_cast<NodeType>(static_cast<NodeHeader*>(raw)->type);
            FreeNode(*static_cast<NodePool*>(pool), NodeRef(raw, type));
          },
          &alloc_);
    } catch (const std::bad_alloc&) {
    }
  }

  // Steps (b)-(e) for one in-place slot write: stores `entry` over the
  // terminal entry `leaf` of a descent that passed `depth` nodes (in the
  // root slot, or in path[depth-1]), if the slot's holder is not obsolete
  // and the slot still holds `leaf`.  Returns false to restart.
  bool SwapLeaf(const PathLevel* path, unsigned depth, uint64_t leaf,
                uint64_t entry) {
    RowexLockWord& holder = HolderLock(path, depth);
    uint64_t* slot = SlotAbove(&root_, path, depth);
    holder.Lock();
    bool ok = !holder.IsObsolete() && LoadSlot(slot) == leaf;
    if (ok) StoreSlot(slot, entry);
    holder.Unlock();
    return ok;
  }

  // Steps (b) and (c) for replacing path[top..last] copy-on-write: locks
  // them bottom-up, then the holder of the slot above path[top], and
  // validates that none is obsolete and that every link from that slot
  // down to path[last] is unchanged.  On failure unlocks and returns false.
  bool LockChain(const PathLevel* path, unsigned top, unsigned last) {
    for (unsigned l = last + 1; l-- > top;) path[l].node.header()->lock.Lock();
    RowexLockWord& holder = HolderLock(path, top);
    holder.Lock();
    bool ok = !holder.IsObsolete();
    for (unsigned l = top; l <= last && ok; ++l) {
      ok = !path[l].node.header()->lock.IsObsolete() &&
           LoadSlot(SlotAbove(&root_, path, l)) == path[l].node.ToEntry();
    }
    if (!ok) UnlockChain(path, top, last);
    return ok;
  }

  // Step (e): unlocks top-down (obsolete nodes' locks are dead anyway).
  void UnlockChain(const PathLevel* path, unsigned top, unsigned last) {
    HolderLock(path, top).Unlock();
    for (unsigned l = top; l <= last; ++l) path[l].node.header()->lock.Unlock();
  }

  // Step (d) once the replacement is built: marks path[top..last] obsolete,
  // publishes `entry` into the slot above path[top], then retires them.
  // Publication comes before Retire, whose limbo list may fail to grow:
  // that leaks a replaced node at worst, while an obsolete node
  // left reachable would make every writer validating against it restart
  // forever.
  void Publish(const PathLevel* path, unsigned top, unsigned last,
               uint64_t entry) {
    for (unsigned l = top; l <= last; ++l) {
      path[l].node.header()->lock.MarkObsolete();
    }
    StoreSlot(SlotAbove(&root_, path, top), entry);
    for (unsigned l = top; l <= last; ++l) Retire(path[l].node);
    telemetry_.cow_replacements.Add(last - top + 1);
  }

  // Inserts `value` if its key is absent.  Otherwise returns the stored
  // value, and overwrites it when `overwrite`.
  std::optional<uint64_t> Put(uint64_t value, bool overwrite) {
    for (;;) {
      EpochGuard guard(&epochs_);
      std::optional<uint64_t> prev;
      if (TryPut(value, overwrite, &prev)) return prev;
      telemetry_.writer_restarts.Add();
    }
  }

  // One attempt of Put; returns false to restart.
  bool TryPut(uint64_t value, bool overwrite, std::optional<uint64_t>* prev) {
    KeyScratch scratch;
    KeyRef key = InsertKey(extractor_, value, scratch);
    uint64_t tid = HotEntry::MakeTid(value);
    // (a) traverse and plan.
    InsertPlan plan;
    if (!PlanInsert(LoadSlot(&root_), key, extractor_, &plan)) {
      *prev = HotEntry::TidPayload(plan.leaf);
      return !overwrite || SwapLeaf(plan.path, plan.depth, plan.leaf, tid);
    }
    if (plan.pushdown) {
      // The new leaf pair is built before locking; a failed validation
      // frees it unpublished.
      uint64_t entry = BuildPushdown(plan, tid, alloc_);
      if (!SwapLeaf(plan.path, plan.depth, plan.leaf, entry)) {
        if (HotEntry::IsNode(entry)) {
          FreeNode(alloc_, NodeRef::FromEntry(entry));
        }
        return false;
      }
      if (plan.depth > 0) telemetry_.leaf_pushdowns.Add();
    } else {
      if (!LockChain(plan.path, plan.top, plan.target)) return false;
      // (d) The nodes are locked, so their value slots are stable and the
      // builder's plain reads are safe.
      Replacement r;
      try {
        r = BuildInsert(plan, tid, alloc_);
      } catch (...) {
        // Nothing was published or marked obsolete: unlocking restores the
        // pre-insert state.
        UnlockChain(plan.path, plan.top, plan.target);
        throw;
      }
      Publish(plan.path, plan.top, plan.target, r.entry);
      UnlockChain(plan.path, plan.top, plan.target);
      if (r.spliced) telemetry_.fast_splices.Add();
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // One attempt of Remove; returns false to restart.
  bool TryRemove(KeyRef key, bool* removed) {
    PathLevel path[kMaxDepth];
    unsigned depth;
    uint64_t leaf = DescendRecording(LoadSlot(&root_), key, path, &depth);
    *removed = VerifyTerminal(extractor_, leaf, key).has_value();
    if (!*removed) return true;
    if (depth == 0) {
      if (!SwapLeaf(path, 0, leaf, HotEntry::kEmpty)) return false;
    } else {
      // The leaf's owner node is replaced copy-on-write without it.
      unsigned owner = depth - 1;
      if (!LockChain(path, owner, owner)) return false;
      if (LoadSlot(SlotAbove(&root_, path, depth)) != leaf) {
        UnlockChain(path, owner, owner);
        return false;
      }
      uint64_t replacement;
      try {
        replacement = BuildRemove(path[owner], alloc_);
      } catch (...) {
        // The replacement was never built: unlock and leave the key present.
        UnlockChain(path, owner, owner);
        throw;
      }
      Publish(path, owner, owner, replacement);
      UnlockChain(path, owner, owner);
    }
    size_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  KeyExtractor extractor_;
  mutable NodePool alloc_;
  mutable EpochManager epochs_;
  obs::RowexCounters telemetry_;
  RowexLockWord root_lock_;
  uint64_t root_ = HotEntry::kEmpty;  // a slot: atomic loads and stores only
  std::atomic<size_t> size_{0};
};

}  // namespace hot

#endif  // HOT_HOT_ROWEX_H_

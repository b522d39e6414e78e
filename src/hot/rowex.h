// ROWEX-synchronized HOT (paper §5).
//
// Readers are wait-free: they never lock, never restart, and may finish a
// lookup on an obsolete (copy-on-write superseded) node; epoch-based
// reclamation keeps such nodes alive until no reader can observe them.
//
// Writers perform the five steps of Fig. 7:
//   (a) traverse and determine the affected nodes
//       - normal insert:        covering node + its parent (slot write)
//       - leaf-node pushdown:   covering node only (slot write inside it)
//       - overflow:             the pull-up chain up to the first node with
//                               space (all copy-on-write replaced) + the
//                               parent of the last (slot write)
//   (b) lock them bottom-up (a tree-level lock stands in for the root slot)
//   (c) validate that none is obsolete and that the links/slots the plan
//       was computed from are unchanged — otherwise unlock and restart
//   (d) apply the modification: build replacement nodes copy-on-write,
//       publish with release stores into the parent slot, mark replaced
//       nodes obsolete and retire them to the epoch manager
//   (e) unlock top-down.
//
// Node contents other than the 64-bit value slots are immutable after
// publication, so readers only need atomic loads on value slots and on the
// root.

#ifndef HOT_HOT_ROWEX_H_
#define HOT_HOT_ROWEX_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/epoch.h"
#include "common/extractors.h"
#include "hot/batch_lookup.h"
#include "hot/bulk_load.h"
#include "hot/fast_insert.h"
#include "common/key.h"
#include "hot/logical_node.h"
#include "hot/node.h"
#include "hot/node_pool.h"
#include "hot/node_search.h"
#include "hot/validate.h"
#include "obs/telemetry.h"

namespace hot {

template <typename KeyExtractor>
class RowexHotTrie {
  struct PathLevel {
    NodeRef node;
    unsigned idx;
  };

 public:
  explicit RowexHotTrie(KeyExtractor extractor = KeyExtractor(),
                        MemoryCounter* counter = nullptr)
      : extractor_(extractor), alloc_(counter), root_(HotEntry::kEmpty) {}

  ~RowexHotTrie() {
    epochs_.CollectAll();
    FreeSubtree(root_.load(std::memory_order_relaxed));
  }

  RowexHotTrie(const RowexHotTrie&) = delete;
  RowexHotTrie& operator=(const RowexHotTrie&) = delete;

  // --- wait-free reads --------------------------------------------------------

  std::optional<uint64_t> Lookup(KeyRef key) const {
    EpochGuard guard(&epochs_);
    uint64_t cur = root_.load(std::memory_order_acquire);
    while (HotEntry::IsNode(cur)) {
      PrefetchNode(cur);
      NodeRef node = NodeRef::FromEntry(cur);
      unsigned idx = SearchNode(node, key);
      cur = LoadSlot(&node.values()[idx]);
    }
    if (HotEntry::IsEmpty(cur)) return std::nullopt;
    KeyScratch scratch;
    if (extractor_(HotEntry::TidPayload(cur), scratch) == key) {
      return HotEntry::TidPayload(cur);
    }
    return std::nullopt;
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
    assert(out.size() >= keys.size());
    size_t n = keys.size();
    if (n == 0) return;
    EpochGuard guard(&epochs_);
    uint64_t root = root_.load(std::memory_order_acquire);
    if (!HotEntry::IsNode(root)) {
      for (size_t i = 0; i < n; ++i) out[i] = VerifyTerminal(root, keys[i]);
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
    BatchDescend<AcquireSlotLoad>(root, keys.data(), n, terminal, width,
                                  [](uint32_t, NodeRef, unsigned) {});
    for (size_t i = 0; i < n; ++i) {
      out[i] = VerifyTerminal(terminal[i], keys[i]);
    }
  }

  // Visits up to `limit` values with key >= start in key order.  Wait-free
  // with respect to writers; sees some consistent recent state of each
  // traversed node.
  template <typename Fn>
  size_t ScanFrom(KeyRef start, size_t limit, Fn&& fn) const {
    EpochGuard guard(&epochs_);
    PathLevel stack[kMaxDepth];
    unsigned depth = 0;
    uint64_t cur = root_.load(std::memory_order_acquire);
    if (HotEntry::IsEmpty(cur)) return 0;

    if (HotEntry::IsTid(cur)) {
      KeyScratch scratch;
      if (extractor_(HotEntry::TidPayload(cur), scratch).Compare(start) >= 0 &&
          limit > 0) {
        fn(HotEntry::TidPayload(cur));
        return 1;
      }
      return 0;
    }

    // Blind descent, then reposition via the mismatch bit (same algorithm
    // as the single-threaded LowerBound).
    while (HotEntry::IsNode(cur)) {
      NodeRef node = NodeRef::FromEntry(cur);
      unsigned idx = SearchNode(node, start);
      stack[depth++] = {node, idx};
      cur = LoadSlot(&node.values()[idx]);
    }
    KeyScratch scratch;
    KeyRef cand = extractor_(HotEntry::TidPayload(cur), scratch);
    size_t p = FirstMismatchBit(start, cand);
    bool at_entry = false;
    if (p == kNoMismatch) {
      at_entry = true;  // exact hit: current stack position is the start
    } else {
      unsigned target = depth - 1;
      while (target > 0 && RootDiscBit(stack[target].node) > p) --target;
      LogicalNode ln = DecodeShared(stack[target].node);
      bool exists;
      unsigned rank = BitRank(ln, static_cast<unsigned>(p), &exists);
      AffectedRange range = FindAffectedRange(ln, stack[target].idx, rank);
      depth = target;
      NodeRef tnode = stack[target].node;
      if (start.Bit(p) == 0) {
        stack[depth++] = {tnode, range.first};
        cur = DescendEdge(stack, &depth, LoadSlot(&tnode.values()[range.first]),
                          /*leftmost=*/true);
        at_entry = true;
      } else {
        stack[depth++] = {tnode, range.last};
        cur = DescendEdge(stack, &depth, LoadSlot(&tnode.values()[range.last]),
                          /*leftmost=*/false);
        at_entry = false;  // need the successor of this position
      }
    }

    size_t seen = 0;
    if (at_entry && limit > 0) {
      fn(HotEntry::TidPayload(cur));
      ++seen;
    }
    while (seen < limit) {
      // Advance to the next leaf.
      bool advanced = false;
      while (depth > 0) {
        PathLevel& top = stack[depth - 1];
        if (top.idx + 1 < top.node.count()) {
          ++top.idx;
          cur = DescendEdge(stack, &depth,
                            LoadSlot(&top.node.values()[top.idx]),
                            /*leftmost=*/true);
          advanced = true;
          break;
        }
        --depth;
      }
      if (!advanced) break;
      fn(HotEntry::TidPayload(cur));
      ++seen;
    }
    return seen;
  }

  // --- writers ----------------------------------------------------------------

  bool Insert(uint64_t value) {
    for (;;) {
      EpochGuard guard(&epochs_);
      int r = TryInsert(value);
      if (r >= 0) return r != 0;
      // validation failed: restart
      telemetry_.writer_restarts.Add();
    }
  }

  bool Remove(KeyRef key) {
    for (;;) {
      EpochGuard guard(&epochs_);
      int r = TryRemove(key);
      if (r >= 0) return r != 0;
      telemetry_.writer_restarts.Add();
    }
  }

  // Insert-or-overwrite: stores `value` under its extracted key, replacing
  // any value that currently maps to the same key.  Returns the previous
  // value if one was replaced.  Overwrites are in-place slot stores under
  // the owning node's lock (no copy-on-write needed: only the 64-bit value
  // slot changes, which readers already load atomically).
  std::optional<uint64_t> Upsert(uint64_t value) {
    for (;;) {
      EpochGuard guard(&epochs_);
      int r = TryInsert(value);
      if (r == 1) return std::nullopt;
      if (r == 0) {
        std::optional<uint64_t> prev;
        int o = TryOverwrite(value, &prev);
        if (o == 1) return prev;
        // o == 0: the key vanished between the duplicate detection and the
        // overwrite (concurrent Remove) — retry as a fresh insert.
      }
      // restart
      telemetry_.writer_restarts.Add();
    }
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
    uint64_t root = detail::ParallelBulkBuild(extractor_, values, n, alloc_,
                                              threads);
    root_.store(root, std::memory_order_release);
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

  // Quiescent-only introspection (no concurrent writers).
  void ForEachLeaf(
      const std::function<void(unsigned depth, uint64_t value)>& fn) const {
    LeafRec(root_.load(std::memory_order_acquire), 0, fn);
  }

  // Visits every compound node with its depth (root nodes have depth 1);
  // same contract as HotTrie::ForEachNode.  Quiescent-only.
  void ForEachNode(
      const std::function<void(NodeRef, unsigned depth)>& fn) const {
    NodeRec(root_.load(std::memory_order_acquire), 1, fn);
  }

  // Checks every structural invariant of the current tree.  Quiescent-only
  // (the stress tests call this at round barriers); expensive — test/debug
  // use.
  bool Validate(std::string* error) const {
    return ValidateHotTree(root_.load(std::memory_order_acquire), extractor_,
                           size(), error);
  }

  // Quiescent-only root snapshot for external checkers (testing/audit.h
  // walks the tree through the same tagged-entry view as validate.h).
  uint64_t root_entry() const {
    return root_.load(std::memory_order_acquire);
  }

  const KeyExtractor& extractor() const { return extractor_; }

 private:
  static uint64_t LoadSlot(const uint64_t* slot) {
    return AcquireSlotLoad::Load(slot);
  }

  std::optional<uint64_t> VerifyTerminal(uint64_t entry, KeyRef key) const {
    if (HotEntry::IsEmpty(entry)) return std::nullopt;
    KeyScratch scratch;
    if (extractor_(HotEntry::TidPayload(entry), scratch) == key) {
      return HotEntry::TidPayload(entry);
    }
    return std::nullopt;
  }
  static void StoreSlot(uint64_t* slot, uint64_t value) {
    std::atomic_ref<uint64_t>(*slot).store(value, std::memory_order_release);
  }

  // Decode for read-side use: value slots are loaded atomically.
  static LogicalNode DecodeShared(NodeRef node) {
    LogicalNode ln;
    ln.height = node.height();
    ln.count = node.count();
    ln.num_bits = DecodeBitPositions(node, ln.bits);
    unsigned shift = 32 - ln.num_bits;
    for (unsigned i = 0; i < ln.count; ++i) {
      ln.sparse[i] = node.PartialKeyAt(i) << shift;
      ln.entries[i] = LoadSlot(&node.values()[i]);
    }
    return ln;
  }

  uint64_t DescendEdge(PathLevel* stack, unsigned* depth, uint64_t entry,
                       bool leftmost) const {
    while (HotEntry::IsNode(entry)) {
      NodeRef node = NodeRef::FromEntry(entry);
      unsigned idx = leftmost ? 0 : node.count() - 1;
      stack[*depth] = {node, idx};
      ++*depth;
      entry = LoadSlot(&node.values()[idx]);
    }
    return entry;
  }

  void Retire(NodeRef node) {
    // Pack pool + node into a heap context (nodes cannot be freed inline:
    // readers may still traverse them).  Callers retire only after the
    // replacement is published, so if the bookkeeping itself runs out of
    // memory the node is leaked rather than letting an exception escape
    // past the publication point with locks still held.
    RetireCtx* ctx = nullptr;
    try {
      ctx = new RetireCtx{&alloc_, node.raw(), node.type()};
      epochs_.Retire(ctx, [](void* p) {
        auto* c = static_cast<RetireCtx*>(p);
        NodeRef n(c->raw, c->type);
        FreeNode(*c->pool, n);
        delete c;
      });
    } catch (const std::bad_alloc&) {
      delete ctx;
    }
  }

  struct RetireCtx {
    NodePool* pool;
    void* raw;
    NodeType type;
  };

  // Returns 1 inserted, 0 duplicate, -1 restart.
  int TryInsert(uint64_t value) {
    KeyScratch scratch;
    KeyRef key = extractor_(value, scratch);
    if (key.size() > kMaxKeyBytes) {
      throw std::invalid_argument("RowexHotTrie: keys longer than 256 bytes");
    }
    if ((value >> 63) != 0) {
      throw std::invalid_argument("RowexHotTrie: values must be 63-bit");
    }
    uint64_t root = root_.load(std::memory_order_acquire);

    if (!HotEntry::IsNode(root)) {
      root_lock_.Lock();
      if (root_.load(std::memory_order_relaxed) != root) {
        root_lock_.Unlock();
        return -1;
      }
      int result = 1;
      if (HotEntry::IsEmpty(root)) {
        root_.store(HotEntry::MakeTid(value), std::memory_order_release);
      } else {
        KeyScratch existing_scratch;
        KeyRef existing =
            extractor_(HotEntry::TidPayload(root), existing_scratch);
        size_t p = FirstMismatchBit(key, existing);
        if (p == kNoMismatch) {
          result = 0;
        } else {
          uint64_t tid = HotEntry::MakeTid(value);
          LogicalNode two = key.Bit(p) ? MakeTwoEntryNode(p, root, tid, 1)
                                       : MakeTwoEntryNode(p, tid, root, 1);
          uint64_t entry;
          try {
            entry = Encode(two, alloc_).ToEntry();
          } catch (...) {
            // Allocation failed before anything was published: the tree is
            // untouched, just release the lock.
            root_lock_.Unlock();
            throw;
          }
          root_.store(entry, std::memory_order_release);
        }
      }
      root_lock_.Unlock();
      if (result == 1) size_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }

    // (a) traverse.
    PathLevel path[kMaxDepth];
    unsigned depth = 0;
    uint64_t cur = root;
    while (HotEntry::IsNode(cur)) {
      PrefetchNode(cur);
      NodeRef node = NodeRef::FromEntry(cur);
      unsigned idx = SearchNode(node, key);
      path[depth++] = {node, idx};
      cur = LoadSlot(&node.values()[idx]);
    }
    KeyScratch existing_scratch;
    KeyRef existing = extractor_(HotEntry::TidPayload(cur), existing_scratch);
    size_t p = FirstMismatchBit(key, existing);
    if (p == kNoMismatch) return 0;
    unsigned key_bit = key.Bit(p);
    uint64_t tid = HotEntry::MakeTid(value);

    unsigned target = depth - 1;
    while (target > 0 && RootDiscBit(path[target].node) > p) --target;

    // Classify: pushdown needs the affected range, which is immutable node
    // metadata (masks/partial keys), safe to read unlocked.
    LogicalNode probe = DecodeShared(path[target].node);
    bool exists;
    unsigned rank = BitRank(probe, static_cast<unsigned>(p), &exists);
    AffectedRange range = FindAffectedRange(probe, path[target].idx, rank);
    bool pushdown = range.first == range.last &&
                    HotEntry::IsTid(probe.entries[range.first]) &&
                    probe.height > 1;

    if (pushdown) {
      NodeRef tnode = path[target].node;
      tnode.header()->lock.Lock();
      uint64_t* slot = &tnode.values()[range.first];
      uint64_t old_leaf = probe.entries[range.first];
      if (tnode.header()->lock.IsObsolete() || LoadSlot(slot) != old_leaf) {
        tnode.header()->lock.Unlock();
        return -1;
      }
      LogicalNode two = key_bit ? MakeTwoEntryNode(p, old_leaf, tid, 1)
                                : MakeTwoEntryNode(p, tid, old_leaf, 1);
      uint64_t entry;
      try {
        entry = Encode(two, alloc_).ToEntry();
      } catch (...) {
        tnode.header()->lock.Unlock();
        throw;
      }
      StoreSlot(slot, entry);
      tnode.header()->lock.Unlock();
      telemetry_.leaf_pushdowns.Add();
      size_.fetch_add(1, std::memory_order_relaxed);
      return 1;
    }

    // Plan the copy-on-write chain: [target .. cow_top] are replaced, the
    // slot written lives in cow_top's parent (or the root slot).
    unsigned cow_top = target;
    for (;;) {
      if (path[cow_top].node.count() < kMaxFanout) break;  // absorbs here
      if (cow_top == 0) break;                             // root grows
      unsigned h = path[cow_top].node.height();
      unsigned ph = path[cow_top - 1].node.height();
      if (h + 1 == ph) {
        --cow_top;  // parent pull-up continues the chain
        continue;
      }
      break;  // intermediate node creation terminates the chain
    }
    // NOTE: cow_top found by the same conditions HandleOverflowLocked will
    // re-derive; they agree because counts/heights are immutable per node.

    // (b) lock bottom-up: target .. cow_top, then the slot holder.
    bool root_slot = cow_top == 0;
    for (unsigned lvl = target + 1; lvl-- > cow_top;) {
      path[lvl].node.header()->lock.Lock();
    }
    if (root_slot) {
      root_lock_.Lock();
    } else {
      path[cow_top - 1].node.header()->lock.Lock();
    }

    auto unlock_all = [&] {
      if (root_slot) {
        root_lock_.Unlock();
      } else {
        path[cow_top - 1].node.header()->lock.Unlock();
      }
      for (unsigned lvl = cow_top; lvl <= target; ++lvl) {
        path[lvl].node.header()->lock.Unlock();
      }
    };

    // (c) validate.
    bool ok = true;
    for (unsigned lvl = cow_top; lvl <= target && ok; ++lvl) {
      ok = !path[lvl].node.header()->lock.IsObsolete();
    }
    if (ok && !root_slot) {
      ok = !path[cow_top - 1].node.header()->lock.IsObsolete();
    }
    // Links: slot-holder -> cow_top -> ... -> target.
    if (ok && root_slot) {
      ok = root_.load(std::memory_order_acquire) == path[0].node.ToEntry();
    }
    if (ok && !root_slot) {
      ok = LoadSlot(&path[cow_top - 1].node.values()[path[cow_top - 1].idx]) ==
           path[cow_top].node.ToEntry();
    }
    for (unsigned lvl = cow_top; lvl < target && ok; ++lvl) {
      ok = LoadSlot(&path[lvl].node.values()[path[lvl].idx]) ==
           path[lvl + 1].node.ToEntry();
    }
    if (!ok) {
      unlock_all();
      return -1;
    }

    // (d) modify.  Common case first: the §4.4 physical splice (no layout
    // change, no overflow) — the node is locked, so its value slots are
    // stable and plain reads inside TryPhysicalInsert are safe.
    if (cow_top == target && path[target].node.count() < kMaxFanout) {
      PhysicalInsertInfo info{rank, exists, range.first, range.last};
      uint64_t fast;
      try {
        fast = TryPhysicalInsert(path[target].node, info,
                                 static_cast<unsigned>(p), key_bit, tid,
                                 alloc_);
      } catch (...) {
        // The replacement node was never allocated; nothing was published
        // or marked obsolete, so unlocking restores the pre-insert state.
        unlock_all();
        throw;
      }
      if (fast != HotEntry::kEmpty) {
        // Publish before Retire: Retire heap-allocates its context, and a
        // throw after publication at worst leaks the replaced node, while a
        // throw before it would leave an obsolete node reachable (writers
        // validating against it would restart forever).
        path[target].node.header()->lock.MarkObsolete();
        if (root_slot) {
          root_.store(fast, std::memory_order_release);
        } else {
          StoreSlot(&path[cow_top - 1].node.values()[path[cow_top - 1].idx],
                    fast);
        }
        Retire(path[target].node);
        unlock_all();
        telemetry_.fast_splices.Add();
        telemetry_.cow_replacements.Add();
        size_.fetch_add(1, std::memory_order_relaxed);
        return 1;
      }
    }

    // General path: logical insert, then resolve overflow along the locked
    // chain.  Publication is a single release store into the slot holder.
    // Every freshly encoded node is tracked so an allocation failure can
    // free the unpublished partial chain and leave the tree untouched
    // (each chain level encodes at most two halves plus one final node).
    uint64_t fresh[2 * kMaxDepth + 2];
    unsigned n_fresh = 0;
    auto encode_fresh = [&](LogicalNode& n) {
      uint64_t e = Encode(n, alloc_).ToEntry();
      fresh[n_fresh++] = e;
      return e;
    };
    auto encode_half_fresh = [&](LogicalNode& half) {
      return half.count == 1 ? half.entries[0] : encode_fresh(half);
    };

    LogicalNode ln = Decode(path[target].node);
    LogicalInsert(ln, path[target].idx, static_cast<unsigned>(p), key_bit,
                  tid);
    unsigned level = target;
    uint64_t publish;
    try {
      for (;;) {
        if (ln.count <= kMaxFanout) {
          publish = encode_fresh(ln);
          break;
        }
        SplitResult split = Split(ln);
        uint64_t left_entry = encode_half_fresh(split.left);
        uint64_t right_entry = encode_half_fresh(split.right);
        unsigned h =
            1 + std::max(EntryHeight(left_entry), EntryHeight(right_entry));
        if (level == 0) {
          LogicalNode new_root =
              MakeTwoEntryNode(split.bit_pos, left_entry, right_entry, h);
          publish = encode_fresh(new_root);
          break;
        }
        if (ln.height + 1 == path[level - 1].node.height()) {
          LogicalNode pl = Decode(path[level - 1].node);
          ReplaceEntryWithTwo(pl, path[level - 1].idx, split.bit_pos,
                              left_entry, right_entry);
          ln = pl;
          --level;
          continue;
        }
        LogicalNode intermediate =
            MakeTwoEntryNode(split.bit_pos, left_entry, right_entry, h);
        publish = encode_fresh(intermediate);
        break;
      }
    } catch (...) {
      // Nothing built here was published and no node was marked obsolete:
      // free the partial replacement chain (FreeNode is per-node, so shared
      // non-fresh children are untouched) and restore the pre-insert state.
      for (unsigned i = 0; i < n_fresh; ++i) {
        FreeNode(alloc_, NodeRef::FromEntry(fresh[i]));
      }
      unlock_all();
      throw;
    }
    assert(level == cow_top);

    // Mark every replaced node obsolete, publish, then retire the replaced
    // chain (publication first — see the fast path above).
    for (unsigned lvl = cow_top; lvl <= target; ++lvl) {
      path[lvl].node.header()->lock.MarkObsolete();
    }
    if (root_slot) {
      root_.store(publish, std::memory_order_release);
    } else {
      StoreSlot(&path[cow_top - 1].node.values()[path[cow_top - 1].idx],
                publish);
    }
    for (unsigned lvl = cow_top; lvl <= target; ++lvl) {
      Retire(path[lvl].node);
    }
    telemetry_.cow_replacements.Add(target - cow_top + 1);

    // (e) unlock (top-down order; obsolete nodes' locks are dead anyway).
    unlock_all();
    size_.fetch_add(1, std::memory_order_relaxed);
    return 1;
  }

  // Returns 1 overwritten (previous value in *prev), 0 key not found,
  // -1 restart.  Called by Upsert after TryInsert reported a duplicate.
  int TryOverwrite(uint64_t value, std::optional<uint64_t>* prev) {
    KeyScratch scratch;
    KeyRef key = extractor_(value, scratch);
    uint64_t root = root_.load(std::memory_order_acquire);
    if (HotEntry::IsEmpty(root)) return 0;

    if (HotEntry::IsTid(root)) {
      KeyScratch existing_scratch;
      if (!(extractor_(HotEntry::TidPayload(root), existing_scratch) == key)) {
        return 0;
      }
      root_lock_.Lock();
      bool same = root_.load(std::memory_order_relaxed) == root;
      if (same) {
        root_.store(HotEntry::MakeTid(value), std::memory_order_release);
      }
      root_lock_.Unlock();
      if (!same) return -1;
      *prev = HotEntry::TidPayload(root);
      return 1;
    }

    NodeRef node;
    unsigned idx = 0;
    uint64_t cur = root;
    while (HotEntry::IsNode(cur)) {
      PrefetchNode(cur);
      node = NodeRef::FromEntry(cur);
      idx = SearchNode(node, key);
      cur = LoadSlot(&node.values()[idx]);
    }
    KeyScratch existing_scratch;
    if (HotEntry::IsEmpty(cur) ||
        !(extractor_(HotEntry::TidPayload(cur), existing_scratch) == key)) {
      return 0;
    }

    node.header()->lock.Lock();
    uint64_t* slot = &node.values()[idx];
    // A changed slot covers both a concurrent value change and a pushdown
    // that replaced the leaf with a node; obsolete means the whole node was
    // superseded copy-on-write.
    if (node.header()->lock.IsObsolete() || LoadSlot(slot) != cur) {
      node.header()->lock.Unlock();
      return -1;
    }
    StoreSlot(slot, HotEntry::MakeTid(value));
    node.header()->lock.Unlock();
    *prev = HotEntry::TidPayload(cur);
    return 1;
  }

  // Returns 1 removed, 0 not found, -1 restart.
  int TryRemove(KeyRef key) {
    uint64_t root = root_.load(std::memory_order_acquire);
    if (HotEntry::IsEmpty(root)) return 0;
    if (HotEntry::IsTid(root)) {
      KeyScratch scratch;
      if (!(extractor_(HotEntry::TidPayload(root), scratch) == key)) return 0;
      root_lock_.Lock();
      bool same = root_.load(std::memory_order_relaxed) == root;
      if (same) root_.store(HotEntry::kEmpty, std::memory_order_release);
      root_lock_.Unlock();
      if (!same) return -1;
      size_.fetch_sub(1, std::memory_order_relaxed);
      return 1;
    }

    PathLevel path[kMaxDepth];
    unsigned depth = 0;
    uint64_t cur = root;
    while (HotEntry::IsNode(cur)) {
      NodeRef node = NodeRef::FromEntry(cur);
      unsigned idx = SearchNode(node, key);
      path[depth++] = {node, idx};
      cur = LoadSlot(&node.values()[idx]);
    }
    KeyScratch scratch;
    if (HotEntry::IsEmpty(cur) ||
        !(extractor_(HotEntry::TidPayload(cur), scratch) == key)) {
      return 0;
    }

    unsigned leaf_level = depth - 1;
    bool root_slot = leaf_level == 0;
    path[leaf_level].node.header()->lock.Lock();
    if (root_slot) {
      root_lock_.Lock();
    } else {
      path[leaf_level - 1].node.header()->lock.Lock();
    }
    auto unlock_all = [&] {
      if (root_slot) {
        root_lock_.Unlock();
      } else {
        path[leaf_level - 1].node.header()->lock.Unlock();
      }
      path[leaf_level].node.header()->lock.Unlock();
    };

    bool ok = !path[leaf_level].node.header()->lock.IsObsolete();
    if (ok && !root_slot) {
      ok = !path[leaf_level - 1].node.header()->lock.IsObsolete() &&
           LoadSlot(&path[leaf_level - 1]
                         .node.values()[path[leaf_level - 1].idx]) ==
               path[leaf_level].node.ToEntry();
    }
    if (ok && root_slot) {
      ok = root_.load(std::memory_order_acquire) == path[0].node.ToEntry();
    }
    if (ok) {
      ok = LoadSlot(&path[leaf_level].node.values()[path[leaf_level].idx]) ==
           cur;
    }
    if (!ok) {
      unlock_all();
      return -1;
    }

    LogicalNode ln = Decode(path[leaf_level].node);
    RemoveEntry(ln, path[leaf_level].idx);
    uint64_t replacement;
    try {
      replacement =
          ln.count == 1 ? ln.entries[0] : Encode(ln, alloc_).ToEntry();
    } catch (...) {
      // The replacement was never built: unlock and leave the key present.
      unlock_all();
      throw;
    }
    path[leaf_level].node.header()->lock.MarkObsolete();
    if (root_slot) {
      root_.store(replacement, std::memory_order_release);
    } else {
      StoreSlot(&path[leaf_level - 1].node.values()[path[leaf_level - 1].idx],
                replacement);
    }
    Retire(path[leaf_level].node);
    telemetry_.cow_replacements.Add();
    unlock_all();
    size_.fetch_sub(1, std::memory_order_relaxed);
    return 1;
  }

  void NodeRec(uint64_t entry, unsigned depth,
               const std::function<void(NodeRef, unsigned)>& fn) const {
    if (!HotEntry::IsNode(entry)) return;
    NodeRef node = NodeRef::FromEntry(entry);
    fn(node, depth);
    for (unsigned i = 0; i < node.count(); ++i) {
      NodeRec(node.values()[i], depth + 1, fn);
    }
  }

  void LeafRec(uint64_t entry, unsigned depth,
               const std::function<void(unsigned, uint64_t)>& fn) const {
    if (HotEntry::IsEmpty(entry)) return;
    if (HotEntry::IsTid(entry)) {
      fn(depth, HotEntry::TidPayload(entry));
      return;
    }
    NodeRef node = NodeRef::FromEntry(entry);
    for (unsigned i = 0; i < node.count(); ++i) {
      LeafRec(node.values()[i], depth + 1, fn);
    }
  }

  void FreeSubtree(uint64_t entry) {
    if (!HotEntry::IsNode(entry)) return;
    NodeRef node = NodeRef::FromEntry(entry);
    for (unsigned i = 0; i < node.count(); ++i) FreeSubtree(node.values()[i]);
    FreeNode(alloc_, node);
  }

  KeyExtractor extractor_;
  mutable NodePool alloc_;
  mutable EpochManager epochs_;
  obs::RowexCounters telemetry_;
  RowexLockWord root_lock_;
  std::atomic<uint64_t> root_;
  std::atomic<size_t> size_{0};
};

}  // namespace hot

#endif  // HOT_HOT_ROWEX_H_

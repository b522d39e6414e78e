// Node pool: size-class free lists over arena chunks for HOT's
// copy-on-write nodes — striped per thread.  Every HOT node of both tries
// is allocated from and freed to one (hot/node.h AllocateNode / FreeNode).
//
// Every insert replaces one node (§4.2 copy-on-write), so node allocation
// and deallocation sit directly on the insert path; general-purpose
// aligned_alloc/free dominate the cost.  The pool carves 16-byte-aligned
// blocks (the tagged node pointer needs 4 low bits) from 256 KiB arena
// chunks and recycles freed blocks in per-size-class free lists.
//
// Thread layout: the pool is split into kStripes cache-line-padded stripes;
// a thread operates on stripe CurrentThreadIndex() % kStripes at every
// call.  Each stripe owns its free lists AND its bump arena, so the threads
// that share one pool — ROWEX writers, epoch reclamation freeing retired
// nodes on whichever thread drains limbo, and the parallel bulk build's
// workers — neither contend on a shared head nor false-share adjacent list
// pointers.  Thread indexes are dense and handed out on a thread's first
// allocation, so up to kStripes freshly started bulk-build workers land on
// distinct stripes.  Chunks are malloc'd and first-written by the
// allocating thread, so a worker's pages land on its NUMA node (first-touch
// placement).
//
// Cross-thread frees are the interesting case: ROWEX epoch reclamation
// frees a node on whichever thread drains the limbo list, not the thread
// that allocated it.  A free always lands in the *freeing* thread's stripe
// (O(1), local); when an allocating stripe runs dry it steals a bounded
// batch from a sibling stripe before carving fresh arena — the global
// fallback that keeps a produce-on-A/free-on-B pattern from growing the
// arena without bound.  A per-stripe nonempty-class bitmask makes the
// steal probe a few relaxed loads, so cold-start misses stay cheap.
//
// Accounting: the owning MemoryCounter sees the rounded block size (what
// the structure actually occupies), so Fig. 9 numbers include the <=8-byte
// class padding.  Identity (telemetry_test): hits + carves == allocations,
// steals <= hits.

#ifndef HOT_HOT_NODE_POOL_H_
#define HOT_HOT_NODE_POOL_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/alloc.h"
#include "common/locks.h"
#include "common/thread.h"
#include "obs/stat_counter.h"

namespace hot {

class NodePool {
 public:
  static constexpr size_t kGranularity = 16;
  static constexpr size_t kMaxPooledBytes = 1024;
  static constexpr size_t kChunkBytes = 1 << 18;
  static constexpr size_t kStripes = 16;     // power of two
  static constexpr size_t kStealBatch = 16;  // blocks migrated per steal

  explicit NodePool(MemoryCounter* counter) : counter_(counter) {}

  ~NodePool() {
    for (void* chunk : chunks_) std::free(chunk);
  }

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  // A kGranularity-aligned block of at least `bytes` bytes, from the
  // calling thread's stripe.
  void* Allocate(size_t bytes) {
    size_t stripe = CurrentThreadIndex() & (kStripes - 1);
    AllocFaultInjector::MaybeFail();
    size_t cls = ClassOf(bytes);
    size_t rounded = cls * kGranularity;
    Stripe& home = stripes_[stripe];

    void* block = PopLocal(home, cls);
    if (block == nullptr) block = StealFromSiblings(home, cls);
    if (block != nullptr) {
      home.hits.Add();
    } else {
      block = CarveBlock(home, rounded);
      home.carves.Add();
    }
    if (counter_ != nullptr) counter_->OnAlloc(rounded);
    return block;
  }

  // Returns a block of `bytes` bytes to the calling thread's stripe.
  void Free(void* ptr, size_t bytes) {
    size_t stripe = CurrentThreadIndex() & (kStripes - 1);
    if (ptr == nullptr) return;
    size_t cls = ClassOf(bytes);
    if (counter_ != nullptr) counter_->OnFree(cls * kGranularity);
    Stripe& home = stripes_[stripe];
    SpinGuard guard(&home.lock);
    *static_cast<void**>(ptr) = home.free_heads[cls];
    home.free_heads[cls] = ptr;
    if (!MaskHas(home, cls)) MaskSet(home, cls);
  }

  MemoryCounter* counter() const { return counter_; }

  // Bytes held in arena chunks (live nodes + free lists + bump slack).
  size_t ArenaBytes() const {
    return chunk_count_.load(std::memory_order_relaxed) * kChunkBytes;
  }

  // Telemetry (obs/telemetry.h): allocations served from a free list vs
  // bump-carved from an arena, plus cross-stripe steals (free-list hits
  // whose blocks were recycled by a *different* thread's stripe — the
  // produce-here/free-there migration signal).
  struct Stats {
    uint64_t hits = 0;
    uint64_t carves = 0;
    uint64_t steals = 0;
    // Per-stripe arena carves: parallel bulk workers, each a fresh thread,
    // spread the carve counts across their stripes (the checkable form of
    // the first-touch claim); a single-threaded build concentrates in one.
    std::array<uint64_t, kStripes> stripe_carves = {};

    // Stripes that carved at least one arena block.
    size_t ActiveStripes() const {
      size_t n = 0;
      for (uint64_t c : stripe_carves) n += c != 0;
      return n;
    }
  };
  Stats stats() const {
    Stats s;
    for (size_t i = 0; i < kStripes; ++i) {
      const Stripe& st = stripes_[i];
      s.hits += st.hits.value();
      s.carves += st.carves.value();
      s.steals += st.steals.value();
      s.stripe_carves[i] = st.carves.value();
    }
    return s;
  }

 private:
  static constexpr size_t kNumClasses = kMaxPooledBytes / kGranularity + 1;
  static_assert(kNumClasses <= 65, "nonempty bitmask holds classes 1..64");
  static_assert((kStripes & (kStripes - 1)) == 0, "kStripes is a power of 2");

  struct SpinGuard {
    explicit SpinGuard(std::atomic_flag* flag) : flag_(flag) {
      while (flag_->test_and_set(std::memory_order_acquire)) CpuRelax();
    }
    ~SpinGuard() { flag_->clear(std::memory_order_release); }
    std::atomic_flag* flag_;
  };

  // One thread stripe, padded so no two stripes share a cache line.  The
  // nonempty mask (bit cls-1) is written under the stripe lock but read
  // lock-free by stealing siblings.
  struct alignas(64) Stripe {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    std::atomic<uint64_t> nonempty{0};
    void* free_heads[kNumClasses] = {};
    uint8_t* bump = nullptr;
    uint8_t* bump_end = nullptr;
    obs::StatCounter hits;
    obs::StatCounter carves;
    obs::StatCounter steals;
  };

  static bool MaskHas(const Stripe& s, size_t cls) {
    return (s.nonempty.load(std::memory_order_relaxed) >> (cls - 1)) & 1u;
  }
  static void MaskSet(Stripe& s, size_t cls) {
    s.nonempty.fetch_or(uint64_t{1} << (cls - 1), std::memory_order_relaxed);
  }
  static void MaskClear(Stripe& s, size_t cls) {
    s.nonempty.fetch_and(~(uint64_t{1} << (cls - 1)),
                         std::memory_order_relaxed);
  }

  static size_t ClassOf(size_t bytes) {
    size_t cls = (bytes + kGranularity - 1) / kGranularity;
    assert(cls >= 1 && cls < kNumClasses && "node size exceeds pool classes");
    return cls;
  }

  void* PopLocal(Stripe& stripe, size_t cls) {
    SpinGuard guard(&stripe.lock);
    void* head = stripe.free_heads[cls];
    if (head == nullptr) return nullptr;
    stripe.free_heads[cls] = *static_cast<void**>(head);
    if (stripe.free_heads[cls] == nullptr) MaskClear(stripe, cls);
    return head;
  }

  // Global fallback: migrate up to kStealBatch blocks of `cls` from the
  // first sibling stripe advertising a nonempty list.  Never holds two
  // stripe locks at once (no ordering, no deadlock): victim blocks are
  // detached into a local array, then repushed under the home lock.
  void* StealFromSiblings(Stripe& home, size_t cls) {
    for (size_t step = 1; step < kStripes; ++step) {
      Stripe& victim =
          stripes_[(StripeIndexOf(home) + step) & (kStripes - 1)];
      if (!MaskHas(victim, cls)) continue;
      void* batch[kStealBatch];
      size_t got = 0;
      {
        SpinGuard guard(&victim.lock);
        void* head = victim.free_heads[cls];
        while (head != nullptr && got < kStealBatch) {
          batch[got++] = head;
          head = *static_cast<void**>(head);
        }
        victim.free_heads[cls] = head;
        if (head == nullptr) MaskClear(victim, cls);
      }
      if (got == 0) continue;  // raced with the victim draining it
      home.steals.Add();
      if (got > 1) {
        SpinGuard guard(&home.lock);
        for (size_t i = 1; i < got; ++i) {
          *static_cast<void**>(batch[i]) = home.free_heads[cls];
          home.free_heads[cls] = batch[i];
        }
        if (!MaskHas(home, cls)) MaskSet(home, cls);
      }
      return batch[0];
    }
    return nullptr;
  }

  void* CarveBlock(Stripe& stripe, size_t rounded) {
    SpinGuard guard(&stripe.lock);
    if (stripe.bump == nullptr || stripe.bump + rounded > stripe.bump_end) {
      void* chunk = std::aligned_alloc(kGranularity, kChunkBytes);
      if (chunk == nullptr) throw std::bad_alloc();
      try {
        SpinGuard chunks_guard(&chunks_lock_);
        chunks_.push_back(chunk);
      } catch (...) {
        std::free(chunk);
        throw;
      }
      chunk_count_.fetch_add(1, std::memory_order_relaxed);
      stripe.bump = static_cast<uint8_t*>(chunk);
      stripe.bump_end = stripe.bump + kChunkBytes;
    }
    void* block = stripe.bump;
    stripe.bump += rounded;
    return block;
  }

  size_t StripeIndexOf(const Stripe& s) const {
    return static_cast<size_t>(&s - stripes_);
  }

  MemoryCounter* counter_;
  Stripe stripes_[kStripes];
  std::atomic_flag chunks_lock_ = ATOMIC_FLAG_INIT;
  std::atomic<size_t> chunk_count_{0};
  std::vector<void*> chunks_;
};

}  // namespace hot

#endif  // HOT_HOT_NODE_POOL_H_

// Epoch-based memory reclamation (paper §5).
//
// ROWEX writers replace nodes copy-on-write and mark the old versions
// obsolete instead of freeing them, because wait-free readers may still be
// traversing them.  Obsolete nodes are retired into per-thread limbo lists
// stamped with the global epoch; a retired node is physically freed once
// every registered thread has been observed in a later epoch (or quiescent).
//
// Usage:
//   EpochManager epochs;
//   {
//     EpochGuard guard(&epochs);        // pins the current epoch
//     ... read or modify the tree ...
//     epochs.Retire(ptr, deleter);      // defer free of a replaced node
//   }                                    // unpins; may trigger collection
//
// The design follows the classic three-epoch scheme (Fraser; also used by
// Masstree and the Bw-tree): collection only needs e_global to have advanced
// twice past the retire epoch.
//
// Thread registration: each thread lazily claims one of kMaxThreads epoch
// slots per manager and releases it when the thread exits (the release is
// routed through a process-wide table of live managers, so a thread that
// outlives a manager never touches freed slots).  When every slot is taken,
// additional threads block in AcquireSlot until a registered thread exits —
// never sharing a slot, since two threads pinning through one slot could
// each overwrite the other's pin and allow premature reclamation.
//
// Guards nest: a per-slot depth counter makes only the outermost
// Enter/Leave pair pin/unpin, so an inner guard cannot clobber the epoch an
// outer guard still depends on.
//
// Destruction requires quiescence: no thread may be inside Enter/Leave or
// blocked in AcquireSlot while the manager is destroyed (threads may still
// *exit* later; their slot release checks the live-manager table).

#ifndef HOT_COMMON_EPOCH_H_
#define HOT_COMMON_EPOCH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/stat_counter.h"

namespace hot {

class EpochManager {
 public:
  static constexpr uint64_t kIdle = ~0ULL;
  static constexpr size_t kMaxThreads = 256;

  EpochManager() {
    for (auto& slot : slots_) {
      slot.epoch.store(kIdle, std::memory_order_relaxed);
      slot.used.store(false, std::memory_order_relaxed);
      slot.depth.store(0, std::memory_order_relaxed);
    }
    AliveRegistry& alive = AliveRegistry::Instance();
    std::lock_guard<std::mutex> lock(alive.mu);
    alive.ids.insert(id_);
  }

  ~EpochManager() {
    {
      AliveRegistry& alive = AliveRegistry::Instance();
      std::lock_guard<std::mutex> lock(alive.mu);
      alive.ids.erase(id_);
    }
    CollectAll();
  }

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // Registers the calling thread (idempotent) and returns its slot index.
  // Blocks while all kMaxThreads slots are taken by live threads.  Identity
  // is checked via a process-unique manager id, not the address: a new
  // manager may be constructed at a previous one's address, which must not
  // revive stale registrations.
  size_t RegisterThread() {
    ThreadRegistry& reg = LocalRegistry();
    for (const auto& e : reg.entries) {
      if (e.manager == this && e.manager_id == id_) return e.slot;
    }
    reg.PruneDead();
    size_t idx = AcquireSlot();
    reg.entries.push_back({this, id_, idx});
    return idx;
  }

  void Enter() {
    size_t slot = RegisterThread();
    Slot& s = slots_[slot];
    // Nested guard: the outer pin already protects everything this thread
    // can observe; re-pinning at a newer epoch would lose that protection.
    if (s.depth.fetch_add(1, std::memory_order_relaxed) > 0) return;
    // Pinning an epoch older than the current one only holds back more
    // garbage, so a global advance after this load needs no re-pin — and a
    // re-pin would be a second store the fence below has to cover.
    s.epoch.store(global_epoch_.load(std::memory_order_acquire),
                  std::memory_order_release);
    // The pin must be visible before this thread loads any tree pointer.
    // A release store orders only what came BEFORE it: the caller's later
    // loads may still complete while the store sits in the store buffer
    // (C++ allows this store->load reordering, and so does x86-TSO).  A
    // collector scanning the slots in that window would see this thread
    // idle and free a node the thread has just loaded.  This seq_cst fence
    // pairs with the one in Retire (crossbeam-epoch's pin does the same);
    // the argument is written there.
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void Leave() {
    size_t slot = RegisterThread();
    Slot& s = slots_[slot];
    // Only the outermost guard unpins.
    if (s.depth.fetch_sub(1, std::memory_order_relaxed) > 1) return;
    s.epoch.store(kIdle, std::memory_order_release);
    MaybeCollect(slot);
  }

  // Defers destruction of `ptr` until no thread can still observe it.  The
  // caller must have unlinked `ptr` (made it unreachable to new readers)
  // before the call.
  void Retire(void* ptr, void (*deleter)(void*)) {
    size_t slot = RegisterThread();
    auto& local = limbo_[slot];
    // This fence pairs with the one in Enter; of the two, one comes first
    // in the single total order of seq_cst operations, and either way no
    // reader pinned at p can be left holding `ptr` when it is freed:
    //  - Enter's fence first.  The tag loaded below is then >= p: a tag
    //    older than the epoch the reader loaded before its fence would
    //    put this fence first.  Every Collect of this item runs after this
    //    fence (on this thread, or on the slot's next owner through the
    //    ReleaseSlot/AcquireSlot hand-off), so its slot scan reads the pin
    //    or a later value of the reader's slot.  The pin keeps
    //    min_active <= p < tag + 2, so the item stays; a later value is
    //    the reader's release-store unpin (or a later pin), which orders
    //    all of the pinned section's loads before the free.
    //  - This fence first.  The reader's tree loads follow its fence, so
    //    they see the unlink, and `ptr` is out of their reach.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    local.items.push_back(
        {ptr, deleter, global_epoch_.load(std::memory_order_acquire)});
    retired_total_.Add();
    if (local.items.size() >= kCollectThreshold) {
      AdvanceEpoch();
    }
  }

  // Frees every retired object whose epoch is at least two epochs old.
  // Called automatically from Leave(); exposed for tests.
  void Collect(size_t slot) {
    uint64_t min_active = MinActiveEpoch();
    auto& local = limbo_[slot];
    size_t kept = 0;
    for (size_t i = 0; i < local.items.size(); ++i) {
      const auto& item = local.items[i];
      if (item.epoch + 2 <= min_active || min_active == kIdle) {
        item.deleter(item.ptr);
        reclaimed_total_.Add();
      } else {
        local.items[kept++] = item;
      }
    }
    local.items.resize(kept);
  }

  // Advances the global epoch and collects the calling thread's limbo list.
  // The automatic path only advances when a limbo list crosses
  // kCollectThreshold entries — the right policy for node-sized garbage,
  // but a retirer of a few *large* objects (the hybrid index retires one
  // whole base tree per merge) calls this to push them out promptly: two
  // calls guarantee objects retired before the first become reclaimable as
  // soon as every reader pinned at retire time has left.
  void AdvanceAndCollect() {
    size_t slot = RegisterThread();
    AdvanceEpoch();
    Collect(slot);
  }

  // Frees everything unconditionally.  Only safe when no thread is inside an
  // epoch (e.g. destruction, single-threaded tests).
  void CollectAll() {
    for (size_t s = 0; s < kMaxThreads; ++s) {
      for (const auto& item : limbo_[s].items) {
        item.deleter(item.ptr);
        reclaimed_total_.Add();
      }
      limbo_[s].items.clear();
    }
  }

  uint64_t global_epoch() const {
    return global_epoch_.load(std::memory_order_relaxed);
  }

  size_t RetiredCount() const {
    size_t n = 0;
    for (size_t s = 0; s < kMaxThreads; ++s) n += limbo_[s].items.size();
    return n;
  }

  // Telemetry (obs/telemetry.h): lifetime totals of retires and physical
  // frees.  With HOT_STATS=OFF both read as zero.
  uint64_t retired_total() const { return retired_total_.value(); }
  uint64_t reclaimed_total() const { return reclaimed_total_.value(); }

  // Epoch stamp of the oldest limbo entry (kIdle when the limbo lists are
  // empty).  global_epoch() minus this is the reclamation lag.  Quiescent-
  // only: racy against concurrent Retire/Collect.
  uint64_t OldestRetiredEpoch() const {
    uint64_t oldest = kIdle;
    for (size_t s = 0; s < kMaxThreads; ++s) {
      for (const auto& item : limbo_[s].items) {
        if (item.epoch < oldest) oldest = item.epoch;
      }
    }
    return oldest;
  }

  // Number of slots currently claimed by live threads (test support; racy
  // under concurrent registration).
  size_t UsedSlots() const {
    size_t n = 0;
    for (size_t i = 0; i < kMaxThreads; ++i) {
      if (slots_[i].used.load(std::memory_order_relaxed)) ++n;
    }
    return n;
  }

 private:
  struct Slot {
    std::atomic<uint64_t> epoch;
    std::atomic<bool> used;
    // Guard nesting depth; touched only by the owning thread (atomic so a
    // later owner of a recycled slot is well-ordered with the previous one).
    std::atomic<uint32_t> depth;
    char padding[44];  // avoid false sharing between per-thread slots
  };

  struct Retired {
    void* ptr;
    void (*deleter)(void*);
    uint64_t epoch;
  };

  struct LimboList {
    std::vector<Retired> items;
    char padding[24];
  };

  // Process-wide table of live manager ids.  A thread-exit slot release
  // dereferences its manager only while holding this mutex with the id
  // still present, so destruction and release cannot race.
  struct AliveRegistry {
    std::mutex mu;
    std::unordered_set<uint64_t> ids;
    static AliveRegistry& Instance() {
      static AliveRegistry registry;
      return registry;
    }
  };

  // Per-thread registration records, released on thread exit.
  struct ThreadRegistry {
    struct Entry {
      EpochManager* manager;
      uint64_t manager_id;
      size_t slot;
    };
    std::vector<Entry> entries;

    // Drops records of destroyed managers so a long-lived thread touching
    // many short-lived managers does not accumulate stale entries.
    void PruneDead() {
      AliveRegistry& alive = AliveRegistry::Instance();
      std::lock_guard<std::mutex> lock(alive.mu);
      std::erase_if(entries, [&](const Entry& e) {
        return alive.ids.count(e.manager_id) == 0;
      });
    }

    ~ThreadRegistry() {
      AliveRegistry& alive = AliveRegistry::Instance();
      std::lock_guard<std::mutex> lock(alive.mu);
      for (const auto& e : entries) {
        if (alive.ids.count(e.manager_id) != 0) {
          e.manager->ReleaseSlot(e.slot);
        }
      }
    }
  };

  static ThreadRegistry& LocalRegistry() {
    static thread_local ThreadRegistry registry;
    return registry;
  }

  static uint64_t NextManagerId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  static constexpr size_t kCollectThreshold = 128;

  size_t AcquireSlot() {
    for (;;) {
      for (size_t i = 0; i < kMaxThreads; ++i) {
        bool expected = false;
        if (!slots_[i].used.load(std::memory_order_relaxed) &&
            slots_[i].used.compare_exchange_strong(
                expected, true, std::memory_order_acq_rel)) {
          return i;
        }
      }
      // Table full: more live threads than slots.  Block until a registered
      // thread exits and releases its slot — never alias an occupied slot,
      // since two pins through one slot can overwrite each other and allow
      // premature reclamation.
      std::this_thread::yield();
    }
  }

  // Returns the slot to the pool.  The release store on `used` pairs with
  // the acquire CAS in AcquireSlot, ordering this thread's accesses (limbo
  // list, protected objects) before the next owner's.
  void ReleaseSlot(size_t slot) {
    slots_[slot].depth.store(0, std::memory_order_relaxed);
    slots_[slot].epoch.store(kIdle, std::memory_order_release);
    slots_[slot].used.store(false, std::memory_order_release);
  }

  void AdvanceEpoch() {
    global_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }

  uint64_t MinActiveEpoch() const {
    uint64_t min = kIdle;
    for (size_t i = 0; i < kMaxThreads; ++i) {
      // Acquire pairs with ReleaseSlot so that skipping a just-released
      // slot still orders the releasing thread's reads before our caller's
      // frees.
      if (!slots_[i].used.load(std::memory_order_acquire)) continue;
      uint64_t e = slots_[i].epoch.load(std::memory_order_acquire);
      if (e != kIdle && e < min) min = e;
    }
    if (min == kIdle) {
      // No thread is pinned: everything up to the current epoch is safe.
      return global_epoch_.load(std::memory_order_acquire) + 2;
    }
    return min;
  }

  void MaybeCollect(size_t slot) {
    if (limbo_[slot].items.size() >= kCollectThreshold / 2) {
      AdvanceEpoch();
      Collect(slot);
    }
  }

  const uint64_t id_ = NextManagerId();
  std::atomic<uint64_t> global_epoch_{1};
  obs::StatCounter retired_total_;
  obs::StatCounter reclaimed_total_;
  Slot slots_[kMaxThreads];
  LimboList limbo_[kMaxThreads];
};

// RAII epoch pin for readers and writers.  Guards may nest on one thread;
// only the outermost pins and unpins.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager* manager) : manager_(manager) {
    manager_->Enter();
  }
  ~EpochGuard() { manager_->Leave(); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager* manager_;
};

}  // namespace hot

#endif  // HOT_COMMON_EPOCH_H_

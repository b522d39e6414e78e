// Epoch-reclamation torture (stress tier): thread churn far past
// EpochManager::kMaxThreads with readers dereferencing an epoch-protected
// object that swapper threads continuously replace and retire.
//
// Under -DHOT_SANITIZE=address a premature free is a hard use-after-free
// report; in plain builds the deleter poisons a magic word before freeing,
// so a reader that outlives its protection observes the poison and the test
// fails without a sanitizer too.
//
// Also asserts the slot-recycling contract: after every wave of threads has
// exited, all kMaxThreads slots must be back in the pool (register /
// unregister cycles must not leak slots), and an oversubscribed run (more
// simultaneous threads than slots) must make progress by blocking — never by
// sharing a slot.

#include "common/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace hot {
namespace {

constexpr uint64_t kLiveMagic = 0xfeedfacecafebeefULL;
constexpr uint64_t kDeadMagic = 0xdeadbeefdeadbeefULL;

struct Payload {
  explicit Payload(uint64_t m) : magic(m) {}
  std::atomic<uint64_t> magic;
};

void RetirePayload(EpochManager* epochs, Payload* p) {
  epochs->Retire(
      p,
      [](void* v, void*) {
        auto* pl = static_cast<Payload*>(v);
        pl->magic.store(kDeadMagic, std::memory_order_relaxed);
        delete pl;
      },
      nullptr);
}

// 12 waves x 48 threads = 576 short-lived threads through a 256-slot table.
TEST(EpochTorture, ChurnPastMaxThreadsNoUseAfterFree) {
  EpochManager epochs;
  std::atomic<Payload*> shared{new Payload(kLiveMagic)};
  std::atomic<uint64_t> bad_reads{0};

  constexpr size_t kWaves = 12;
  constexpr size_t kThreadsPerWave = 48;
  static_assert(kWaves * kThreadsPerWave > EpochManager::kMaxThreads);

  for (size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    threads.reserve(kThreadsPerWave);
    for (size_t t = 0; t < kThreadsPerWave; ++t) {
      threads.emplace_back([&, wave, t] {
        SplitMix64 rng(wave * 977 + t + 1);
        for (int iter = 0; iter < 300; ++iter) {
          EpochGuard guard(&epochs);
          Payload* p = shared.load(std::memory_order_acquire);
          if (p->magic.load(std::memory_order_relaxed) != kLiveMagic) {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
          if (rng.NextBounded(8) == 0) {
            // Nested guard: the inner Leave must not unpin the outer scope.
            EpochGuard nested(&epochs);
            Payload* q = shared.load(std::memory_order_acquire);
            if (q->magic.load(std::memory_order_relaxed) != kLiveMagic) {
              bad_reads.fetch_add(1, std::memory_order_relaxed);
            }
          }
          // The pointer loaded at guard entry must stay dereferenceable for
          // the whole guarded scope even if it was retired meanwhile.
          if (rng.NextBounded(16) == 0) {
            Payload* fresh = new Payload(kLiveMagic);
            Payload* old = shared.exchange(fresh, std::memory_order_acq_rel);
            RetirePayload(&epochs, old);
          }
          if (p->magic.load(std::memory_order_relaxed) == kDeadMagic) {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    // All of this wave's threads exited: every slot (including those
    // inherited from earlier waves) must have been returned to the pool.
    EXPECT_EQ(epochs.UsedSlots(), 0u) << "slot leak after wave " << wave;
  }

  EXPECT_EQ(bad_reads.load(), 0u);
  epochs.CollectAll();
  delete shared.exchange(nullptr);
}

// More simultaneous threads than slots: latecomers block in AcquireSlot
// until earlier threads exit.  Progress (the test terminating) shows
// blocking works; zero bad reads shows no slot was ever shared.
TEST(EpochTorture, OversubscribedGuardedReadersMakeProgress) {
  EpochManager epochs;
  std::atomic<Payload*> shared{new Payload(kLiveMagic)};
  std::atomic<uint64_t> bad_reads{0};

  constexpr size_t kThreads = EpochManager::kMaxThreads + 32;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(t + 1);
      for (int iter = 0; iter < 100; ++iter) {
        EpochGuard guard(&epochs);
        Payload* p = shared.load(std::memory_order_acquire);
        if (p->magic.load(std::memory_order_relaxed) != kLiveMagic) {
          bad_reads.fetch_add(1, std::memory_order_relaxed);
        }
        if (rng.NextBounded(32) == 0) {
          Payload* fresh = new Payload(kLiveMagic);
          Payload* old = shared.exchange(fresh, std::memory_order_acq_rel);
          RetirePayload(&epochs, old);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_EQ(epochs.UsedSlots(), 0u);
  epochs.CollectAll();
  delete shared.exchange(nullptr);
}

// A thread that exits while retired objects are still in its limbo list must
// not strand them: slot recycling hands the list to the next owner and the
// manager's destructor collects whatever remains.
TEST(EpochTorture, ExitingThreadsDoNotStrandLimboItems) {
  std::atomic<int> deleted{0};
  {
    EpochManager epochs;
    for (int round = 0; round < 8; ++round) {
      std::thread([&] {
        EpochGuard guard(&epochs);
        for (int i = 0; i < 4; ++i) {
          epochs.Retire(
              new int(i), [](void* p, void*) { delete static_cast<int*>(p); },
              nullptr);
        }
      }).join();
    }
    // Retire counted objects from the main thread and let destruction
    // collect everything (main thread never entered an epoch => idle).  The
    // counter is also each deleter's context, which it must receive.
    for (int i = 0; i < 4; ++i) {
      epochs.Retire(
          &deleted,
          [](void* p, void* ctx) {
            EXPECT_EQ(ctx, p);
            static_cast<std::atomic<int>*>(ctx)->fetch_add(
                1, std::memory_order_relaxed);
          },
          &deleted);
    }
  }
  EXPECT_EQ(deleted.load(), 4);
}

}  // namespace
}  // namespace hot

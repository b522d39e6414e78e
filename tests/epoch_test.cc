// Tests for epoch-based reclamation (paper §5 substrate).

#include "common/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace hot {
namespace {

std::atomic<int> g_deleted{0};

// Retired with &g_deleted as its context, so every count also checks that
// the manager hands each deleter the context it was retired with.
void CountingDeleter(void* p, void* ctx) {
  ++*static_cast<std::atomic<int>*>(ctx);
  ::operator delete(p);
}

void Delete(void* p, void*) { ::operator delete(p); }

TEST(Epoch, SingleThreadedRetireAndCollect) {
  g_deleted = 0;
  EpochManager epochs;
  {
    EpochGuard guard(&epochs);
    for (int i = 0; i < 10; ++i) {
      epochs.Retire(::operator new(16), CountingDeleter, &g_deleted);
    }
    // Still pinned: nothing should be freed while we could observe it.
    EXPECT_EQ(g_deleted.load(), 0);
  }
  epochs.CollectAll();
  EXPECT_EQ(g_deleted.load(), 10);
  EXPECT_EQ(epochs.RetiredCount(), 0u);
}

TEST(Epoch, CollectIsDeferredWhileReaderPinned) {
  g_deleted = 0;
  EpochManager epochs;
  std::atomic<bool> reader_pinned{false};
  std::atomic<bool> release_reader{false};

  std::thread reader([&] {
    epochs.Enter();
    reader_pinned = true;
    while (!release_reader) std::this_thread::yield();
    epochs.Leave();
  });
  while (!reader_pinned) std::this_thread::yield();

  {
    EpochGuard guard(&epochs);
    epochs.Retire(::operator new(16), CountingDeleter, &g_deleted);
  }
  // The writer's Leave may collect, but the reader entered before the
  // retirement epoch, so the object must survive.
  size_t slot = epochs.RegisterThread();
  epochs.Collect(slot);
  EXPECT_EQ(g_deleted.load(), 0);

  release_reader = true;
  reader.join();
  epochs.CollectAll();
  EXPECT_EQ(g_deleted.load(), 1);
}

TEST(Epoch, ManyThreadsNoLeaks) {
  g_deleted = 0;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  {
    EpochManager epochs;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&epochs] {
        for (int i = 0; i < kOpsPerThread; ++i) {
          EpochGuard guard(&epochs);
          epochs.Retire(::operator new(8), CountingDeleter, &g_deleted);
        }
      });
    }
    for (auto& th : threads) th.join();
    // Destructor collects everything still in limbo.
  }
  EXPECT_EQ(g_deleted.load(), kThreads * kOpsPerThread);
}

// Regression (ISSUE 1): AcquireSlot used to hand slot 0 to every thread past
// kMaxThreads, so two concurrently active threads shared one epoch slot and
// each could overwrite the other's pin, allowing premature reclamation.
// Post-fix, an overflow thread blocks until a registered thread exits and
// releases its slot, so no two concurrently registered threads ever share
// one.
TEST(Epoch, OverflowThreadsNeverAliasActiveSlots) {
  constexpr size_t kHolders = EpochManager::kMaxThreads;
  constexpr size_t kExtras = 4;
  EpochManager epochs;
  std::vector<std::atomic<int>> owners(kHolders);
  for (auto& o : owners) o.store(0);
  std::atomic<size_t> holders_ready{0};
  std::atomic<size_t> extras_registered{0};
  std::atomic<int> alias_errors{0};
  std::atomic<bool> release_holders{false};

  auto claim = [&](size_t slot) {
    ASSERT_LT(slot, kHolders);
    if (owners[slot].fetch_add(1) != 0) ++alias_errors;
  };
  auto unclaim = [&](size_t slot) { owners[slot].fetch_sub(1); };

  std::vector<std::thread> holders;
  for (size_t t = 0; t < kHolders; ++t) {
    holders.emplace_back([&] {
      size_t slot = epochs.RegisterThread();
      claim(slot);
      ++holders_ready;
      while (!release_holders) std::this_thread::yield();
      {
        EpochGuard guard(&epochs);
        epochs.Retire(::operator new(8), Delete, nullptr);
      }
      unclaim(slot);
    });
  }
  while (holders_ready.load() < kHolders) std::this_thread::yield();

  // Every slot is now held.  The extra threads must not obtain (and alias)
  // an occupied slot; they block until a holder exits.
  std::vector<std::thread> extras;
  for (size_t t = 0; t < kExtras; ++t) {
    extras.emplace_back([&] {
      size_t slot = epochs.RegisterThread();  // blocks while table is full
      claim(slot);
      ++extras_registered;
      EpochGuard guard(&epochs);
      unclaim(slot);
    });
  }
  // Give the extras ample time to (incorrectly) grab an occupied slot.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(extras_registered.load(), 0u)
      << "overflow threads registered while every slot was still held";

  release_holders = true;
  for (auto& th : holders) th.join();
  for (auto& th : extras) th.join();
  EXPECT_EQ(extras_registered.load(), kExtras);
  EXPECT_EQ(alias_errors.load(), 0);
}

// Regression (ISSUE 1): nested EpochGuards on one thread used to clobber the
// pin — the inner Leave() stored kIdle, unpinning the still-active outer
// guard, so a concurrent collector could reclaim objects the outer guard was
// still protecting.
TEST(Epoch, NestedGuardsKeepOuterPin) {
  g_deleted = 0;
  EpochManager epochs;
  epochs.Enter();                  // outer pin
  { EpochGuard inner(&epochs); }   // nested guard must not unpin the outer

  std::thread collector([&] {
    {
      EpochGuard guard(&epochs);
      epochs.Retire(::operator new(16), CountingDeleter, &g_deleted);
    }
    size_t slot = epochs.RegisterThread();
    for (int i = 0; i < 4; ++i) epochs.Collect(slot);
  });
  collector.join();
  // The outer pin predates the retirement, so the object must survive.
  EXPECT_EQ(g_deleted.load(), 0);

  epochs.Leave();
  epochs.CollectAll();
  EXPECT_EQ(g_deleted.load(), 1);
}

// Deeply nested guards: only the outermost Enter/Leave pair pins/unpins.
TEST(Epoch, DeeplyNestedGuardsBalance) {
  g_deleted = 0;
  EpochManager epochs;
  {
    EpochGuard outer(&epochs);
    for (int round = 0; round < 3; ++round) {
      EpochGuard a(&epochs);
      { EpochGuard b(&epochs); }
    }
    epochs.Retire(::operator new(8), CountingDeleter, &g_deleted);
    size_t slot = epochs.RegisterThread();
    epochs.Collect(slot);
    EXPECT_EQ(g_deleted.load(), 0);  // still pinned by the outer guard
  }
  epochs.CollectAll();
  EXPECT_EQ(g_deleted.load(), 1);
}

TEST(Epoch, GlobalEpochAdvances) {
  EpochManager epochs;
  uint64_t e0 = epochs.global_epoch();
  for (int i = 0; i < 1000; ++i) {
    EpochGuard guard(&epochs);
    epochs.Retire(::operator new(8), Delete, nullptr);
  }
  epochs.CollectAll();
  EXPECT_GT(epochs.global_epoch(), e0);
}

}  // namespace
}  // namespace hot

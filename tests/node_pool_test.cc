// Tests for the insert-path node pool: alignment, recycling, accounting,
// and thread safety.

#include "hot/node_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace hot {
namespace {

TEST(NodePool, AlignmentAndWritability) {
  MemoryCounter counter;
  NodePool pool(&counter);
  std::vector<std::pair<void*, size_t>> blocks;
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    size_t bytes = 16 + rng.NextBounded(500);
    void* p = pool.Allocate(bytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
    std::memset(p, 0xCD, bytes);
    blocks.push_back({p, bytes});
  }
  for (auto [p, bytes] : blocks) pool.Free(p, bytes);
  EXPECT_EQ(counter.live_bytes(), 0u);
}

TEST(NodePool, RecyclesFreedBlocks) {
  NodePool pool(nullptr);
  void* a = pool.Allocate(100);
  pool.Free(a, 100);
  // Same size class: the freed block comes back.
  void* b = pool.Allocate(97);
  EXPECT_EQ(a, b);
  pool.Free(b, 97);
  // Different class: a different block.
  void* c = pool.Allocate(500);
  EXPECT_NE(a, c);
  pool.Free(c, 500);
}

TEST(NodePool, CountsRoundedClassBytes) {
  MemoryCounter counter;
  NodePool pool(&counter);
  void* p = pool.Allocate(33);  // class rounds to 48
  EXPECT_EQ(counter.live_bytes(), 48u);
  pool.Free(p, 33);
  EXPECT_EQ(counter.live_bytes(), 0u);
}

TEST(NodePool, DistinctLiveBlocksNeverAlias) {
  NodePool pool(nullptr);
  SplitMix64 rng(3);
  std::set<uintptr_t> live;
  std::vector<std::pair<void*, size_t>> blocks;
  for (int i = 0; i < 20000; ++i) {
    if (blocks.empty() || rng.NextBounded(3) != 0) {
      size_t bytes = 16 + rng.NextBounded(400);
      void* p = pool.Allocate(bytes);
      ASSERT_TRUE(live.insert(reinterpret_cast<uintptr_t>(p)).second);
      blocks.push_back({p, bytes});
    } else {
      size_t idx = rng.NextBounded(blocks.size());
      auto [p, bytes] = blocks[idx];
      blocks[idx] = blocks.back();
      blocks.pop_back();
      live.erase(reinterpret_cast<uintptr_t>(p));
      pool.Free(p, bytes);
    }
  }
}

// Produce-on-A / free-on-B migration: every round a fresh thread allocates
// a batch and the NEXT fresh thread frees it, so freed blocks always land
// in a different stripe than the next allocator's.  Without the
// steal-from-siblings fallback each round would bump-carve fresh arena and
// the pool would grow without bound; with it, the arena stays bounded by
// roughly one chunk per stripe and the steal counter moves.
TEST(NodePool, CrossThreadFreeIsStolenBack) {
  MemoryCounter counter;
  NodePool pool(&counter);
  constexpr size_t kBlocks = 2000;
  constexpr size_t kBytes = 64;
  constexpr int kRounds = 24;
  std::vector<void*> batch;
  for (int round = 0; round < kRounds; ++round) {
    std::thread producer([&] {
      batch.clear();
      for (size_t i = 0; i < kBlocks; ++i) {
        batch.push_back(pool.Allocate(kBytes));
      }
    });
    producer.join();
    std::thread consumer([&] {
      for (void* p : batch) pool.Free(p, kBytes);
    });
    consumer.join();
  }
  EXPECT_EQ(counter.live_bytes(), 0u);
  // 24 rounds x 2000 x 64B = 3 MiB allocated; a pool that never reused the
  // migrated blocks would hold ~12 chunks of bump arena for them alone.
  // Stealing keeps it to at most one warm-up chunk per stripe.
  EXPECT_LE(pool.ArenaBytes(), NodePool::kStripes * NodePool::kChunkBytes);
  NodePool::Stats s = pool.stats();
  EXPECT_GT(s.steals, 0u);
  EXPECT_LE(s.steals, s.hits);
  EXPECT_EQ(s.hits + s.carves, static_cast<uint64_t>(kBlocks) * kRounds);
}

// Cross-thread interleaving under contention: every thread both allocates
// and frees blocks that other threads produced (via a shared exchange
// slot).  The TSan CI lane runs this as the race check for the striped
// free lists, the nonempty masks, and the steal path.
TEST(NodePool, ConcurrentCrossThreadExchange) {
  MemoryCounter counter;
  NodePool pool(&counter);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  constexpr size_t kBytes = 48;
  std::atomic<void*> exchange{nullptr};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &exchange, t] {
      SplitMix64 rng(100 + t);
      for (int i = 0; i < kOps; ++i) {
        void* mine = pool.Allocate(kBytes);
        std::memset(mine, t + 1, kBytes);
        // Swap into the shared slot; free whatever another thread left.
        void* theirs = exchange.exchange(mine, std::memory_order_acq_rel);
        if (theirs != nullptr) pool.Free(theirs, kBytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  void* last = exchange.exchange(nullptr, std::memory_order_acq_rel);
  if (last != nullptr) pool.Free(last, kBytes);
  EXPECT_EQ(counter.live_bytes(), 0u);
  NodePool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.carves, static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_LE(s.steals, s.hits);
}

TEST(NodePool, ConcurrentAllocFree) {
  MemoryCounter counter;
  NodePool pool(&counter);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      SplitMix64 rng(t);
      std::vector<std::pair<void*, size_t>> mine;
      for (int i = 0; i < 20000; ++i) {
        if (mine.empty() || rng.NextBounded(2) == 0) {
          size_t bytes = 16 + rng.NextBounded(300);
          void* p = pool.Allocate(bytes);
          // Blocks are thread-private while allocated: stamp + verify.
          std::memset(p, t + 1, bytes);
          mine.push_back({p, bytes});
        } else {
          auto [p, bytes] = mine.back();
          mine.pop_back();
          ASSERT_EQ(static_cast<unsigned char*>(p)[0],
                    static_cast<unsigned char>(t + 1));
          ASSERT_EQ(static_cast<unsigned char*>(p)[bytes - 1],
                    static_cast<unsigned char>(t + 1));
          pool.Free(p, bytes);
        }
      }
      for (auto [p, bytes] : mine) pool.Free(p, bytes);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.live_bytes(), 0u);
}

}  // namespace
}  // namespace hot

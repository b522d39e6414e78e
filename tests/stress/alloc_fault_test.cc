// Fault-injection tests for the insert/remove paths: arm AllocFaultInjector
// so the Nth node allocation throws std::bad_alloc and check that both
// tries — HotTrie and RowexHotTrie share trie.h's node builders — are
// exception-safe (a failed operation leaves the tree unchanged and
// structurally valid) and leak-free (every byte the pool accounted is
// returned by destruction, even after injected faults).
//
// The injector can also be armed at process start via HOT_ALLOC_FAIL_AT; the
// programmatic FailAfter API used here covers the same code path.

#include "common/alloc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "hot/rowex.h"
#include "hot/trie.h"

namespace hot {
namespace {

using RowexU64 = RowexHotTrie<U64KeyExtractor>;

class AllocFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { AllocFaultInjector::FailAfter(0); }
};

// The single-threaded sweeps run over both tries.
template <typename Trie>
class AllocFaultSweep : public AllocFaultTest {};

using Tries = ::testing::Types<HotTrie<U64KeyExtractor>, RowexU64>;

struct TrieName {
  template <typename Trie>
  static std::string GetName(int) {
    return std::is_same_v<Trie, RowexU64> ? "RowexHotTrie" : "HotTrie";
  }
};

TYPED_TEST_SUITE(AllocFaultSweep, Tries, TrieName);

TEST_F(AllocFaultTest, InjectorFailsExactlyTheNthAllocation) {
  MemoryCounter counter;
  CountingAllocator alloc(&counter);
  AllocFaultInjector::FailAfter(3);
  void* a = alloc.AllocateAligned(64, 16);
  void* b = alloc.AllocateAligned(64, 16);
  EXPECT_THROW(alloc.AllocateAligned(64, 16), std::bad_alloc);
  EXPECT_FALSE(AllocFaultInjector::armed());
  // Disarmed after firing: the next allocation succeeds.
  void* c = alloc.AllocateAligned(64, 16);
  alloc.FreeAligned(a, 64, 16);
  alloc.FreeAligned(b, 64, 16);
  alloc.FreeAligned(c, 64, 16);
  EXPECT_EQ(counter.live_bytes(), 0u);
}

// Sweep injected failures across a growing tree so every insert shape is
// hit: root replacement, pushdown, the §4.4 physical splice, and the
// overflow chain (splits every ~32nd insert).  A failed insert must leave
// the key absent, the size unchanged, and the structure valid; retrying
// disarmed must succeed.
TYPED_TEST(AllocFaultSweep, InsertIsExceptionSafeUnderInjectedFaults) {
  MemoryCounter counter;
  {
    TypeParam trie(U64KeyExtractor(), &counter);
    size_t faults = 0;
    for (uint64_t i = 0; i < 600; ++i) {
      uint64_t v = 1 + i * 37;
      AllocFaultInjector::FailAfter(1 + i % 7);
      bool threw = false;
      try {
        EXPECT_TRUE(trie.Insert(v));
      } catch (const std::bad_alloc&) {
        threw = true;
      }
      AllocFaultInjector::FailAfter(0);
      if (threw) {
        ++faults;
        EXPECT_FALSE(trie.Lookup(U64Key(v).ref()).has_value())
            << "failed insert left key " << v << " behind";
        EXPECT_EQ(trie.size(), i);
        ASSERT_TRUE(trie.Insert(v)) << "retry after fault failed for " << v;
      }
      ASSERT_TRUE(trie.Lookup(U64Key(v).ref()).has_value());
      ASSERT_EQ(trie.size(), i + 1);
      if (i % 97 == 0) {
        std::string err;
        ASSERT_TRUE(trie.Validate(&err)) << "after value " << v << ": " << err;
      }
    }
    EXPECT_GT(faults, 0u) << "sweep never hit an allocation — injector dead?";
    std::string err;
    ASSERT_TRUE(trie.Validate(&err)) << err;
  }
  // Leak-freedom: every failed partial chain was freed, every retired node
  // collected, so destruction returns the pool to zero live bytes.
  EXPECT_EQ(counter.live_bytes(), 0u);
}

TYPED_TEST(AllocFaultSweep, RemoveIsExceptionSafeUnderInjectedFaults) {
  MemoryCounter counter;
  {
    TypeParam trie(U64KeyExtractor(), &counter);
    constexpr uint64_t kKeys = 600;
    for (uint64_t v = 1; v <= kKeys; ++v) ASSERT_TRUE(trie.Insert(v));
    size_t faults = 0;
    for (uint64_t v = 1; v <= kKeys; ++v) {
      AllocFaultInjector::FailAfter(1);
      bool threw = false;
      try {
        EXPECT_TRUE(trie.Remove(U64Key(v).ref()));
      } catch (const std::bad_alloc&) {
        threw = true;
      }
      AllocFaultInjector::FailAfter(0);
      if (threw) {
        ++faults;
        EXPECT_TRUE(trie.Lookup(U64Key(v).ref()).has_value())
            << "failed remove lost key " << v;
        EXPECT_EQ(trie.size(), kKeys - v + 1);
        ASSERT_TRUE(trie.Remove(U64Key(v).ref()));
      }
      ASSERT_FALSE(trie.Lookup(U64Key(v).ref()).has_value());
    }
    EXPECT_GT(faults, 0u);
    EXPECT_EQ(trie.size(), 0u);
  }
  EXPECT_EQ(counter.live_bytes(), 0u);
}

// Concurrent writers with faults injected mid-flight: whichever thread's
// allocation eats the countdown gets a clean bad_alloc, retries, and the
// final tree must contain exactly every value, with zero bytes leaked.
TEST_F(AllocFaultTest, ConcurrentWritersSurviveInjectedFaults) {
  constexpr size_t kThreads = 4;
  constexpr uint64_t kPerThread = 4000;
  MemoryCounter counter;
  {
    RowexU64 trie(U64KeyExtractor(), &counter);
    std::atomic<uint64_t> faults{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          uint64_t v = 1 + t * kPerThread + i;
          if (i % 61 == 0) AllocFaultInjector::FailAfter(2 + i % 5);
          for (;;) {
            try {
              EXPECT_TRUE(trie.Insert(v));
              break;
            } catch (const std::bad_alloc&) {
              faults.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    AllocFaultInjector::FailAfter(0);

    EXPECT_GT(faults.load(), 0u);
    EXPECT_EQ(trie.size(), kThreads * kPerThread);
    std::string err;
    ASSERT_TRUE(trie.Validate(&err)) << err;
    for (uint64_t v = 1; v <= kThreads * kPerThread; ++v) {
      ASSERT_TRUE(trie.Lookup(U64Key(v).ref()).has_value()) << v;
    }
  }
  EXPECT_EQ(counter.live_bytes(), 0u);
}

}  // namespace
}  // namespace hot

// Unit tests for the counting allocator (Fig. 9 memory accounting substrate).

#include "common/alloc.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace hot {
namespace {

TEST(MemoryCounter, TracksLiveBytes) {
  MemoryCounter counter;
  CountingAllocator alloc(&counter);
  void* a = alloc.AllocateAligned(100, 32);
  EXPECT_EQ(counter.live_bytes(), 100u);
  void* b = alloc.AllocateAligned(28, 8);
  EXPECT_EQ(counter.live_bytes(), 128u);
  alloc.FreeAligned(a, 100, 32);
  EXPECT_EQ(counter.live_bytes(), 28u);
  alloc.FreeAligned(b, 28, 8);
  EXPECT_EQ(counter.live_bytes(), 0u);
}

TEST(CountingAllocator, RespectsAlignment) {
  MemoryCounter counter;
  CountingAllocator alloc(&counter);
  std::vector<std::pair<void*, size_t>> ptrs;
  for (size_t align : {8u, 16u, 32u, 64u}) {
    for (int i = 0; i < 50; ++i) {
      void* p = alloc.AllocateAligned(1 + i * 7, align);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
      ptrs.push_back({p, 1 + i * 7});
      // The allocation must be writable over its whole extent.
      memset(p, 0xAB, 1 + i * 7);
    }
    for (auto [p, sz] : ptrs) alloc.FreeAligned(p, sz, align);
    ptrs.clear();
  }
  EXPECT_EQ(counter.live_bytes(), 0u);
}

TEST(CountingAllocator, NullCounterWorks) {
  CountingAllocator alloc(nullptr);
  void* p = alloc.AllocateAligned(64, 32);
  ASSERT_NE(p, nullptr);
  alloc.FreeAligned(p, 64, 32);
}

TEST(MemoryCounter, Reset) {
  MemoryCounter counter;
  CountingAllocator alloc(&counter);
  void* p = alloc.AllocateAligned(10, 8);
  counter.Reset();
  EXPECT_EQ(counter.live_bytes(), 0u);
  alloc.FreeAligned(p, 10, 8);  // wraps below zero is fine after reset
}

}  // namespace
}  // namespace hot

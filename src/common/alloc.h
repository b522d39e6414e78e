// Counting allocator: every index structure in this repository allocates its
// nodes through a MemoryCounter so that the memory-consumption experiment
// (paper Fig. 9) can report exact per-index footprints without touching the
// data structures' runtime behaviour.

#ifndef HOT_COMMON_ALLOC_H_
#define HOT_COMMON_ALLOC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace hot {

// Fault injection for the allocation paths (test support): when armed, the
// Nth next allocation through any instrumented allocator (CountingAllocator,
// NodePool) throws std::bad_alloc, so the copy-on-write insert paths can be
// tested for exception-safety and leak-freedom.  Armed programmatically via
// FailAfter(n) or at process start via the HOT_ALLOC_FAIL_AT environment
// variable.  Disarmed cost is one relaxed atomic load per allocation.
class AllocFaultInjector {
 public:
  // The nth next allocation (1-based) fails; 0 disarms.
  static void FailAfter(uint64_t nth) {
    Countdown().store(nth, std::memory_order_relaxed);
  }
  static bool armed() {
    return Countdown().load(std::memory_order_relaxed) != 0;
  }

  // Called by instrumented allocators before any bookkeeping or carving.
  static void MaybeFail() {
    std::atomic<uint64_t>& c = Countdown();
    uint64_t cur = c.load(std::memory_order_relaxed);
    while (cur != 0) {
      if (c.compare_exchange_weak(cur, cur - 1, std::memory_order_relaxed)) {
        if (cur == 1) throw std::bad_alloc();
        return;
      }
    }
  }

 private:
  static std::atomic<uint64_t>& Countdown() {
    static std::atomic<uint64_t> countdown{InitFromEnv()};
    return countdown;
  }
  static uint64_t InitFromEnv() {
    const char* s = std::getenv("HOT_ALLOC_FAIL_AT");
    return s != nullptr ? std::strtoull(s, nullptr, 10) : 0;
  }
};

// Tracks live bytes.  Thread-safe (a relaxed atomic: the counter is a
// statistic, not synchronization).
class MemoryCounter {
 public:
  void OnAlloc(size_t bytes) {
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void OnFree(size_t bytes) {
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }

  void Reset() { live_bytes_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<size_t> live_bytes_{0};
};

// Aligned allocation counted in a MemoryCounter: the baselines' node
// allocator.  `alignment` is any power of two; the caller passes the same
// size and alignment to FreeAligned, and the counter sees the requested
// size.
class CountingAllocator {
 public:
  explicit CountingAllocator(MemoryCounter* counter) : counter_(counter) {}

  void* AllocateAligned(size_t bytes, size_t alignment) {
    AllocFaultInjector::MaybeFail();
    // aligned_alloc wants a size that is a multiple of the alignment.
    void* ptr = std::aligned_alloc(alignment, RoundUp(bytes, alignment));
    if (ptr == nullptr) throw std::bad_alloc();
    if (counter_ != nullptr) counter_->OnAlloc(bytes);
    return ptr;
  }

  void FreeAligned(void* ptr, size_t bytes, size_t /*alignment*/) {
    if (ptr == nullptr) return;
    if (counter_ != nullptr) counter_->OnFree(bytes);
    std::free(ptr);
  }

  MemoryCounter* counter() const { return counter_; }

 private:
  static size_t RoundUp(size_t n, size_t align) {
    return (n + align - 1) & ~(align - 1);
  }

  MemoryCounter* counter_;
};

}  // namespace hot

#endif  // HOT_COMMON_ALLOC_H_

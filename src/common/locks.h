// Lock primitives for the ROWEX synchronization protocol (paper §5).
//
// Each HOT node carries a RowexLockWord in its header: a spin bit taken by
// writers for the duration of a structural modification, and an "obsolete"
// bit set when a copy-on-write replacement supersedes the node.  Readers
// never touch the lock (they are wait-free); writers lock the affected nodes
// bottom-up, validate that none is obsolete, mutate, and unlock top-down.

#ifndef HOT_COMMON_LOCKS_H_
#define HOT_COMMON_LOCKS_H_

#include <atomic>
#include <cstdint>
#include <thread>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace hot {

inline void CpuRelax() {
#if defined(__x86_64__)
  _mm_pause();
#endif
}

// One byte: writers spin on bit 0, bit 1 marks the node obsolete.  Kept to
// a single byte so the HOT node header has room for precomputed layout
// fields on the read path.
class RowexLockWord {
 public:
  static constexpr uint8_t kLockedBit = 1u << 0;
  static constexpr uint8_t kObsoleteBit = 1u << 1;

  void Lock() {
    // Bounded spin, then yield: when threads outnumber cores (the service
    // front-end's oversubscribed workers, CI runners), a holder preempted
    // mid-critical-section must get CPU time back from the spinners or the
    // whole shard convoys for a scheduler quantum per waiter.  Short
    // critical sections still acquire within the pause phase.
    unsigned spins = 0;
    for (;;) {
      uint8_t cur = word_.load(std::memory_order_relaxed);
      if ((cur & kLockedBit) == 0 &&
          word_.compare_exchange_weak(cur, cur | kLockedBit,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
      if (++spins < kSpinsBeforeYield) {
        CpuRelax();
      } else {
        spins = 0;
        std::this_thread::yield();
      }
    }
  }

  void Unlock() {
    word_.fetch_and(static_cast<uint8_t>(~kLockedBit),
                    std::memory_order_release);
  }

  // Marks the node replaced; must hold the lock.
  void MarkObsolete() {
    word_.fetch_or(kObsoleteBit, std::memory_order_release);
  }

  bool IsObsolete() const {
    return (word_.load(std::memory_order_acquire) & kObsoleteBit) != 0;
  }

 private:
  static constexpr unsigned kSpinsBeforeYield = 128;

  std::atomic<uint8_t> word_{0};
};

}  // namespace hot

#endif  // HOT_COMMON_LOCKS_H_

// Statistics counters (observability tentpole, part 3).
//
// `StatCounter` is the primitive every telemetry counter in the tree is
// built from: a relaxed atomic increment — one uncontended `lock xadd` on
// the *write* path only, never on lookups.  The counters are always on: their
// measured overhead on lookups is within 3% (DESIGN.md §9).
//
// This header is dependency-free on purpose: common/epoch.h and
// hot/node_pool.h include it, so it must not pull in any hot/ or ycsb/
// headers.

#ifndef HOT_OBS_STAT_COUNTER_H_
#define HOT_OBS_STAT_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace hot {
namespace obs {

// Monotonic event counter; relaxed ordering is sufficient because every
// consumer reads at a quiescent point (or tolerates slightly stale values).
class StatCounter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace obs
}  // namespace hot

#endif  // HOT_OBS_STAT_COUNTER_H_

// Thread identity for the thread-local allocation paths.
//
// CurrentThreadIndex() hands every OS thread a small dense id (0, 1, 2, ...)
// on first use.  The id is process-global and never reused, so striped
// structures (hot/node_pool.h thread arenas, per-thread scratch) can map a
// thread to a stripe with one modulo and no registration protocol.  Dense
// beats std::this_thread::get_id() hashing: consecutively spawned workers
// land on distinct stripes instead of colliding pseudo-randomly.

#ifndef HOT_COMMON_THREAD_H_
#define HOT_COMMON_THREAD_H_

#include <atomic>

namespace hot {

// Dense process-wide thread index, assigned on first call per thread.
inline unsigned CurrentThreadIndex() {
  static std::atomic<unsigned> next{0};
  thread_local unsigned id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace hot

#endif  // HOT_COMMON_THREAD_H_

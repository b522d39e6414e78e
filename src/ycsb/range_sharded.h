// Range-partitioned concurrency wrapper that PRESERVES GLOBAL KEY ORDER:
// the lock-per-range substitute that Fig. 10's ART, Masstree and B+-tree
// arms run in, standing in for the baselines' native synchronization
// (DESIGN.md §1 Substitutions, §10).
//
// The key space is partitioned by k splitter keys into k+1 contiguous byte
// ranges; shard s owns keys in [splitter[s-1], splitter[s]) under
// lexicographic (big-endian) byte comparison, so the concatenation of the
// shards' ordered contents in shard order IS the globally ordered key
// sequence.  That is what makes a real ScanFrom possible: scan the owning
// shard from `start`, then spill into successor shards (each scanned from
// its lowest key) until `limit` results are produced — no k-way merge
// needed, because the partitioning is order-preserving (the trie-of-trees
// idea of Masstree, and the range-retaining hybrid of Blink-hash).
//
// Synchronization is per shard: a RowexLockWord guards every operation on
// the shard's single-threaded index.
//
// Splitters come from two sources:
//   * explicit SplitterKeys (tests: put boundaries exactly where the edge
//     cases are),
//   * SampledSplitters(dataset, n) — equi-depth boundaries from a sorted
//     key sample; url keys share "http…" prefixes, so fixed byte ranges
//     would collapse every key into one shard.
//
// Routing is a binary search for the number of splitters <= key, one
// KeyRef::Compare per probe.  A key's shard never changes (splitters are
// fixed at construction), so per-key operation atomicity reduces to the
// shard's own synchronization.

#ifndef HOT_YCSB_RANGE_SHARDED_H_
#define HOT_YCSB_RANGE_SHARDED_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "common/locks.h"
#include "ycsb/datasets.h"

namespace hot {
namespace ycsb {

// Owned splitter keys, sorted strictly ascending.  k splitters define k+1
// shards; shard 0 owns everything below splitters[0].
using SplitterKeys = std::vector<std::vector<uint8_t>>;

// Equi-depth boundaries: sorts the sample and takes `shards`-1 evenly
// spaced keys (duplicates collapse, so fewer shards may result).
inline SplitterKeys SplittersFromSamples(
    std::vector<std::vector<uint8_t>> samples, unsigned shards) {
  std::sort(samples.begin(), samples.end());
  samples.erase(std::unique(samples.begin(), samples.end()), samples.end());
  SplitterKeys out;
  if (shards < 2 || samples.empty()) return out;
  for (unsigned s = 1; s < shards; ++s) {
    size_t i = samples.size() * s / shards;
    if (i >= samples.size()) break;
    if (!out.empty() && out.back() == samples[i]) continue;
    out.push_back(samples[i]);
  }
  return out;
}

// Equi-depth splitters for a generated data set: sample keys (terminated
// string bytes / big-endian integer bytes, matching what the index
// adapters feed the tries), sort, and take `shards`-1 boundaries.
//
// The sample scales with the shard count: max(4096, shards * 256) keys,
// i.e. at least 256 sample points per boundary gap.  A fixed 4096-key
// sample left only 64 points per gap at 64 shards — enough quantile noise
// for a 1.41x max/mean shard imbalance on the url data set; 256 points
// halve the estimator's relative error and keep the url imbalance under
// 1.25 (range_sharded_test.cc pins this).
inline SplitterKeys SampledSplitters(const DataSet& ds, unsigned shards) {
  std::vector<std::vector<uint8_t>> samples;
  size_t n = ds.size();
  if (n == 0 || shards < 2) return {};
  const size_t max_sample =
      std::max<size_t>(4096, static_cast<size_t>(shards) * 256);
  size_t stride = n > max_sample ? n / max_sample : 1;
  for (size_t i = 0; i < n; i += stride) {
    if (ds.IsString()) {
      const std::string& s = ds.strings[i];
      std::vector<uint8_t> bytes(s.begin(), s.end());
      bytes.push_back(0);  // the 0x00 terminator TerminatedView appends
      samples.push_back(std::move(bytes));
    } else {
      std::vector<uint8_t> bytes(8);
      EncodeU64(ds.ints[i], bytes.data());
      samples.push_back(std::move(bytes));
    }
  }
  return SplittersFromSamples(std::move(samples), shards);
}

template <typename Index, typename KeyExtractor>
class RangeShardedIndex {
 public:
  // One empty shard per range.  Throws std::invalid_argument unless the
  // splitters ascend strictly.
  RangeShardedIndex(SplitterKeys splitters, KeyExtractor extractor)
      : extractor_(extractor), splitters_(std::move(splitters)) {
    for (size_t i = 0; i + 1 < splitters_.size(); ++i) {
      if (SplitterRef(i).Compare(SplitterRef(i + 1)) >= 0) {
        throw std::invalid_argument(
            "RangeShardedIndex: splitters must be strictly ascending");
      }
    }
    shard_count_ = splitters_.size() + 1;
    slots_ = std::make_unique<ShardSlot[]>(shard_count_);
    for (size_t s = 0; s < shard_count_; ++s) {
      slots_[s].index = std::make_unique<Index>(extractor_);
    }
  }

  // --- point operations ------------------------------------------------------

  // Inserts `value` under its extracted key.
  bool Insert(uint64_t value) {
    KeyScratch scratch;
    return WithShard(ShardOf(extractor_(value, scratch)),
                     [&](Index& idx) { return idx.Insert(value); });
  }

  std::optional<uint64_t> Lookup(KeyRef key) const {
    return WithShard(ShardOf(key),
                     [&](const Index& idx) { return idx.Lookup(key); });
  }

  bool Remove(KeyRef key) {
    return WithShard(ShardOf(key),
                     [&](Index& idx) { return idx.Remove(key); });
  }

  // --- ordered scans ---------------------------------------------------------

  // Visits up to `limit` values with key >= `start` in GLOBAL key order;
  // returns the number visited.  Starts in the shard owning `start` and
  // spills into successor shards — each scanned from its lowest key, which
  // is by construction above everything already produced — until the limit
  // is reached or the key space is exhausted.  Empty shards in between cost
  // one scan call each and yield nothing.  Each shard is scanned under its
  // own lock; concurrent writers may interleave between shards (same
  // per-operation consistency as the underlying index, not a global
  // snapshot).
  template <typename Fn>
  size_t ScanFrom(KeyRef start, size_t limit, Fn&& fn) const {
    size_t produced = 0;
    const unsigned first = ShardOf(start);
    for (unsigned s = first; s < shard_count_ && produced < limit; ++s) {
      KeyRef from = s == first ? start : KeyRef();
      produced += WithShard(s, [&](const Index& idx) {
        return idx.ScanFrom(from, limit - produced, fn);
      });
    }
    return produced;
  }

  // --- introspection ---------------------------------------------------------

  size_t size() const {
    size_t n = 0;
    for (unsigned s = 0; s < shard_count_; ++s) n += shard_size(s);
    return n;
  }

  unsigned shard_count() const { return static_cast<unsigned>(shard_count_); }
  size_t shard_size(unsigned s) const {
    return WithShard(s, [](const Index& idx) { return idx.size(); });
  }

  // Shard the key routes to: the number of splitters <= key.
  unsigned ShardOf(KeyRef key) const {
    size_t lo = 0, hi = splitters_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (SplitterRef(mid).Compare(key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<unsigned>(lo);
  }

 private:
  // One shard's complete state — index pointer plus its lock — in its own
  // cache line.  Adjacent 1-byte lock words would put up to 64 shards'
  // locks in ONE line, so any thread's acquire would invalidate every
  // other thread's cached copy of every lock (pure false sharing; the §10
  // post-mortem measured it as most of a 1→16-shard lookup regression).
  struct alignas(64) ShardSlot {
    std::unique_ptr<Index> index;
    mutable RowexLockWord lock;
  };

  struct LockGuard {
    explicit LockGuard(RowexLockWord* lock) : lock_(lock) { lock_->Lock(); }
    ~LockGuard() { lock_->Unlock(); }
    RowexLockWord* lock_;
  };

  KeyRef SplitterRef(size_t i) const {
    return KeyRef(splitters_[i].data(), splitters_[i].size());
  }

  template <typename Fn>
  decltype(auto) WithShard(unsigned s, Fn&& fn) const {
    assert(s < shard_count_);
    LockGuard guard(&slots_[s].lock);
    return fn(const_cast<const Index&>(*slots_[s].index));
  }
  template <typename Fn>
  decltype(auto) WithShard(unsigned s, Fn&& fn) {
    assert(s < shard_count_);
    LockGuard guard(&slots_[s].lock);
    return fn(*slots_[s].index);
  }

  KeyExtractor extractor_;
  SplitterKeys splitters_;
  size_t shard_count_ = 0;
  std::unique_ptr<ShardSlot[]> slots_;
};

}  // namespace ycsb
}  // namespace hot

#endif  // HOT_YCSB_RANGE_SHARDED_H_

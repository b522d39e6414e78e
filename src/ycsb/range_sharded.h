// Range-partitioned concurrency wrapper that PRESERVES GLOBAL KEY ORDER.
//
// The key space is partitioned by kShards-1 splitter keys into contiguous
// byte ranges; shard s owns keys in [splitter[s-1], splitter[s]) under
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
// Splitters come from three sources:
//   * explicit SplitterKeys (tests: put boundaries exactly where the edge
//     cases are),
//   * UniformByteSplitters(n) — n equal first-byte ranges; the default, and
//     the right choice for uniformly distributed binary keys,
//   * SampledSplitters(dataset, n) — equi-depth boundaries from a sorted
//     key sample; use for skewed key spaces (URLs share "http…" prefixes,
//     which would otherwise collapse every key into one shard).
//
// Routing counts the splitters <= key.  Each splitter is kept as its first
// 8 bytes in a big-endian u64 (zero-padded), and the key's prefix is one
// 8-byte load plus a byteswap.  A branch-free lower bound over that sorted
// u64 array counts the splitters whose prefix is below the key's — every
// probe is a compare and a conditional add, so no probe outcome is
// mispredicted.  Zero-padded prefix order agrees with KeyRef::Compare
// whenever two prefixes differ, so only splitters that share the key's
// prefix remain undecided.  Those form one run (the splitters ascend),
// which is binary-searched with full byte comparisons.  A key's shard
// never changes (splitters are fixed after Reshard), so per-key operation
// atomicity reduces to the shard's own synchronization.
//
// Concurrency hygiene, learned the hard way (DESIGN.md §10 post-mortem):
// each shard's index pointer and lock word live in one cache-line-aligned
// slot, so two threads operating on different shards never false-share a
// line of lock words; and LookupBatch routes/buckets in reusable
// thread-local scratch — the previous vector-of-vectors gather allocated
// per call and serialized every thread through the heap.

#ifndef HOT_YCSB_RANGE_SHARDED_H_
#define HOT_YCSB_RANGE_SHARDED_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/extractors.h"
#include "common/key.h"
#include "common/locks.h"
#include "ycsb/datasets.h"

namespace hot {
namespace ycsb {

// Owned splitter keys, sorted strictly ascending.  k splitters define k+1
// shards; shard 0 owns everything below splitters[0].
using SplitterKeys = std::vector<std::vector<uint8_t>>;

namespace detail {

template <typename T>
concept ShardHasUpsert = requires(T& t, uint64_t v) {
  { t.Upsert(v) } -> std::same_as<std::optional<uint64_t>>;
};

// Indexes exposing the routed-subset AMAC entry point (HotTrie): the
// wrapper hands them (keys, ids) directly, with no gather/scatter copies.
template <typename T>
concept ShardHasLookupBatchIndexed =
    requires(const T& t, std::span<const KeyRef> keys,
             std::span<const uint32_t> ids,
             std::span<std::optional<uint64_t>> out) {
      t.LookupBatchIndexed(keys, ids, out);
    };

// First 8 key bytes as a big-endian u64, zero-padded.  Ordering property
// used by the router: if two keys' prefixes differ, u64 order equals
// KeyRef::Compare order (memcmp-then-length), because a zero pad byte is
// minimal exactly like "ran out of key".  Equal prefixes decide nothing.
inline uint64_t KeyPrefix64(KeyRef key) {
  if (key.size() >= 8) return LoadBigEndian64(key.data());
  uint64_t p = 0;
  for (size_t i = 0; i < key.size(); ++i) {
    p |= static_cast<uint64_t>(key.data()[i]) << (56 - 8 * i);
  }
  return p;
}

}  // namespace detail

// Contiguous block partition of `shards` shards over `threads` workers —
// the thread-affine execution contract shared by the benches and the YCSB
// driver: thread t owns shards [t*S/T, (t+1)*S/T), so each worker touches a
// contiguous key range (its splitter window) and its shards' upper trie
// levels stay in its private cache between operations.
inline std::pair<unsigned, unsigned> ShardRangeOfThread(unsigned thread,
                                                        unsigned shards,
                                                        unsigned threads) {
  const uint64_t s = shards, t = threads;
  return {static_cast<unsigned>(thread * s / t),
          static_cast<unsigned>((thread + uint64_t{1}) * s / t)};
}

// Inverse of ShardRangeOfThread: the worker whose range contains `shard`.
inline unsigned OwnerOfShard(unsigned shard, unsigned shards,
                             unsigned threads) {
  return static_cast<unsigned>(
      ((shard + uint64_t{1}) * threads - 1) / shards);
}

// `shards` equal first-byte ranges: splitters at byte ceil(256*s/shards).
// Balanced for uniformly distributed binary keys (the integer data sets);
// skewed key spaces should use SampledSplitters instead.
inline SplitterKeys UniformByteSplitters(unsigned shards) {
  SplitterKeys out;
  for (unsigned s = 1; s < shards; ++s) {
    out.push_back({static_cast<uint8_t>((256u * s) / shards)});
  }
  return out;
}

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

// Equi-depth splitters for a generated data set: sample up to `max_sample`
// keys (terminated string bytes / big-endian integer bytes, matching what
// the index adapters feed the tries), sort, and take `shards`-1 boundaries.
//
// `max_sample = 0` (the default) scales the sample with the shard count:
// max(4096, shards * 256), i.e. at least 256 sample points per boundary
// gap.  A fixed 4096-key sample left only 64 points per gap at 64 shards —
// enough quantile noise for a 1.41x max/mean shard imbalance on the url
// data set (BENCH_ablation_shards.json, PR 5); 256 points pulls the
// estimator's relative error down by 2x and keeps the url imbalance under
// 1.2 (range_sharded_test.cc pins this).
inline SplitterKeys SampledSplitters(const DataSet& ds, unsigned shards,
                                     size_t max_sample = 0) {
  std::vector<std::vector<uint8_t>> samples;
  size_t n = ds.size();
  if (n == 0 || shards < 2) return {};
  if (max_sample == 0) {
    max_sample = std::max<size_t>(4096, static_cast<size_t>(shards) * 256);
  }
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
  using ShardType = Index;
  static constexpr unsigned kDefaultShards = 16;

  template <typename... Args>
  explicit RangeShardedIndex(KeyExtractor extractor = KeyExtractor(),
                             Args&&... shard_args)
      : RangeShardedIndex(UniformByteSplitters(kDefaultShards), extractor,
                          std::forward<Args>(shard_args)...) {}

  template <typename... Args>
  RangeShardedIndex(SplitterKeys splitters, KeyExtractor extractor,
                    Args&&... shard_args)
      : extractor_(extractor),
        factory_([extractor, shard_args...]() {
          return std::make_unique<Index>(extractor, shard_args...);
        }) {
    InstallSplitters(std::move(splitters));
  }

  // Replaces the partitioning (e.g. with boundaries sampled from the data
  // set about to be loaded).  Only legal while the index is empty: keys
  // must never straddle a moved boundary.
  void Reshard(SplitterKeys splitters) {
    if (size() != 0) {
      throw std::logic_error(
          "RangeShardedIndex::Reshard requires an empty index");
    }
    InstallSplitters(std::move(splitters));
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

  // Insert-or-overwrite; returns the replaced value if the key was present.
  // On shard types without a native Upsert the fallback is insert-if-absent,
  // which is equivalent whenever the stored value is determined by its key
  // (true for every data set and trace keyspace in this repository).
  std::optional<uint64_t> Upsert(uint64_t value) {
    KeyScratch scratch;
    const unsigned s = ShardOf(extractor_(value, scratch));
    return WithShard(s, [&](Index& idx) -> std::optional<uint64_t> {
      if constexpr (detail::ShardHasUpsert<Index>) {
        return idx.Upsert(value);
      } else {
        return idx.Insert(value) ? std::nullopt
                                 : std::optional<uint64_t>(value);
      }
    });
  }

  // Routes every key to its owning shard in one pass (RouteOne per key).
  // Agrees with ShardOf key-for-key (range_sharded_test.cc pins the
  // parity).
  void RouteBatch(std::span<const KeyRef> keys, uint32_t* shard_out) const {
    for (size_t i = 0; i < keys.size(); ++i) {
      shard_out[i] = RouteOne(keys[i], detail::KeyPrefix64(keys[i]));
    }
  }

  // Batched point lookups, forwarded per shard to the underlying
  // memory-level-parallel descent (hot/batch_lookup.h).  One route pass
  // (RouteBatch) finds every key's shard; a counting sort buckets key
  // *ids* by shard in reusable thread-local scratch (the previous
  // vector-of-vectors allocated every call, and every calling thread
  // serialized on the allocator); each nonempty bucket then drives
  // one AMAC group through the shard's LookupBatchIndexed, with the id
  // bucket acting as the scatter map.  out[i] is written exactly once, for
  // every i — including duplicate keys and keys of empty shards — so the
  // scatter-back order is deterministic.
  void LookupBatch(std::span<const KeyRef> keys,
                   std::span<std::optional<uint64_t>> out) const
    requires detail::ShardHasLookupBatchIndexed<Index>
  {
    assert(out.size() >= keys.size());
    const size_t n = keys.size();
    if (n == 0) return;
    struct Scratch {
      std::vector<uint32_t> shard_of;  // RouteBatch output, one per key
      std::vector<uint32_t> cursor;    // bucket starts, then fill cursors
      std::vector<uint32_t> ids;       // key ids grouped by shard
    };
    static thread_local Scratch scratch;

    scratch.shard_of.resize(n);
    RouteBatch(keys, scratch.shard_of.data());

    // Counting sort of ids by shard, stable in input order.  After the
    // fill pass cursor[s] has advanced to the start of bucket s+1, so
    // bucket s spans [s == 0 ? 0 : cursor[s-1], cursor[s]).
    scratch.cursor.assign(shard_count_ + 1, 0);
    for (size_t i = 0; i < n; ++i) ++scratch.cursor[scratch.shard_of[i] + 1];
    for (size_t s = 1; s <= shard_count_; ++s) {
      scratch.cursor[s] += scratch.cursor[s - 1];
    }
    scratch.ids.resize(n);
    for (size_t i = 0; i < n; ++i) {
      scratch.ids[scratch.cursor[scratch.shard_of[i]]++] =
          static_cast<uint32_t>(i);
    }

    for (size_t s = 0; s < shard_count_; ++s) {
      const uint32_t begin = s == 0 ? 0 : scratch.cursor[s - 1];
      const uint32_t end = scratch.cursor[s];
      if (begin == end) continue;
      std::span<const uint32_t> ids(scratch.ids.data() + begin, end - begin);
      WithShard(static_cast<unsigned>(s), [&](const Index& idx) {
        idx.LookupBatchIndexed(keys, ids, out);
      });
    }
  }

  // --- ordered scans ---------------------------------------------------------

  // Visits up to `limit` values with key >= `start` in GLOBAL key order;
  // returns the number visited.  Starts in the shard owning `start` and
  // spills into successor shards — each scanned from its lowest key, which
  // is by construction above everything already produced — until the limit
  // is reached or the key space is exhausted.  Empty shards in between cost
  // one scan call each and yield nothing.  Each shard is scanned under its
  // own synchronization; concurrent writers may interleave between shards
  // (same per-operation consistency as the underlying index, not a global
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
    for (unsigned s = 0; s < shard_count_; ++s) {
      n += WithShard(s, [](const Index& idx) { return idx.size(); });
    }
    return n;
  }
  bool empty() const { return size() == 0; }

  unsigned shard_count() const { return static_cast<unsigned>(shard_count_); }
  size_t shard_size(unsigned s) const {
    return WithShard(s, [](const Index& idx) { return idx.size(); });
  }
  const SplitterKeys& splitters() const { return splitters_; }

  // Shard the key routes to: the number of splitters <= key.  Same
  // prefix-first search as RouteBatch.
  unsigned ShardOf(KeyRef key) const {
    return RouteOne(key, detail::KeyPrefix64(key));
  }

  // Visits every shard index in shard (= key) order.  Quiescent-only when
  // the visitor walks tree structure (obs/telemetry.h census fold,
  // testing/differ.h per-shard audits).
  template <typename Fn>
  void ForEachShard(Fn&& fn) const {
    for (size_t s = 0; s < shard_count_; ++s) fn(*slots_[s].index);
  }

  const KeyExtractor& extractor() const { return extractor_; }

 private:
  // One shard's complete state — index pointer plus its wrapper lock — in
  // its own cache line.  The previous layout kept every shard's 1-byte
  // RowexLockWord adjacent in a single RowexLockWord[]: up to 64 shards'
  // locks in ONE line, so any thread's acquire invalidated every other
  // thread's cached copy of every lock (pure false sharing; the §10
  // post-mortem measured it as most of the 1→16-shard lookup regression).
  struct alignas(64) ShardSlot {
    std::unique_ptr<Index> index;
    mutable RowexLockWord lock;
  };

  struct LockGuard {
    explicit LockGuard(RowexLockWord* lock) : lock_(lock) { lock_->Lock(); }
    ~LockGuard() { lock_->Unlock(); }
    RowexLockWord* lock_;
  };

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

  // Partition point over the splitters: count of splitters <= key.  The
  // lower bound over prefix64_ halves the candidate range with a compare
  // and an add instead of a branch; it ends on the first splitter whose
  // prefix is not below the key's.  Splitters sharing the key's prefix
  // follow it in a run, which can be long (url splitters share
  // "https://"), so the rest is a binary search over [lo, n) in which a
  // probe pays KeyRef::Compare only inside the run: O(log k) full
  // compares per key, as many as a plain binary search.
  unsigned RouteOne(KeyRef key, uint64_t key_prefix) const {
    const size_t n = prefix64_.size();
    if (n == 0) return 0;
    const uint64_t* base = prefix64_.data();
    for (size_t len = n; len > 1;) {
      const size_t half = len / 2;
      base += (base[half - 1] < key_prefix) * half;
      len -= half;
    }
    size_t lo = static_cast<size_t>(base - prefix64_.data()) +
                (*base < key_prefix);
    if (lo == n || prefix64_[lo] != key_prefix) {
      return static_cast<unsigned>(lo);
    }
    size_t hi = n;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      // Past lo every prefix is >= the key's, so a splitter <= key must
      // share it.
      const bool le = prefix64_[mid] == key_prefix &&
                      KeyRef(splitters_[mid].data(), splitters_[mid].size())
                              .Compare(key) <= 0;
      if (le) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<unsigned>(lo);
  }

  void InstallSplitters(SplitterKeys splitters) {
    for (size_t i = 0; i + 1 < splitters.size(); ++i) {
      KeyRef a(splitters[i].data(), splitters[i].size());
      KeyRef b(splitters[i + 1].data(), splitters[i + 1].size());
      if (a.Compare(b) >= 0) {
        throw std::invalid_argument(
            "RangeShardedIndex: splitters must be strictly ascending");
      }
    }
    splitters_ = std::move(splitters);
    prefix64_.clear();
    for (const auto& sp : splitters_) {
      prefix64_.push_back(detail::KeyPrefix64(KeyRef(sp.data(), sp.size())));
    }
    shard_count_ = splitters_.size() + 1;
    slots_ = std::make_unique<ShardSlot[]>(shard_count_);
    for (size_t s = 0; s < shard_count_; ++s) slots_[s].index = factory_();
  }

  KeyExtractor extractor_;
  std::function<std::unique_ptr<Index>()> factory_;
  SplitterKeys splitters_;
  std::vector<uint64_t> prefix64_;  // KeyPrefix64 of each splitter
  size_t shard_count_ = 0;
  std::unique_ptr<ShardSlot[]> slots_;
};

}  // namespace ycsb
}  // namespace hot

#endif  // HOT_YCSB_RANGE_SHARDED_H_

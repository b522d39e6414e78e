// ycsb/range_sharded.h: splitter routing on the raw key bytes, the
// cross-shard spillover scan (differentially against an ordered oracle,
// with starts exactly at / just below / just above every splitter key),
// empty-shard spillover, resharding rules, the telemetry fold, and an
// 8-thread mixed-op race (run under TSan in CI).

#include "ycsb/range_sharded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "common/rng.h"
#include "hot/rowex.h"
#include "hot/trie.h"
#include "obs/telemetry.h"

namespace hot {
namespace {

using ycsb::RangeShardedIndex;
using ycsb::SampledSplitters;
using ycsb::SplitterKeys;
using ycsb::SplittersFromSamples;
using ycsb::UniformByteSplitters;

using RangeShardedU64 = RangeShardedIndex<HotTrie<U64KeyExtractor>,
                                          U64KeyExtractor>;
using RangeShardedRowexU64 =
    RangeShardedIndex<RowexHotTrie<U64KeyExtractor>, U64KeyExtractor>;

std::vector<uint8_t> BigEndian(uint64_t v) {
  std::vector<uint8_t> bytes(8);
  EncodeU64(v, bytes.data());
  return bytes;
}

SplitterKeys SplittersAt(std::initializer_list<uint64_t> values) {
  SplitterKeys out;
  for (uint64_t v : values) out.push_back(BigEndian(v));
  return out;
}

// Oracle scan: big-endian byte order on u64 keys is numeric order, so an
// ordered std::set of the values answers every ScanFrom query exactly.
std::vector<uint64_t> OracleScan(const std::set<uint64_t>& oracle,
                                 uint64_t start, size_t limit) {
  std::vector<uint64_t> out;
  for (auto it = oracle.lower_bound(start);
       it != oracle.end() && out.size() < limit; ++it) {
    out.push_back(*it);
  }
  return out;
}

template <typename Index>
std::vector<uint64_t> IndexScan(const Index& idx, uint64_t start,
                                size_t limit) {
  std::vector<uint64_t> out;
  U64Key k(start);
  size_t n = idx.ScanFrom(k.ref(), limit, [&](uint64_t v) {
    out.push_back(v);
  });
  EXPECT_EQ(n, out.size());
  return out;
}

// --- routing ---------------------------------------------------------------

TEST(RangeSharded, SplitterRoutingBoundaries) {
  RangeShardedU64 idx(SplittersAt({100, 200, 300}), U64KeyExtractor());
  ASSERT_EQ(idx.shard_count(), 4u);
  // Shard s owns [splitter[s-1], splitter[s]): a key EQUAL to a splitter
  // belongs to the shard to the right of it.
  EXPECT_EQ(idx.ShardOf(U64Key(0).ref()), 0u);
  EXPECT_EQ(idx.ShardOf(U64Key(99).ref()), 0u);
  EXPECT_EQ(idx.ShardOf(U64Key(100).ref()), 1u);
  EXPECT_EQ(idx.ShardOf(U64Key(101).ref()), 1u);
  EXPECT_EQ(idx.ShardOf(U64Key(199).ref()), 1u);
  EXPECT_EQ(idx.ShardOf(U64Key(200).ref()), 2u);
  EXPECT_EQ(idx.ShardOf(U64Key(299).ref()), 2u);
  EXPECT_EQ(idx.ShardOf(U64Key(300).ref()), 3u);
  EXPECT_EQ(idx.ShardOf(U64Key(~uint64_t{0}).ref()), 3u);
}

TEST(RangeSharded, NoSplittersMeansOneShard) {
  RangeShardedU64 idx(SplitterKeys{}, U64KeyExtractor());
  EXPECT_EQ(idx.shard_count(), 1u);
  EXPECT_TRUE(idx.Insert(7));
  EXPECT_EQ(idx.Lookup(U64Key(7).ref()), std::optional<uint64_t>(7));
  EXPECT_EQ(IndexScan(idx, 0, 10), std::vector<uint64_t>{7});
}

TEST(RangeSharded, SplittersMustBeStrictlyAscending) {
  EXPECT_THROW(RangeShardedU64(SplittersAt({100, 100}), U64KeyExtractor()),
               std::invalid_argument);
  EXPECT_THROW(RangeShardedU64(SplittersAt({200, 100}), U64KeyExtractor()),
               std::invalid_argument);
}

TEST(RangeSharded, ReshardRequiresEmptyIndex) {
  RangeShardedU64 idx;
  EXPECT_EQ(idx.shard_count(), RangeShardedU64::kDefaultShards);
  idx.Reshard(SplittersAt({1000}));
  EXPECT_EQ(idx.shard_count(), 2u);
  ASSERT_TRUE(idx.Insert(5));
  EXPECT_THROW(idx.Reshard(SplittersAt({2000})), std::logic_error);
  ASSERT_TRUE(idx.Remove(U64Key(5).ref()));
  idx.Reshard(SplittersAt({2000, 3000}));
  EXPECT_EQ(idx.shard_count(), 3u);
}

// --- cross-shard ordered scans ---------------------------------------------

TEST(RangeSharded, ScanAtEverySplitterBoundary) {
  const SplitterKeys splitters = SplittersAt({100, 200, 300});
  RangeShardedU64 idx(splitters, U64KeyExtractor());
  std::set<uint64_t> oracle;
  for (uint64_t v = 0; v < 400; v += 3) {  // hits and gaps on both sides
    ASSERT_TRUE(idx.Insert(v));
    oracle.insert(v);
  }
  ASSERT_EQ(idx.size(), oracle.size());
  for (uint64_t s : {uint64_t{100}, uint64_t{200}, uint64_t{300}}) {
    for (uint64_t start : {s - 1, s, s + 1}) {  // just below / at / above
      for (size_t limit : {size_t{1}, size_t{7}, size_t{150}, size_t{500}}) {
        EXPECT_EQ(IndexScan(idx, start, limit),
                  OracleScan(oracle, start, limit))
            << "start=" << start << " limit=" << limit;
      }
    }
  }
  // Limits that force the scan across 2, 3 and all 4 shards.
  EXPECT_EQ(IndexScan(idx, 0, 50), OracleScan(oracle, 0, 50));
  EXPECT_EQ(IndexScan(idx, 0, 90), OracleScan(oracle, 0, 90));
  EXPECT_EQ(IndexScan(idx, 0, 1000), OracleScan(oracle, 0, 1000));
  EXPECT_EQ(IndexScan(idx, 399, 10), OracleScan(oracle, 399, 10));
  EXPECT_EQ(IndexScan(idx, 400, 10), std::vector<uint64_t>{});
}

TEST(RangeSharded, EmptyShardSpillover) {
  // Shards 1 and 2 ([100,200) and [200,300)) stay empty: a scan entering
  // them must pass through and keep producing from shard 3.
  RangeShardedU64 idx(SplittersAt({100, 200, 300}), U64KeyExtractor());
  std::set<uint64_t> oracle;
  for (uint64_t v : {5, 50, 99, 300, 301, 350}) {
    ASSERT_TRUE(idx.Insert(v));
    oracle.insert(v);
  }
  EXPECT_EQ(idx.shard_size(1), 0u);
  EXPECT_EQ(idx.shard_size(2), 0u);
  for (uint64_t start : {uint64_t{0}, uint64_t{60}, uint64_t{99},
                         uint64_t{100}, uint64_t{150}, uint64_t{250},
                         uint64_t{300}}) {
    for (size_t limit : {size_t{1}, size_t{3}, size_t{10}}) {
      EXPECT_EQ(IndexScan(idx, start, limit),
                OracleScan(oracle, start, limit))
          << "start=" << start << " limit=" << limit;
    }
  }
  // A completely empty index scans to nothing from anywhere.
  RangeShardedU64 empty(SplittersAt({100, 200}), U64KeyExtractor());
  EXPECT_EQ(IndexScan(empty, 0, 10), std::vector<uint64_t>{});
  EXPECT_EQ(IndexScan(empty, 150, 10), std::vector<uint64_t>{});
}

// --- differential ----------------------------------------------------------

template <typename Index>
void DifferentialMixedOps(Index& idx, uint64_t seed) {
  std::set<uint64_t> oracle;
  SplitMix64 rng(seed);
  constexpr uint64_t kKeyRange = 3000;  // straddles the 1000/2000 splitters
  for (int i = 0; i < 60000; ++i) {
    uint64_t v = rng.NextBounded(kKeyRange);
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2:
        ASSERT_EQ(idx.Insert(v), oracle.insert(v).second);
        break;
      case 3: {
        auto got = idx.Lookup(U64Key(v).ref());
        ASSERT_EQ(got.has_value(), oracle.count(v) > 0);
        if (got) ASSERT_EQ(*got, v);
        break;
      }
      case 4:
        ASSERT_EQ(idx.Remove(U64Key(v).ref()), oracle.erase(v) > 0);
        break;
      case 5: {
        bool present = oracle.count(v) > 0;
        auto prev = idx.Upsert(v);
        ASSERT_EQ(prev.has_value(), present);
        oracle.insert(v);
        break;
      }
      default: {
        size_t limit = 1 + rng.NextBounded(64);
        ASSERT_EQ(IndexScan(idx, v, limit), OracleScan(oracle, v, limit))
            << "scan from " << v;
        break;
      }
    }
    if (i % 5000 == 0) ASSERT_EQ(idx.size(), oracle.size());
  }
  ASSERT_EQ(idx.size(), oracle.size());
}

TEST(RangeSharded, DifferentialMixedOpsLocked) {
  RangeShardedU64 idx(SplittersAt({1000, 2000}), U64KeyExtractor());
  DifferentialMixedOps(idx, 77);
}

TEST(RangeSharded, DifferentialMixedOpsRowex) {
  static_assert(RangeShardedRowexU64::kSelfSynchronized,
                "ROWEX shards must bypass the wrapper lock");
  static_assert(!RangeShardedU64::kSelfSynchronized);
  RangeShardedRowexU64 idx(SplittersAt({1000, 2000}), U64KeyExtractor());
  DifferentialMixedOps(idx, 78);
}

TEST(RangeSharded, LookupBatchMatchesScalar) {
  RangeShardedU64 idx(SplittersAt({64, 128, 192}), U64KeyExtractor());
  for (uint64_t v = 0; v < 256; v += 2) ASSERT_TRUE(idx.Insert(v));
  std::vector<U64Key> storage;
  storage.reserve(256);
  std::vector<KeyRef> keys;
  for (uint64_t v = 0; v < 256; ++v) {  // hits and misses across all shards
    storage.emplace_back(v);
    keys.push_back(storage.back().ref());
  }
  std::vector<std::optional<uint64_t>> out(keys.size());
  idx.LookupBatch(std::span<const KeyRef>(keys),
                  std::span<std::optional<uint64_t>>(out));
  for (uint64_t v = 0; v < 256; ++v) {
    ASSERT_EQ(out[v], idx.Lookup(keys[v])) << v;
    ASSERT_EQ(out[v].has_value(), v % 2 == 0) << v;
  }
}

// Scatter-order regression for the scratch-based batched path: out[i] must
// be written for EVERY input position i — duplicate keys (several ids land
// in one shard bucket), all keys routing to one shard, and shards whose
// bucket is empty.  The old vector-of-vectors gather got this right by
// construction; the counting-sort rewrite has to be pinned.
TEST(RangeSharded, LookupBatchScatterOrder) {
  RangeShardedU64 idx(SplittersAt({64, 128, 192}), U64KeyExtractor());
  for (uint64_t v = 0; v < 256; v += 2) ASSERT_TRUE(idx.Insert(v));

  // Duplicate keys interleaved across shards, in deliberately non-sorted
  // shard order (shard 3, 0, 3, 1, 0, ...), plus misses.
  std::vector<uint64_t> probe = {200, 10, 200, 70, 10, 255, 7, 70, 10, 131};
  std::vector<U64Key> storage;
  storage.reserve(probe.size());
  std::vector<KeyRef> keys;
  for (uint64_t v : probe) {
    storage.emplace_back(v);
    keys.push_back(storage.back().ref());
  }
  // Poison the output so an unwritten position is caught.
  std::vector<std::optional<uint64_t>> out(keys.size(),
                                           std::optional<uint64_t>(999999));
  idx.LookupBatch(std::span<const KeyRef>(keys),
                  std::span<std::optional<uint64_t>>(out));
  for (size_t i = 0; i < probe.size(); ++i) {
    if (probe[i] % 2 == 0) {
      ASSERT_EQ(out[i], std::optional<uint64_t>(probe[i])) << i;
    } else {
      ASSERT_EQ(out[i], std::nullopt) << i;
    }
  }

  // All keys in one shard; every other shard's bucket is empty.
  keys.clear();
  storage.clear();
  storage.reserve(32);
  for (uint64_t v = 140; v < 172; ++v) {  // all route to shard 2
    ASSERT_EQ(idx.ShardOf(U64Key(v).ref()), 2u);
    storage.emplace_back(v);
    keys.push_back(storage.back().ref());
  }
  out.assign(keys.size(), std::optional<uint64_t>(999999));
  idx.LookupBatch(std::span<const KeyRef>(keys),
                  std::span<std::optional<uint64_t>>(out));
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t v = 140 + i;
    ASSERT_EQ(out[i], v % 2 == 0 ? std::optional<uint64_t>(v) : std::nullopt)
        << i;
  }
}

// RouteBatch must agree with ShardOf key-for-key, including keys that share
// their first 8 bytes with a splitter — the prefix64 fast path decides
// those probes by full byte comparison, not the u64 prefix.
TEST(RangeSharded, RouteBatchMatchesShardOf) {
  // Splitters longer than 8 bytes sharing one 8-byte prefix, so every
  // routing decision among them falls through to the byte comparison.
  auto with_suffix = [](std::initializer_list<uint8_t> suffix) {
    std::vector<uint8_t> k = {'p', 'r', 'e', 'f', 'i', 'x', '!', '!'};
    k.insert(k.end(), suffix);
    return k;
  };
  SplitterKeys sk;
  sk.push_back(with_suffix({0x10}));
  sk.push_back(with_suffix({0x20}));
  sk.push_back(with_suffix({0x20, 0x01}));  // differs only at byte 9
  sk.push_back(with_suffix({0x30}));
  RangeShardedIndex<HotTrie<StringTableExtractor>, StringTableExtractor> idx(
      sk, StringTableExtractor(nullptr));

  std::vector<std::vector<uint8_t>> probes = {
      {'a'},                                  // below the prefix entirely
      {'p', 'r', 'e', 'f', 'i', 'x'},         // shorter than the prefix
      {'p', 'r', 'e', 'f', 'i', 'x', '!', '!'},  // == prefix, < all splitters
      with_suffix({0x10}),                    // equal to splitter 0
      with_suffix({0x15}),
      with_suffix({0x20}),                    // equal to splitter 1
      with_suffix({0x20, 0x00}),              // between splitters 1 and 2
      with_suffix({0x20, 0x01}),              // equal to splitter 2
      with_suffix({0x25}),
      with_suffix({0x30, 0xff}),              // above splitter 3
      {'z'},                                  // above the prefix entirely
  };
  std::vector<KeyRef> keys;
  for (const auto& p : probes) keys.emplace_back(p.data(), p.size());
  std::vector<uint32_t> routed(keys.size());
  idx.RouteBatch(keys, routed.data());
  const unsigned expected[] = {0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(routed[i], idx.ShardOf(keys[i])) << i;
    EXPECT_EQ(routed[i], expected[i]) << i;
  }
}

// ShardOf and RouteBatch (both RouteOne: branch-free lower bound over the
// 8-byte splitter prefixes, binary search within an equal-prefix run) must
// equal a brute-force count of splitters <= key.  Checks `probes` plus
// every splitter, its neighbours one byte longer and shorter, and its
// 8-byte prefix.
void ExpectRoutesMatchBruteForce(const SplitterKeys& sk,
                                 std::vector<std::vector<uint8_t>> probes) {
  RangeShardedIndex<HotTrie<StringTableExtractor>, StringTableExtractor> idx(
      sk, StringTableExtractor(nullptr));
  ASSERT_EQ(idx.shard_count(), sk.size() + 1);
  for (const auto& sp : sk) {
    probes.push_back(sp);
    std::vector<uint8_t> longer = sp;
    longer.push_back(0x00);
    probes.push_back(longer);
    probes.emplace_back(sp.begin(), sp.end() - 1);
    if (sp.size() > 8) probes.emplace_back(sp.begin(), sp.begin() + 8);
  }
  std::vector<KeyRef> keys;
  for (const auto& p : probes) keys.emplace_back(p.data(), p.size());
  std::vector<uint32_t> routed(keys.size());
  idx.RouteBatch(keys, routed.data());
  for (size_t i = 0; i < keys.size(); ++i) {
    unsigned expect = 0;
    for (const auto& sp : sk) {
      expect += KeyRef(sp.data(), sp.size()).Compare(keys[i]) <= 0;
    }
    ASSERT_EQ(idx.ShardOf(keys[i]), expect) << "probe " << i;
    ASSERT_EQ(routed[i], expect) << "probe " << i;
  }
}

// Splitter sets that mix keys shorter than 8 bytes (zero-padded prefixes
// that tie with longer keys) with short runs that share one 8-byte prefix
// and differ only after it.
TEST(RangeSharded, RouteMatchesBruteForceCount) {
  SplitMix64 rng(99);
  auto random_key = [&](size_t max_len) {
    std::vector<uint8_t> k(rng.NextBounded(max_len + 1));
    for (auto& b : k) {
      // A small alphabet with 0x00 and 0xff makes prefix ties common.
      static constexpr uint8_t kAlphabet[] = {0x00, 0x01, 'm', 0xfe, 0xff};
      b = kAlphabet[rng.NextBounded(5)];
    }
    return k;
  };
  for (unsigned shards : {1u, 2u, 16u, 64u, 1000u}) {
    SCOPED_TRACE(shards);
    std::set<std::vector<uint8_t>> pool;
    while (pool.size() + 1 < shards) {
      if (rng.NextBounded(3) == 0) {
        // A run sharing one 8-byte prefix, including the bare prefix.
        std::vector<uint8_t> prefix = random_key(8);
        prefix.resize(8, 'm');
        for (int j = 0; j < 6 && pool.size() + 1 < shards; ++j) {
          std::vector<uint8_t> k = prefix;
          std::vector<uint8_t> suffix = random_key(4);
          k.insert(k.end(), suffix.begin(), suffix.end());
          pool.insert(k);
        }
      } else {
        std::vector<uint8_t> k = random_key(7);  // shorter than 8 bytes
        if (!k.empty()) pool.insert(k);
      }
    }
    // Random probes of every length around the prefix width.
    std::vector<std::vector<uint8_t>> probes;
    for (int i = 0; i < 2000; ++i) probes.push_back(random_key(12));
    ExpectRoutesMatchBruteForce(SplitterKeys(pool.begin(), pool.end()),
                                std::move(probes));
  }
}

// Url splitters mostly share the 8-byte prefix "https://", so one
// equal-prefix run can hold nearly every splitter.  Runs of 2 to 4094
// splitters, with a shorter splitter ahead of the run and one after it.
TEST(RangeSharded, RouteSearchesALongSharedPrefixRun) {
  SplitMix64 rng(7);
  auto url = [&](const char* scheme) {
    std::string s = scheme;
    const size_t len = rng.NextBounded(7);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.NextBounded(26)));
    }
    return std::vector<uint8_t>(s.begin(), s.end());
  };
  for (unsigned shards : {5u, 17u, 4097u}) {
    SCOPED_TRACE(shards);
    std::set<std::vector<uint8_t>> pool;
    pool.insert(url("http://"));
    pool.insert(url("https:/~"));
    while (pool.size() + 1 < shards) pool.insert(url("https://"));
    std::vector<std::vector<uint8_t>> probes;
    for (int i = 0; i < 2000; ++i) probes.push_back(url("https://"));
    for (const char* scheme : {"http://", "https:/", "https:/~~", ""}) {
      probes.push_back(url(scheme));
    }
    ExpectRoutesMatchBruteForce(SplitterKeys(pool.begin(), pool.end()),
                                std::move(probes));
  }
}

// --- splitter selection ----------------------------------------------------

TEST(RangeSharded, SampledSplittersBalanceUniformIntegers) {
  ycsb::DataSet ds = ycsb::GenerateDataSet(ycsb::DataSetKind::kInteger, 50000);
  SplitterKeys sk = SampledSplitters(ds, 16);
  ASSERT_EQ(sk.size(), 15u);
  RangeShardedU64 idx(sk, U64KeyExtractor());
  for (uint64_t v : ds.ints) ASSERT_TRUE(idx.Insert(v));
  // Equi-depth boundaries from a uniform sample: every shard within 3x of
  // the ideal population (loose: the sample is only 4096 keys).
  size_t ideal = ds.ints.size() / idx.shard_count();
  for (unsigned s = 0; s < idx.shard_count(); ++s) {
    EXPECT_GT(idx.shard_size(s), ideal / 3) << "shard " << s;
    EXPECT_LT(idx.shard_size(s), ideal * 3) << "shard " << s;
  }
  obs::TelemetrySnapshot snap = obs::CollectTelemetry(idx);
  EXPECT_EQ(snap.shards, idx.shard_count());
  EXPECT_EQ(snap.empty_shards, 0u);
  EXPECT_GT(snap.shard_entries_min, 0u);
  EXPECT_GE(snap.shard_entries_max, snap.shard_entries_min);
  // The census counts node entries (inner pointers included), so the fold
  // across shards must cover at least one leaf entry per key.
  EXPECT_GE(snap.census.total_entries, ds.ints.size());
}

// Regression for the 64-shard equi-depth bias on skewed string keys: the
// fixed 4096-key sample left only 64 sample points per boundary gap, and
// the quantile noise produced a 1.41x max/ideal imbalance on the url set
// (BENCH_ablation_shards.json, PR 5).  The default now scales the sample
// with the shard count (>= 256 points per gap); the imbalance must stay
// within the estimator's noise band.
TEST(RangeSharded, SampledSplittersBalanceUrl64Shards) {
  ycsb::DataSet ds = ycsb::GenerateDataSet(ycsb::DataSetKind::kUrl, 60000);
  constexpr unsigned kShards = 64;
  SplitterKeys sk = SampledSplitters(ds, kShards);
  ASSERT_GE(sk.size(), kShards - 4);  // dedup may collapse a few boundaries
  RangeShardedIndex<HotTrie<StringTableExtractor>, StringTableExtractor> idx(
      sk, StringTableExtractor(&ds.strings));
  // Routing census is enough to measure balance (no inserts needed).
  std::vector<size_t> per_shard(idx.shard_count(), 0);
  for (const std::string& s : ds.strings) {
    ++per_shard[idx.ShardOf(TerminatedView(s))];
  }
  double ideal = static_cast<double>(ds.strings.size()) / idx.shard_count();
  size_t max_shard = 0;
  for (size_t c : per_shard) max_shard = std::max(max_shard, c);
  EXPECT_LT(static_cast<double>(max_shard) / ideal, 1.25)
      << "url 64-shard imbalance regressed";
}

TEST(RangeSharded, SplitterHelpersShapes) {
  EXPECT_EQ(UniformByteSplitters(1).size(), 0u);
  EXPECT_EQ(UniformByteSplitters(16).size(), 15u);
  // Duplicate-heavy samples collapse to fewer splitters, never crash: 100
  // copies of one key dedup to a single boundary (two shards), not eight.
  std::vector<std::vector<uint8_t>> same(100, BigEndian(42));
  EXPECT_EQ(SplittersFromSamples(same, 8).size(), 1u);
}

// --- concurrency -----------------------------------------------------------

// 8 threads of mixed inserts / lookups / removes / upserts / cross-shard
// scans.  Under TSan this is the data-race check for the per-shard lock
// path AND the lock-free ROWEX path; unconditionally it checks that no
// operation is lost and every scan result is globally ordered.
// `assert_ordered`: under the per-shard lock each shard scan is atomic, so
// results must be strictly increasing even across shards (partitioning
// bounds every shard's keys by its splitters).  ROWEX shard scans run
// wait-free AGAINST in-flight writers, where per-element ordering is the
// index's weaker "consistent recent state" contract — that arm only checks
// the scan terminates within its limit.
template <typename Index>
void ConcurrentMixedOps(bool assert_ordered) {
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kPerThread = 8000;
  constexpr uint64_t kTotal = kThreads * kPerThread;
  Index idx(SplittersAt({kTotal / 4, kTotal / 2, 3 * kTotal / 4}),
            U64KeyExtractor());

  // Phase 1: disjoint inserts.
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t v = t * kPerThread + i;
        ASSERT_TRUE(idx.Insert(v));
      }
    });
  }
  for (auto& th : threads) th.join();
  threads.clear();
  ASSERT_EQ(idx.size(), kTotal);

  // Phase 2: mixed readers, scanners, removers (odd keys), upserters.
  std::atomic<uint64_t> scanned{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx, &scanned, assert_ordered, t] {
      SplitMix64 rng(123 + t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t v = rng.NextBounded(kTotal);
        switch (t % 4) {
          case 0:
            idx.Lookup(U64Key(v).ref());
            break;
          case 1: {
            uint64_t prev = 0;
            bool first = true;
            U64Key k(v);
            size_t n = idx.ScanFrom(k.ref(), 128, [&](uint64_t got) {
              if (assert_ordered && !first) ASSERT_GT(got, prev);
              prev = got;
              first = false;
            });
            ASSERT_LE(n, 128u);
            scanned.fetch_add(n, std::memory_order_relaxed);
            break;
          }
          case 2:
            if (v % 2 == 1) idx.Remove(U64Key(v).ref());
            break;
          case 3:
            if (v % 2 == 0) idx.Upsert(v);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(scanned.load(), 0u);

  // Every even key survived: only odd keys were removed, upserts of even
  // keys are idempotent here.
  for (uint64_t v = 0; v < kTotal; v += 2) {
    auto got = idx.Lookup(U64Key(v).ref());
    ASSERT_TRUE(got.has_value()) << v;
    ASSERT_EQ(*got, v);
  }
}

TEST(RangeSharded, ConcurrentMixedOpsLocked) {
  ConcurrentMixedOps<RangeShardedU64>(/*assert_ordered=*/true);
}

TEST(RangeSharded, ConcurrentMixedOpsRowex) {
  ConcurrentMixedOps<RangeShardedRowexU64>(/*assert_ordered=*/false);
}

}  // namespace
}  // namespace hot

// ycsb/range_sharded.h: splitter routing on the raw key bytes, the
// cross-shard spillover scan (differentially against an ordered oracle,
// with starts exactly at / just below / just above every splitter key),
// empty-shard spillover, splitter selection, and an 8-thread mixed-op
// race (run under TSan in CI).

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
#include "hot/trie.h"

namespace hot {
namespace {

using ycsb::RangeShardedIndex;
using ycsb::SampledSplitters;
using ycsb::SplitterKeys;
using ycsb::SplittersFromSamples;

using RangeShardedU64 = RangeShardedIndex<HotTrie<U64KeyExtractor>,
                                          U64KeyExtractor>;

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

void DifferentialMixedOps(RangeShardedU64& idx, uint64_t seed) {
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
        if (got) {
          ASSERT_EQ(*got, v);
        }
        break;
      }
      case 4:
        ASSERT_EQ(idx.Remove(U64Key(v).ref()), oracle.erase(v) > 0);
        break;
      default: {
        size_t limit = 1 + rng.NextBounded(64);
        ASSERT_EQ(IndexScan(idx, v, limit), OracleScan(oracle, v, limit))
            << "scan from " << v;
        break;
      }
    }
    if (i % 5000 == 0) {
      ASSERT_EQ(idx.size(), oracle.size());
    }
  }
  ASSERT_EQ(idx.size(), oracle.size());
}

TEST(RangeSharded, DifferentialMixedOpsLocked) {
  RangeShardedU64 idx(SplittersAt({1000, 2000}), U64KeyExtractor());
  DifferentialMixedOps(idx, 77);
}

// Splitters longer than 8 bytes sharing one 8-byte prefix: every routing
// decision among them is made past the shared prefix, including for probes
// that are a prefix of every splitter or equal to one.
TEST(RangeSharded, ShardOfPastASharedPrefix) {
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
  const unsigned expected[] = {0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4};
  ASSERT_EQ(std::size(expected), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(idx.ShardOf(KeyRef(probes[i].data(), probes[i].size())),
              expected[i])
        << i;
  }
}

// ShardOf must equal a brute-force count of splitters <= key.  Checks
// `probes` plus every splitter, its neighbours one byte longer and
// shorter, and its 8-byte prefix.
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
  for (size_t i = 0; i < probes.size(); ++i) {
    const KeyRef key(probes[i].data(), probes[i].size());
    unsigned expect = 0;
    for (const auto& sp : sk) {
      expect += KeyRef(sp.data(), sp.size()).Compare(key) <= 0;
    }
    ASSERT_EQ(idx.ShardOf(key), expect) << "probe " << i;
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
}

// Regression for the 64-shard equi-depth bias on skewed string keys: the
// fixed 4096-key sample left only 64 sample points per boundary gap, and
// the quantile noise produced a 1.41x max/ideal imbalance on the url set.
// The sample now scales with the shard count (>= 256 points per gap); the
// imbalance must stay within the estimator's noise band.
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
  // Duplicate-heavy samples collapse to fewer splitters, never crash: 100
  // copies of one key dedup to a single boundary (two shards), not eight.
  std::vector<std::vector<uint8_t>> same(100, BigEndian(42));
  EXPECT_EQ(SplittersFromSamples(same, 8).size(), 1u);
}

// --- concurrency -----------------------------------------------------------

// 8 threads of mixed inserts / lookups / removes / cross-shard scans.
// Under TSan this is the data-race check for the per-shard lock path;
// unconditionally it checks that no operation is lost and every scan
// result is globally ordered: under the per-shard lock each shard scan is
// atomic, so results must be strictly increasing even across shards
// (partitioning bounds every shard's keys by its splitters).
TEST(RangeSharded, ConcurrentMixedOpsLocked) {
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kPerThread = 8000;
  constexpr uint64_t kTotal = kThreads * kPerThread;
  RangeShardedU64 idx(SplittersAt({kTotal / 4, kTotal / 2, 3 * kTotal / 4}),
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

  // Phase 2: mixed readers, scanners, removers and re-inserters (both on
  // odd keys, so they race on the same keys).
  std::atomic<uint64_t> scanned{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&idx, &scanned, t] {
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
              if (!first) {
                ASSERT_GT(got, prev);
              }
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
            if (v % 2 == 1) idx.Insert(v);
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(scanned.load(), 0u);

  // Every even key survived: only odd keys were removed and re-inserted.
  for (uint64_t v = 0; v < kTotal; v += 2) {
    auto got = idx.Lookup(U64Key(v).ref());
    ASSERT_TRUE(got.has_value()) << v;
    ASSERT_EQ(*got, v);
  }
}

}  // namespace
}  // namespace hot

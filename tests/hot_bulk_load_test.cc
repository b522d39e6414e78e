// Tests for height-optimized bulk loading: validity, equivalence with
// incremental insertion, near-optimal height on adversarial (monotone)
// inputs, and memory parity with the best-case incremental build.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/stats.h"
#include "hot/trie.h"
#include "testing/keyspace.h"
#include "ycsb/datasets.h"

namespace hot {
namespace {

std::vector<uint64_t> SortedRandom(size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::set<uint64_t> dedup;
  while (dedup.size() < n) dedup.insert(rng.Next() >> 1);
  return {dedup.begin(), dedup.end()};
}

unsigned CeilLog32(size_t n) {
  unsigned h = 1;
  size_t cap = 32;
  while (cap < n) {
    cap *= 32;
    ++h;
  }
  return h;
}

TEST(BulkLoad, EmptyAndTiny) {
  HotTrie<U64KeyExtractor> trie;
  trie.BulkLoad(nullptr, 0);
  EXPECT_TRUE(trie.empty());
  HotTrie<U64KeyExtractor> one;
  uint64_t v = 42;
  one.BulkLoad(&v, 1);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_TRUE(one.Lookup(U64Key(42).ref()).has_value());
  HotTrie<U64KeyExtractor> two;
  std::vector<uint64_t> vals = {7, 9};
  two.BulkLoad(vals);
  std::string err;
  EXPECT_TRUE(two.Validate(&err)) << err;
}

class BulkLoadSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BulkLoadSizeTest, ValidAndComplete) {
  size_t n = GetParam();
  std::vector<uint64_t> values = SortedRandom(n, n);
  HotTrie<U64KeyExtractor> trie;
  trie.BulkLoad(values);
  EXPECT_EQ(trie.size(), n);
  std::string err;
  ASSERT_TRUE(trie.Validate(&err)) << "n=" << n << ": " << err;
  for (uint64_t v : values) {
    ASSERT_TRUE(trie.Lookup(U64Key(v).ref()).has_value()) << v;
  }
  // A full in-order scan equals the input.
  std::vector<uint64_t> got;
  trie.ScanFrom(KeyRef(), n + 1, [&](uint64_t v) { got.push_back(v); });
  EXPECT_EQ(got, values);
  // Height optimality: ceil(log32 n), +1 when the key distribution's
  // Patricia shape cannot be packed perfectly near a capacity boundary.
  DepthStats stats = ComputeDepthStats(trie);
  EXPECT_LE(stats.max, CeilLog32(n) + 1) << "n=" << n;
  EXPECT_LE(stats.Mean(), static_cast<double>(CeilLog32(n)) + 0.75) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, BulkLoadSizeTest,
                         ::testing::Values(2, 31, 32, 33, 100, 1024, 1025,
                                           5000, 40000, 200000));

TEST(BulkLoad, FixesMonotoneInsertionPathology) {
  // Incremental insertion of sorted keys degrades depth (DESIGN.md
  // deviations); bulk loading of the same keys is height-optimal.
  std::vector<uint64_t> values = SortedRandom(100000, 3);

  HotTrie<U64KeyExtractor> incremental;
  for (uint64_t v : values) incremental.Insert(v);
  HotTrie<U64KeyExtractor> bulk;
  bulk.BulkLoad(values);

  DepthStats inc = ComputeDepthStats(incremental);
  DepthStats blk = ComputeDepthStats(bulk);
  EXPECT_LE(blk.max, CeilLog32(values.size()) + 1);
  EXPECT_LT(blk.Mean(), inc.Mean());
  EXPECT_LT(blk.max, inc.max);
}

TEST(BulkLoad, MemoryParityWithIncrementalRandomOrder) {
  std::vector<uint64_t> values = SortedRandom(100000, 5);
  MemoryCounter inc_counter, bulk_counter;
  HotTrie<U64KeyExtractor> incremental{U64KeyExtractor(), &inc_counter};
  // Insert in random order (the favourable case for incremental).
  std::vector<uint64_t> shuffled = values;
  SplitMix64 rng(9);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  for (uint64_t v : shuffled) incremental.Insert(v);
  HotTrie<U64KeyExtractor> bulk{U64KeyExtractor(), &bulk_counter};
  bulk.BulkLoad(values);
  // Bulk's advantage is height/adversarial orders; on memory it matches
  // random-order incremental insertion within a few percent.
  double ratio = static_cast<double>(bulk_counter.live_bytes()) /
                 static_cast<double>(inc_counter.live_bytes());
  EXPECT_LT(ratio, 1.05);
  NodeCensus census = ComputeNodeCensus(bulk);
  EXPECT_GT(census.AverageFanout(), 18.0);
}

TEST(BulkLoad, StringKeys) {
  ycsb::DataSet ds = ycsb::GenerateDataSet(ycsb::DataSetKind::kUrl, 30000, 11);
  // tids must be sorted by key: sort table indices lexicographically.
  std::vector<uint64_t> tids(ds.strings.size());
  for (size_t i = 0; i < tids.size(); ++i) tids[i] = i;
  std::sort(tids.begin(), tids.end(), [&](uint64_t a, uint64_t b) {
    return ds.strings[a] < ds.strings[b];
  });
  HotTrie<StringTableExtractor> trie{StringTableExtractor(&ds.strings)};
  trie.BulkLoad(tids);
  std::string err;
  ASSERT_TRUE(trie.Validate(&err)) << err;
  for (const auto& s : ds.strings) {
    ASSERT_TRUE(trie.Lookup(TerminatedView(s)).has_value()) << s;
  }
  // String-key Patricia tries contain chain-like regions (long shared
  // prefixes) for which NO fanout-32 partition reaches ceil(log32 n) —
  // compound nodes can cover at most 31 spine BiNodes each (the worst-case
  // height question the paper defers to future work).  Bulk loading must
  // still be at least as shallow as incremental insertion.
  HotTrie<StringTableExtractor> incremental{StringTableExtractor(&ds.strings)};
  for (size_t i = 0; i < ds.strings.size(); ++i) incremental.Insert(i);
  DepthStats bulk_stats = ComputeDepthStats(trie);
  DepthStats inc_stats = ComputeDepthStats(incremental);
  EXPECT_LE(bulk_stats.max, inc_stats.max);
  EXPECT_LE(bulk_stats.Mean(), inc_stats.Mean() + 0.01);
}

TEST(BulkLoad, MutableAfterwards) {
  std::vector<uint64_t> values = SortedRandom(20000, 13);
  HotTrie<U64KeyExtractor> trie;
  trie.BulkLoad(values);
  // Inserts, removals and scans behave normally on the bulk-built tree.
  SplitMix64 rng(17);
  std::set<uint64_t> oracle(values.begin(), values.end());
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.Next() >> 1;
    ASSERT_EQ(trie.Insert(v), oracle.insert(v).second);
    if (i % 3 == 0) {
      uint64_t r = values[rng.NextBounded(values.size())];
      ASSERT_EQ(trie.Remove(U64Key(r).ref()), oracle.erase(r) > 0);
    }
  }
  std::string err;
  ASSERT_TRUE(trie.Validate(&err)) << err;
  EXPECT_EQ(trie.size(), oracle.size());
}

// --- parallel bulk build ----------------------------------------------------

// The parallel builder severs the input at BiNode-consistent boundaries and
// builds the pieces on worker threads, so the logical structure it grafts
// together is IDENTICAL to the serial bottom-up build — not merely
// equivalent.  Checked here as (depth, value) leaf-walk parity plus a node
// census match, across every keyspace generator family (including the
// span-boundary-adversarial multi-mask ones) and across thread counts that
// do and do not divide the piece count evenly.
template <typename Ex>
void ExpectSameTrie(HotTrie<Ex>& serial, HotTrie<Ex>& parallel,
                    const char* what) {
  ASSERT_EQ(serial.size(), parallel.size()) << what;
  std::string err;
  ASSERT_TRUE(parallel.Validate(&err)) << what << ": " << err;
  std::vector<std::pair<unsigned, uint64_t>> sl, pl;
  sl.reserve(serial.size());
  pl.reserve(parallel.size());
  serial.ForEachLeaf([&](unsigned d, uint64_t v) { sl.emplace_back(d, v); });
  parallel.ForEachLeaf([&](unsigned d, uint64_t v) { pl.emplace_back(d, v); });
  ASSERT_EQ(sl, pl) << what << ": leaf walk (depth,value) parity";
  DepthStats ss = ComputeDepthStats(serial);
  DepthStats ps = ComputeDepthStats(parallel);
  EXPECT_EQ(ss.max, ps.max) << what;
  NodeCensus sc = ComputeNodeCensus(serial);
  NodeCensus pc = ComputeNodeCensus(parallel);
  EXPECT_EQ(sc.nodes, pc.nodes) << what;
  EXPECT_EQ(sc.total_entries, pc.total_entries) << what;
  for (size_t t = 0; t < kNumNodeTypes; ++t) {
    EXPECT_EQ(sc.count_by_type[t], pc.count_by_type[t])
        << what << ": layout " << t;
  }
}

class ParallelBulkLoadKindTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParallelBulkLoadKindTest, MatchesSerialAcrossThreadCounts) {
  auto kind = static_cast<testing::KeySpaceKind>(GetParam());
  testing::KeySpace ks = testing::BuildKeySpace(kind, 60000, 77);
  const std::vector<uint64_t>& values = ks.SortedValues();
  ASSERT_FALSE(values.empty());
  for (unsigned threads : {2u, 3u, 8u}) {
    std::string what = std::string(testing::KeySpaceKindName(kind)) + " t=" +
                       std::to_string(threads);
    if (ks.is_string) {
      StringTableExtractor ex(&ks.strings);
      HotTrie<StringTableExtractor> serial{ex}, parallel{ex};
      serial.BulkLoad(values.data(), values.size());
      parallel.BulkLoad(values.data(), values.size(), threads);
      ExpectSameTrie(serial, parallel, what.c_str());
      for (const auto& s : ks.strings) {
        ASSERT_TRUE(parallel.Lookup(TerminatedView(s)).has_value()) << what;
      }
    } else {
      HotTrie<U64KeyExtractor> serial, parallel;
      serial.BulkLoad(values.data(), values.size());
      parallel.BulkLoad(values.data(), values.size(), threads);
      ExpectSameTrie(serial, parallel, what.c_str());
      for (uint64_t v : values) {
        ASSERT_TRUE(parallel.Lookup(U64Key(v).ref()).has_value()) << what;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ParallelBulkLoadKindTest,
    ::testing::Range(0u, testing::kNumKeySpaceKinds),
    [](const ::testing::TestParamInfo<unsigned>& info) {
      std::string name = testing::KeySpaceKindName(
          static_cast<testing::KeySpaceKind>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(ParallelBulkLoad, SmallInputsFallBackToSerial) {
  // Below the parallel grain the threaded entry point must produce the
  // same trie via the serial path (including n = 0 and n = 1).
  for (size_t n : {0ul, 1ul, 31ul, 1024ul}) {
    std::vector<uint64_t> values = SortedRandom(n, 101 + n);
    HotTrie<U64KeyExtractor> serial, parallel;
    serial.BulkLoad(values.data(), values.size());
    parallel.BulkLoad(values.data(), values.size(), 8);
    ASSERT_EQ(serial.size(), parallel.size());
    if (n > 0) {
      ExpectSameTrie(serial, parallel, "small");
    }
  }
}

TEST(ParallelBulkLoad, ThreadCountsBeyondStripesAndPieces) {
  // More threads than NodePool stripes or than built pieces must clamp,
  // not crash or skew the result.
  std::vector<uint64_t> values = SortedRandom(50000, 23);
  HotTrie<U64KeyExtractor> serial, parallel;
  serial.BulkLoad(values);
  parallel.BulkLoad(values, /*threads=*/64);
  ExpectSameTrie(serial, parallel, "t=64");
}

TEST(BulkLoad, RejectsDuplicateKeys) {
  // Bulk loading requires strictly ascending keys; duplicates are caught
  // deterministically (equal adjacent keys can never be severed apart, so
  // they always reach a shared Mismatch computation) on the serial and the
  // parallel path alike.
  std::vector<uint64_t> values = SortedRandom(4000, 31);
  values.insert(values.begin() + 1711, values[1711]);
  HotTrie<U64KeyExtractor> serial;
  EXPECT_THROW(serial.BulkLoad(values), std::invalid_argument);
  HotTrie<U64KeyExtractor> parallel;
  EXPECT_THROW(parallel.BulkLoad(values, 4), std::invalid_argument);
  // A small duplicated input (single-node path) is rejected too.
  std::vector<uint64_t> tiny = {5, 9, 9, 12};
  HotTrie<U64KeyExtractor> small;
  EXPECT_THROW(small.BulkLoad(tiny), std::invalid_argument);
}

TEST(ParallelBulkLoad, PinnedStripesSpreadCarves) {
  // Worker w allocates through stripe w: a parallel build at 4 threads on
  // enough keys must carve from >= 2 distinct stripes, and the builder
  // itself must stay pinned (no mid-build stripe migration), which shows
  // up as every carve landing in the first `threads` stripes plus the
  // serial grafting stripe.
  std::vector<uint64_t> values = SortedRandom(200000, 41);
  HotTrie<U64KeyExtractor> parallel;
  parallel.BulkLoad(values, 4);
  NodePool::Stats stats = parallel.pool_stats();
  EXPECT_GE(stats.ActiveStripes(), 2u);
  uint64_t total = 0;
  for (uint64_t c : stats.stripe_carves) total += c;
  EXPECT_EQ(total, stats.carves);
}

}  // namespace
}  // namespace hot

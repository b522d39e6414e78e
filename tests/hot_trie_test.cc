// Differential, property and invariant tests for the single-threaded HOT
// trie: random operation sequences against std::map oracles, structural
// validation after mutations, scan/lower-bound semantics, the §3.3
// determinism conjecture, and memory accounting.

#include "hot/trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/stats.h"
#include "testing/adapters.h"

namespace hot {
namespace {

using U64Hot = HotTrie<U64KeyExtractor>;
using StringHot = HotTrie<StringTableExtractor>;

void ExpectValid(const U64Hot& trie) {
  std::string err;
  ASSERT_TRUE(trie.Validate(&err)) << err;
}

TEST(HotTrie, EmptyAndSingle) {
  U64Hot trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.Lookup(U64Key(7).ref()).has_value());
  EXPECT_FALSE(trie.Remove(U64Key(7).ref()));
  EXPECT_TRUE(trie.Insert(7));
  EXPECT_FALSE(trie.Insert(7));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.Lookup(U64Key(7).ref()).value(), 7u);
  EXPECT_TRUE(trie.Remove(U64Key(7).ref()));
  EXPECT_TRUE(trie.empty());
}

TEST(HotTrie, TwoKeysFormRootNode) {
  U64Hot trie;
  trie.Insert(1);
  trie.Insert(2);
  EXPECT_EQ(trie.Lookup(U64Key(1).ref()).value(), 1u);
  EXPECT_EQ(trie.Lookup(U64Key(2).ref()).value(), 2u);
  EXPECT_FALSE(trie.Lookup(U64Key(3).ref()).has_value());
  ExpectValid(trie);
}

TEST(HotTrie, SequentialInsertLookupDense) {
  U64Hot trie;
  constexpr uint64_t kN = 100000;
  for (uint64_t v = 0; v < kN; ++v) ASSERT_TRUE(trie.Insert(v));
  EXPECT_EQ(trie.size(), kN);
  for (uint64_t v = 0; v < kN; ++v) {
    auto got = trie.Lookup(U64Key(v).ref());
    ASSERT_TRUE(got.has_value()) << v;
    EXPECT_EQ(*got, v);
  }
  EXPECT_FALSE(trie.Lookup(U64Key(kN).ref()).has_value());
  ExpectValid(trie);
}

TEST(HotTrie, RandomInsertLookupSparse) {
  U64Hot trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(101);
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = rng.Next() >> 1;
    ASSERT_EQ(trie.Insert(v), oracle.insert(v).second);
  }
  for (uint64_t v : oracle) {
    ASSERT_TRUE(trie.Lookup(U64Key(v).ref()).has_value());
  }
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Next() >> 1;
    EXPECT_EQ(trie.Lookup(U64Key(v).ref()).has_value(), oracle.count(v) > 0);
  }
  ExpectValid(trie);
}

TEST(HotTrie, ValidationHoldsDuringGrowth) {
  // Validate after every insert for the first couple hundred keys — this
  // exercises every structural case (pushdown, pull-up, intermediate).
  U64Hot trie;
  SplitMix64 rng(7);
  for (int i = 0; i < 400; ++i) {
    trie.Insert(rng.Next() >> 1);
    ExpectValid(trie);
  }
  // Dense keys trigger different node shapes.
  U64Hot dense;
  for (uint64_t v = 0; v < 400; ++v) {
    dense.Insert(v);
    std::string err;
    ASSERT_TRUE(dense.Validate(&err)) << "after " << v << ": " << err;
  }
}

TEST(HotTrie, DifferentialInsertRemoveLookup) {
  U64Hot trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(211);
  for (int i = 0; i < 60000; ++i) {
    uint64_t v = rng.NextBounded(20000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        ASSERT_EQ(trie.Insert(v), oracle.insert(v).second) << "insert " << v;
        break;
      case 2:
        ASSERT_EQ(trie.Lookup(U64Key(v).ref()).has_value(),
                  oracle.count(v) > 0)
            << "lookup " << v;
        break;
      case 3:
        ASSERT_EQ(trie.Remove(U64Key(v).ref()), oracle.erase(v) > 0)
            << "remove " << v;
        break;
    }
    ASSERT_EQ(trie.size(), oracle.size());
    if (i % 5000 == 4999) ExpectValid(trie);
  }
  ExpectValid(trie);
}

TEST(HotTrie, RemoveEverythingLeavesCleanTrie) {
  MemoryCounter counter;
  U64Hot trie{U64KeyExtractor(), &counter};
  std::vector<uint64_t> keys;
  SplitMix64 rng(31);
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.Next() >> 1);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (uint64_t v : keys) trie.Insert(v);
  EXPECT_GT(counter.live_bytes(), 0u);
  // Remove in a shuffled order.
  std::vector<uint64_t> shuffled = keys;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  for (uint64_t v : shuffled) {
    ASSERT_TRUE(trie.Remove(U64Key(v).ref()));
  }
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(counter.live_bytes(), 0u);
}

TEST(HotTrie, UpsertReplacesValue) {
  std::vector<std::string> table = {"alpha", "beta", "alpha"};
  StringHot trie{StringTableExtractor(&table)};
  EXPECT_TRUE(trie.Insert(0));
  EXPECT_TRUE(trie.Insert(1));
  // tid 2 has the same key as tid 0.
  auto prev = trie.Upsert(2);
  ASSERT_TRUE(prev.has_value());
  EXPECT_EQ(*prev, 0u);
  EXPECT_EQ(trie.Lookup(TerminatedView(table[0])).value(), 2u);
  EXPECT_EQ(trie.size(), 2u);
  // Upsert of a fresh key inserts.
  table.push_back("gamma");
  EXPECT_FALSE(trie.Upsert(3).has_value());
  EXPECT_EQ(trie.size(), 3u);
}

TEST(HotTrie, FullScanIsSorted) {
  U64Hot trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(41);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.Next() >> 1;
    trie.Insert(v);
    oracle.insert(v);
  }
  std::vector<uint64_t> got;
  trie.ScanFrom(KeyRef(), trie.size() + 1,
                [&](uint64_t v) { got.push_back(v); });
  std::vector<uint64_t> want(oracle.begin(), oracle.end());
  EXPECT_EQ(got, want);
}

TEST(HotTrie, LowerBoundMatchesOracle) {
  U64Hot trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(43);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextBounded(1u << 20);
    trie.Insert(v);
    oracle.insert(v);
  }
  for (int probe = 0; probe < 3000; ++probe) {
    uint64_t start = rng.NextBounded(1u << 20) + (probe % 2);  // hit and miss
    auto oit = oracle.lower_bound(start);
    std::optional<uint64_t> want;
    if (oit != oracle.end()) want = *oit;
    EXPECT_EQ(testing::IndexLowerBound(trie, U64Key(start).ref()), want)
        << start;
  }
  // Bounds below the minimum and above the maximum.
  EXPECT_EQ(testing::IndexLowerBound(trie, U64Key(0).ref()), *oracle.begin());
  EXPECT_FALSE(
      testing::IndexLowerBound(trie, U64Key(~0ULL >> 1).ref()).has_value());
}

TEST(HotTrie, ScanFromMatchesOracle) {
  U64Hot trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(47);
  for (int i = 0; i < 30000; ++i) {
    uint64_t v = rng.Next() >> 1;
    trie.Insert(v);
    oracle.insert(v);
  }
  for (int probe = 0; probe < 500; ++probe) {
    uint64_t start = rng.Next() >> 1;
    std::vector<uint64_t> got;
    trie.ScanFrom(U64Key(start).ref(), 100,
                  [&](uint64_t v) { got.push_back(v); });
    std::vector<uint64_t> want;
    for (auto it = oracle.lower_bound(start);
         it != oracle.end() && want.size() < 100; ++it) {
      want.push_back(*it);
    }
    ASSERT_EQ(got, want) << "start=" << start;
  }
}

TEST(HotTrie, StringKeysSharedPrefixes) {
  std::vector<std::string> table;
  // Deep shared prefixes stress multi-mask layouts and long mismatch bits.
  for (int a = 0; a < 10; ++a) {
    for (int b = 0; b < 10; ++b) {
      for (int c = 0; c < 10; ++c) {
        table.push_back("http://www.domain" + std::to_string(a) +
                        ".example.org/path/" + std::to_string(b) +
                        "/resource-" + std::to_string(c));
      }
    }
  }
  StringHot trie{StringTableExtractor(&table)};
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(trie.Insert(i)) << table[i];
  }
  EXPECT_EQ(trie.size(), table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    auto got = trie.Lookup(TerminatedView(table[i]));
    ASSERT_TRUE(got.has_value()) << table[i];
    EXPECT_EQ(*got, i);
  }
  // A full scan yields lexicographic order.
  std::vector<std::string> got;
  trie.ScanFrom(KeyRef(), trie.size() + 1,
                [&](uint64_t v) { got.push_back(table[v]); });
  std::vector<std::string> want = table;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(HotTrie, GenomeAlphabetKeys) {
  // Extreme sparse-alphabet case the paper calls out (§3): 4-letter keys.
  std::vector<std::string> table;
  SplitMix64 rng(53);
  std::set<std::string> seen;
  const char acgt[] = {'A', 'C', 'G', 'T'};
  while (table.size() < 5000) {
    std::string s;
    size_t len = 8 + rng.NextBounded(24);
    for (size_t i = 0; i < len; ++i) s += acgt[rng.NextBounded(4)];
    if (seen.insert(s).second) table.push_back(s);
  }
  StringHot trie{StringTableExtractor(&table)};
  for (size_t i = 0; i < table.size(); ++i) ASSERT_TRUE(trie.Insert(i));
  for (size_t i = 0; i < table.size(); ++i) {
    ASSERT_TRUE(trie.Lookup(TerminatedView(table[i])).has_value());
  }
  // Genome keys use only 2 distinct bits per byte: nodes should achieve
  // high fanout anyway (that is the point of HOT).
  NodeCensus census = ComputeNodeCensus(trie);
  EXPECT_GT(census.AverageFanout(), 8.0);
}

TEST(HotTrie, PrefixKeysViaTerminator) {
  std::vector<std::string> table = {"a", "ab", "abc", "abcd", "b", ""};
  StringHot trie{StringTableExtractor(&table)};
  for (size_t i = 0; i < table.size(); ++i) ASSERT_TRUE(trie.Insert(i));
  for (size_t i = 0; i < table.size(); ++i) {
    auto got = trie.Lookup(TerminatedView(table[i]));
    ASSERT_TRUE(got.has_value()) << "'" << table[i] << "'";
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(trie.Lookup(TerminatedView(std::string("abcde"))).has_value());
}

// The §3.3 determinism conjecture: the paper conjectures (without proof)
// that a key set produces one canonical structure regardless of insertion
// order.  Our implementation — like any that decides overflow handling by
// when a node happens to fill — is history-dependent at the margin: the
// *partition into compound nodes* can differ across orders (all partitions
// being valid and height-optimized), while everything observable is
// order-independent: the leaf sequence, every invariant, and near-identical
// height profiles.  This test pins down exactly that guaranteed contract;
// DESIGN.md records the deviation from the conjecture.
TEST(HotTrie, OrderIndependentContract) {
  SplitMix64 rng(61);
  std::vector<uint64_t> keys;
  std::set<uint64_t> dedup;
  while (keys.size() < 3000) {
    uint64_t v = rng.Next() >> 1;
    if (dedup.insert(v).second) keys.push_back(v);
  }

  struct Profile {
    std::vector<uint64_t> leaves;  // in-order values
    unsigned max_depth = 0;
    double mean_depth = 0;
  };
  auto profile = [](const std::vector<uint64_t>& ks) {
    U64Hot trie;
    for (uint64_t k : ks) trie.Insert(k);
    std::string err;
    EXPECT_TRUE(trie.Validate(&err)) << err;
    Profile p;
    uint64_t sum = 0;
    trie.ForEachLeaf([&](unsigned depth, uint64_t v) {
      p.leaves.push_back(v);
      p.max_depth = std::max(p.max_depth, depth);
      sum += depth;
    });
    p.mean_depth = static_cast<double>(sum) / p.leaves.size();
    return p;
  };

  Profile base = profile(keys);
  for (int round = 0; round < 3; ++round) {
    std::vector<uint64_t> shuffled = keys;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
    }
    Profile p = profile(shuffled);
    EXPECT_EQ(p.leaves, base.leaves);
    // Random orders produce near-identical height profiles.
    EXPECT_LE(p.max_depth, base.max_depth + 1);
    EXPECT_GE(p.max_depth + 1, base.max_depth);
    EXPECT_NEAR(p.mean_depth, base.mean_depth, 0.5);
  }

  // Monotone insertion is the adversarial case for the published dynamic
  // algorithm: the forced root-BiNode split point makes splits maximally
  // lopsided and freezes small nodes behind the insertion cursor, so the
  // mean depth degrades by a constant factor (it stays O(log n)).  Pin that
  // behaviour: same leaves, bounded degradation.
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  for (int dir = 0; dir < 2; ++dir) {
    Profile p = profile(sorted);
    EXPECT_EQ(p.leaves, base.leaves);
    EXPECT_LE(p.mean_depth, 3.0 * base.mean_depth);
    std::reverse(sorted.begin(), sorted.end());
  }
}

TEST(HotTrie, KConstraintAndFanout) {
  U64Hot trie;
  SplitMix64 rng(67);
  for (int i = 0; i < 100000; ++i) trie.Insert(rng.Next() >> 1);
  unsigned max_count = 0;
  uint64_t nodes = 0, entries = 0;
  trie.ForEachNode([&](NodeRef node, unsigned) {
    max_count = std::max(max_count, node.count());
    ++nodes;
    entries += node.count();
  });
  EXPECT_LE(max_count, kMaxFanout);
  // Random 63-bit integers: HOT's mean fanout should be high (paper §6.5
  // reports mean leaf depth 6.0 for 50M random integers, i.e. ~avg fanout
  // around 2^(26/6) ≈ 20 for interior).
  EXPECT_GT(static_cast<double>(entries) / nodes, 10.0);
}

TEST(HotTrie, DepthStatsMatchPaperShape) {
  // Uniform random integers: depth ~ log_k(n); 100k keys fit in <= 5 levels
  // of fanout-32 nodes with room to spare.
  U64Hot trie;
  SplitMix64 rng(71);
  for (int i = 0; i < 100000; ++i) trie.Insert(rng.Next() >> 1);
  DepthStats stats = ComputeDepthStats(trie);
  EXPECT_EQ(stats.total, trie.size());
  EXPECT_LE(stats.max, 8u);
  EXPECT_GT(stats.Mean(), 1.0);
}

TEST(HotTrie, MemoryPerKeyIsCompact) {
  // §6.3: HOT stays between 11.4 and 14.4 bytes/key across data sets at
  // 50M keys.  At smaller scale the constant differs slightly; assert a
  // sane compactness envelope instead.
  MemoryCounter counter;
  U64Hot trie{U64KeyExtractor(), &counter};
  SplitMix64 rng(73);
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) trie.Insert(rng.Next() >> 1);
  double bytes_per_key =
      static_cast<double>(counter.live_bytes()) / static_cast<double>(kN);
  EXPECT_LT(bytes_per_key, 25.0);
  EXPECT_GT(bytes_per_key, 8.0);
}

TEST(HotTrie, ClearReleasesEverything) {
  MemoryCounter counter;
  U64Hot trie{U64KeyExtractor(), &counter};
  for (uint64_t v = 0; v < 10000; ++v) trie.Insert(v * 3);
  trie.Clear();
  EXPECT_EQ(counter.live_bytes(), 0u);
  EXPECT_TRUE(trie.empty());
  // Reusable after Clear.
  EXPECT_TRUE(trie.Insert(5));
  EXPECT_TRUE(trie.Lookup(U64Key(5).ref()).has_value());
}

TEST(HotTrie, MaxFanoutBoundaryExact) {
  // Exactly k and k+1 keys sharing one node's bit range: the k+1st insert
  // must split.
  U64Hot trie;
  for (uint64_t v = 0; v < kMaxFanout; ++v) ASSERT_TRUE(trie.Insert(v));
  ExpectValid(trie);
  unsigned nodes = 0;
  trie.ForEachNode([&](NodeRef, unsigned) { ++nodes; });
  EXPECT_EQ(nodes, 1u);
  ASSERT_TRUE(trie.Insert(kMaxFanout));
  ExpectValid(trie);
  nodes = 0;
  trie.ForEachNode([&](NodeRef, unsigned) { ++nodes; });
  EXPECT_GT(nodes, 1u);
  for (uint64_t v = 0; v <= kMaxFanout; ++v) {
    EXPECT_TRUE(trie.Lookup(U64Key(v).ref()).has_value()) << v;
  }
}

}  // namespace
}  // namespace hot

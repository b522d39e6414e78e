// Differential and property tests for the binary Patricia trie, which later
// serves as the structural oracle for HOT.

#include "patricia/patricia.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"

namespace hot {
namespace {

using U64Patricia = PatriciaTrie<U64KeyExtractor>;
using StringPatricia = PatriciaTrie<StringTableExtractor>;

TEST(Patricia, EmptyTrie) {
  U64Patricia trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.Lookup(U64Key(1).ref()).has_value());
  EXPECT_FALSE(trie.Remove(U64Key(1).ref()));
  EXPECT_EQ(trie.ScanFrom(U64Key(0).ref(), [](uint64_t) { return true; }), 0u);
}

TEST(Patricia, SingleAndDuplicate) {
  U64Patricia trie;
  EXPECT_TRUE(trie.Insert(42));
  EXPECT_FALSE(trie.Insert(42));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.Lookup(U64Key(42).ref()).value(), 42u);
  EXPECT_FALSE(trie.Lookup(U64Key(43).ref()).has_value());
}

TEST(Patricia, DifferentialAgainstStdSetU64) {
  U64Patricia trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(21);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.NextBounded(8000);  // collisions guaranteed
    int op = static_cast<int>(rng.NextBounded(3));
    if (op == 0) {
      EXPECT_EQ(trie.Insert(v), oracle.insert(v).second);
    } else if (op == 1) {
      EXPECT_EQ(trie.Lookup(U64Key(v).ref()).has_value(), oracle.count(v) > 0);
    } else {
      EXPECT_EQ(trie.Remove(U64Key(v).ref()), oracle.erase(v) > 0);
    }
    EXPECT_EQ(trie.size(), oracle.size());
  }
}

TEST(Patricia, ScanMatchesSortedOrder) {
  U64Patricia trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(31);
  for (int i = 0; i < 3000; ++i) {
    uint64_t v = rng.Next() >> 1;
    trie.Insert(v);
    oracle.insert(v);
  }
  for (int probe = 0; probe < 100; ++probe) {
    uint64_t start = rng.Next() >> 1;
    std::vector<uint64_t> got;
    trie.ScanFrom(U64Key(start).ref(), [&](uint64_t v) {
      got.push_back(v);
      return got.size() < 50;
    });
    std::vector<uint64_t> want;
    for (auto it = oracle.lower_bound(start); it != oracle.end() && want.size() < 50;
         ++it) {
      want.push_back(*it);
    }
    EXPECT_EQ(got, want) << "start=" << start;
  }
}

TEST(Patricia, StringKeysWithSharedPrefixes) {
  std::vector<std::string> table = {
      "http://www.example.com/a", "http://www.example.com/b",
      "http://www.example.com/aa", "http://www.example.org/",
      "ftp://mirror",              "http://www.example.com/a/b/c",
      "a",                         "ab",
      "abc",                       "b"};
  StringPatricia trie((StringTableExtractor(&table)));
  for (size_t i = 0; i < table.size(); ++i) EXPECT_TRUE(trie.Insert(i));
  EXPECT_EQ(trie.size(), table.size());
  for (size_t i = 0; i < table.size(); ++i) {
    auto got = trie.Lookup(TerminatedView(table[i]));
    ASSERT_TRUE(got.has_value()) << table[i];
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(trie.Lookup(TerminatedView(std::string("http://"))).has_value());
  // Scan from "a" returns everything >= "a" in lexicographic order.
  std::vector<std::string> got;
  std::string start("a");
  trie.ScanFrom(TerminatedView(start), [&](uint64_t v) {
    got.push_back(table[v]);
    return true;
  });
  std::vector<std::string> want = table;
  std::sort(want.begin(), want.end());
  want.erase(want.begin(), std::lower_bound(want.begin(), want.end(), "a"));
  EXPECT_EQ(got, want);
}

TEST(Patricia, LeafDepthVisitsEveryValueOnce) {
  U64Patricia trie;
  for (uint64_t v = 0; v < 1000; ++v) trie.Insert(v * 7919);
  size_t leaves = 0;
  size_t max_depth = 0;
  trie.ForEachLeaf([&](size_t depth, uint64_t) {
    ++leaves;
    max_depth = std::max(max_depth, depth);
  });
  EXPECT_EQ(leaves, 1000u);
  // A Patricia trie over n keys has depth >= log2(n).
  EXPECT_GE(max_depth, 10u);
}

TEST(Patricia, MemoryAccounting) {
  MemoryCounter counter;
  {
    U64Patricia trie{U64KeyExtractor(), &counter};
    for (uint64_t v = 0; v < 100; ++v) trie.Insert(v);
    // n-1 inner nodes, each counted.
    EXPECT_EQ(counter.live_bytes(), 99 * sizeof(uint32_t) * 0 + 99 * 24u);
    for (uint64_t v = 0; v < 100; ++v) trie.Remove(U64Key(v).ref());
    EXPECT_EQ(counter.live_bytes(), 0u);
  }
}

TEST(Patricia, InsertionOrderIndependence) {
  // Same key set, different insertion orders: identical depth profile
  // (tries are history-independent).
  SplitMix64 rng(77);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.Next() >> 1);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  auto depth_profile = [](const std::vector<uint64_t>& ks) {
    U64Patricia trie;
    for (uint64_t k : ks) trie.Insert(k);
    std::vector<std::pair<size_t, uint64_t>> profile;
    trie.ForEachLeaf([&](size_t d, uint64_t v) { profile.push_back({d, v}); });
    return profile;
  };

  auto sorted_profile = depth_profile(keys);
  std::vector<uint64_t> shuffled = keys;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  EXPECT_EQ(depth_profile(shuffled), sorted_profile);
}

}  // namespace
}  // namespace hot

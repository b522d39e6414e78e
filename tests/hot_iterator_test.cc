// Iterator semantics: Begin/Last, forward and reverse traversal,
// LowerBound/UpperBound, and descending range scans — all against
// std::set oracles.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/trie.h"

namespace hot {
namespace {

using U64Hot = HotTrie<U64KeyExtractor>;

class IteratorTest : public ::testing::Test {
 protected:
  void Fill(size_t n, uint64_t seed) {
    SplitMix64 rng(seed);
    while (oracle_.size() < n) {
      uint64_t v = rng.NextBounded(1u << 24);
      if (oracle_.insert(v).second) trie_.Insert(v);
    }
  }

  U64Hot trie_;
  std::set<uint64_t> oracle_;
};

TEST_F(IteratorTest, EmptyTrieIterators) {
  EXPECT_FALSE(trie_.Begin().valid());
  EXPECT_FALSE(trie_.Last().valid());
  EXPECT_FALSE(trie_.LowerBound(U64Key(0).ref()).valid());
  EXPECT_FALSE(trie_.UpperBound(U64Key(0).ref()).valid());
}

TEST_F(IteratorTest, SingleElement) {
  trie_.Insert(42);
  auto it = trie_.Begin();
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.value(), 42u);
  it.Next();
  EXPECT_FALSE(it.valid());
  it = trie_.Last();
  ASSERT_TRUE(it.valid());
  EXPECT_EQ(it.value(), 42u);
  it.Prev();
  EXPECT_FALSE(it.valid());
}

TEST_F(IteratorTest, ForwardEqualsSortedOracle) {
  Fill(20000, 1);
  auto oit = oracle_.begin();
  for (auto it = trie_.Begin(); it.valid(); it.Next(), ++oit) {
    ASSERT_NE(oit, oracle_.end());
    EXPECT_EQ(it.value(), *oit);
  }
  EXPECT_EQ(oit, oracle_.end());
}

TEST_F(IteratorTest, ReverseEqualsReverseSortedOracle) {
  Fill(20000, 2);
  auto oit = oracle_.rbegin();
  for (auto it = trie_.Last(); it.valid(); it.Prev(), ++oit) {
    ASSERT_NE(oit, oracle_.rend());
    EXPECT_EQ(it.value(), *oit);
  }
  EXPECT_EQ(oit, oracle_.rend());
}

TEST_F(IteratorTest, PrevUndoesNext) {
  Fill(5000, 3);
  auto it = trie_.Begin();
  SplitMix64 rng(5);
  // Random walk: Next/Prev sequences stay consistent with a mirror index.
  std::vector<uint64_t> sorted(oracle_.begin(), oracle_.end());
  size_t pos = 0;
  for (int step = 0; step < 10000 && it.valid(); ++step) {
    ASSERT_EQ(it.value(), sorted[pos]);
    if (rng.NextBounded(2) == 0 && pos + 1 < sorted.size()) {
      it.Next();
      ++pos;
    } else if (pos > 0) {
      it.Prev();
      --pos;
    } else {
      it.Next();
      ++pos;
    }
  }
}

TEST_F(IteratorTest, UpperBoundMatchesOracle) {
  Fill(10000, 4);
  SplitMix64 rng(7);
  for (int probe = 0; probe < 2000; ++probe) {
    uint64_t start = rng.NextBounded(1u << 24);
    auto it = trie_.UpperBound(U64Key(start).ref());
    auto oit = oracle_.upper_bound(start);
    if (oit == oracle_.end()) {
      EXPECT_FALSE(it.valid()) << start;
    } else {
      ASSERT_TRUE(it.valid()) << start;
      EXPECT_EQ(it.value(), *oit) << start;
    }
  }
  // Probing exact members: upper bound is the successor.
  for (uint64_t v : {*oracle_.begin(), *oracle_.rbegin()}) {
    auto it = trie_.UpperBound(U64Key(v).ref());
    auto oit = oracle_.upper_bound(v);
    EXPECT_EQ(it.valid(), oit != oracle_.end());
    if (it.valid()) {
      EXPECT_EQ(it.value(), *oit);
    }
  }
}

TEST_F(IteratorTest, ReverseScanMatchesOracle) {
  Fill(10000, 8);
  SplitMix64 rng(9);
  for (int probe = 0; probe < 500; ++probe) {
    uint64_t start = rng.NextBounded(1u << 24);
    std::vector<uint64_t> got;
    trie_.ScanReverseFrom(U64Key(start).ref(), 50,
                          [&](uint64_t v) { got.push_back(v); });
    std::vector<uint64_t> want;
    for (auto oit = oracle_.upper_bound(start);
         oit != oracle_.begin() && want.size() < 50;) {
      --oit;
      want.push_back(*oit);
    }
    ASSERT_EQ(got, want) << "start=" << start;
  }
  // From beyond the maximum: descending from the maximum.
  std::vector<uint64_t> got;
  trie_.ScanReverseFrom(U64Key(~0ULL >> 1).ref(), 3,
                        [&](uint64_t v) { got.push_back(v); });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], *oracle_.rbegin());
}

TEST_F(IteratorTest, EmptyTrieScansVisitNothing) {
  size_t visited = 0;
  EXPECT_EQ(trie_.ScanFrom(U64Key(0).ref(), 10, [&](uint64_t) { ++visited; }),
            0u);
  EXPECT_EQ(trie_.ScanReverseFrom(U64Key(~0ULL >> 1).ref(), 10,
                                  [&](uint64_t) { ++visited; }),
            0u);
  EXPECT_EQ(visited, 0u);
}

TEST_F(IteratorTest, LowerBoundPastLastAndBeforeFirst) {
  Fill(10000, 11);
  uint64_t lo = *oracle_.begin(), hi = *oracle_.rbegin();

  // Key strictly greater than every entry: no lower bound.
  EXPECT_FALSE(trie_.LowerBound(U64Key(hi + 1).ref()).valid());
  // Exactly the maximum: the maximum itself.
  auto at_max = trie_.LowerBound(U64Key(hi).ref());
  ASSERT_TRUE(at_max.valid());
  EXPECT_EQ(at_max.value(), hi);

  // Key strictly below every entry: the minimum (and only then, if lo > 0).
  if (lo > 0) {
    auto before = trie_.LowerBound(U64Key(lo - 1).ref());
    ASSERT_TRUE(before.valid());
    EXPECT_EQ(before.value(), lo);
  }
  auto at_zero = trie_.LowerBound(U64Key(0).ref());
  ASSERT_TRUE(at_zero.valid());
  EXPECT_EQ(at_zero.value(), lo);
}

TEST_F(IteratorTest, ScanEdgesPastLastAndBeforeFirst) {
  Fill(10000, 12);
  uint64_t lo = *oracle_.begin(), hi = *oracle_.rbegin();

  // Forward scan starting past the last entry: nothing.
  std::vector<uint64_t> got;
  EXPECT_EQ(trie_.ScanFrom(U64Key(hi + 1).ref(), 10,
                           [&](uint64_t v) { got.push_back(v); }),
            0u);
  EXPECT_TRUE(got.empty());

  // Forward scan from before the first entry: starts at the minimum.
  trie_.ScanFrom(U64Key(0).ref(), 3, [&](uint64_t v) { got.push_back(v); });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], lo);

  // Reverse scan from below the minimum: nothing precedes it.
  got.clear();
  if (lo > 0) {
    EXPECT_EQ(trie_.ScanReverseFrom(U64Key(lo - 1).ref(), 10,
                                    [&](uint64_t v) { got.push_back(v); }),
              0u);
    EXPECT_TRUE(got.empty());
  }

  // Reverse scan from past the maximum: starts at the maximum.
  trie_.ScanReverseFrom(U64Key(hi + 1).ref(), 3,
                        [&](uint64_t v) { got.push_back(v); });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], hi);
}

TEST_F(IteratorTest, StringReverseScans) {
  std::vector<std::string> table = {"apple", "banana", "cherry", "date",
                                    "elderberry", "fig", "grape"};
  HotTrie<StringTableExtractor> dict{StringTableExtractor(&table)};
  for (size_t i = 0; i < table.size(); ++i) dict.Insert(i);
  std::vector<std::string> got;
  dict.ScanReverseFrom(TerminatedView(std::string("dandelion")), 10,
                       [&](uint64_t tid) { got.push_back(table[tid]); });
  EXPECT_EQ(got, (std::vector<std::string>{"cherry", "banana", "apple"}));
}

}  // namespace
}  // namespace hot

// Forward range scans (HotTrie::ScanFrom, the HotCursor's lower-bound seek
// and successor walk): the empty trie, a single entry, the full order, and
// lower bounds before the first key, at the maximum and past it — all
// against std::set oracles.

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/trie.h"

namespace hot {
namespace {

using U64Hot = HotTrie<U64KeyExtractor>;
using Values = std::vector<uint64_t>;

class ScanTest : public ::testing::Test {
 protected:
  void Fill(size_t n, uint64_t seed) {
    SplitMix64 rng(seed);
    while (oracle_.size() < n) {
      uint64_t v = rng.NextBounded(1u << 24);
      if (oracle_.insert(v).second) trie_.Insert(v);
    }
  }

  // The values ScanFrom(start, limit) visits; its return value must count
  // them.
  Values Scan(KeyRef start, size_t limit) const {
    Values got;
    size_t n =
        trie_.ScanFrom(start, limit, [&](uint64_t v) { got.push_back(v); });
    EXPECT_EQ(n, got.size());
    return got;
  }
  Values Scan(uint64_t start, size_t limit) const {
    return Scan(U64Key(start).ref(), limit);
  }

  U64Hot trie_;
  std::set<uint64_t> oracle_;
};

TEST_F(ScanTest, EmptyTrieVisitsNothing) {
  EXPECT_TRUE(Scan(KeyRef(), 10).empty());
  EXPECT_TRUE(Scan(0, 10).empty());
  EXPECT_TRUE(Scan(~0ULL >> 1, 10).empty());
}

TEST_F(ScanTest, SingleElement) {
  trie_.Insert(42);
  EXPECT_EQ(Scan(0, 10), Values{42});
  EXPECT_EQ(Scan(42, 10), Values{42});
  EXPECT_TRUE(Scan(43, 10).empty());
}

TEST_F(ScanTest, ForwardEqualsSortedOracle) {
  Fill(20000, 1);
  EXPECT_EQ(Scan(KeyRef(), trie_.size() + 1),
            Values(oracle_.begin(), oracle_.end()));
}

TEST_F(ScanTest, LowerBoundPastLastAndBeforeFirst) {
  Fill(10000, 11);
  uint64_t lo = *oracle_.begin(), hi = *oracle_.rbegin();

  // Key strictly greater than every entry: nothing.
  EXPECT_TRUE(Scan(hi + 1, 10).empty());
  // Exactly the maximum: the maximum alone.
  EXPECT_EQ(Scan(hi, 10), Values{hi});

  // Key strictly below every entry: starts at the minimum.
  if (lo > 0) {
    EXPECT_EQ(Scan(lo - 1, 1), Values{lo});
  }
  EXPECT_EQ(Scan(0, 3),
            Values(oracle_.begin(), std::next(oracle_.begin(), 3)));
}

}  // namespace
}  // namespace hot

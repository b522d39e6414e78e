// Cross-index differential tests: every index structure in the repository
// (HOT, ART, B+-tree, Masstree, Patricia) implements the same contract —
// Insert(value) / Lookup(key) / Remove(key) / ScanFrom(start, limit, fn) —
// so one typed suite validates them all against std::set oracles, over both
// integer and string keys.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "art/art.h"
#include "btree/btree.h"
#include "common/extractors.h"
#include "common/rng.h"
#include "hot/trie.h"
#include "masstree/masstree.h"
#include "patricia/patricia.h"

namespace hot {
namespace {

// ---------------------------------------------------------------------------
// Uniform adapters
// ---------------------------------------------------------------------------

template <template <typename> class Index>
struct U64Adapter {
  Index<U64KeyExtractor> index;

  bool Insert(uint64_t v) { return index.Insert(v); }
  bool Contains(uint64_t v) {
    return index.Lookup(U64Key(v).ref()).has_value();
  }
  bool Remove(uint64_t v) { return index.Remove(U64Key(v).ref()); }
  std::vector<uint64_t> Scan(uint64_t start, size_t limit) {
    std::vector<uint64_t> out;
    index.ScanFrom(U64Key(start).ref(), limit,
                   [&](uint64_t v) { out.push_back(v); });
    return out;
  }
  size_t Size() { return index.size(); }
};

// Patricia's ScanFrom signature differs (no limit parameter).
struct PatriciaU64Adapter {
  PatriciaTrie<U64KeyExtractor> index;

  bool Insert(uint64_t v) { return index.Insert(v); }
  bool Contains(uint64_t v) {
    return index.Lookup(U64Key(v).ref()).has_value();
  }
  bool Remove(uint64_t v) { return index.Remove(U64Key(v).ref()); }
  std::vector<uint64_t> Scan(uint64_t start, size_t limit) {
    std::vector<uint64_t> out;
    index.ScanFrom(U64Key(start).ref(), [&](uint64_t v) {
      out.push_back(v);
      return out.size() < limit;
    });
    return out;
  }
  size_t Size() { return index.size(); }
};

using HotU64 = U64Adapter<HotTrie>;
using ArtU64 = U64Adapter<ArtTree>;
using BTreeU64 = U64Adapter<BTree>;
using MasstreeU64 = U64Adapter<Masstree>;

template <typename T>
class U64IndexTest : public ::testing::Test {
 protected:
  T adapter_;
};

using U64IndexTypes = ::testing::Types<HotU64, ArtU64, BTreeU64, MasstreeU64,
                                       PatriciaU64Adapter>;
TYPED_TEST_SUITE(U64IndexTest, U64IndexTypes);

TYPED_TEST(U64IndexTest, EmptyBehaviour) {
  auto& idx = this->adapter_;
  EXPECT_EQ(idx.Size(), 0u);
  EXPECT_FALSE(idx.Contains(1));
  EXPECT_FALSE(idx.Remove(1));
  EXPECT_TRUE(idx.Scan(0, 10).empty());
}

TYPED_TEST(U64IndexTest, InsertLookupRemoveSmall) {
  auto& idx = this->adapter_;
  for (uint64_t v : {5u, 1u, 9u, 3u, 7u}) EXPECT_TRUE(idx.Insert(v));
  EXPECT_FALSE(idx.Insert(5));
  EXPECT_EQ(idx.Size(), 5u);
  for (uint64_t v : {1u, 3u, 5u, 7u, 9u}) EXPECT_TRUE(idx.Contains(v));
  for (uint64_t v : {0u, 2u, 4u, 6u, 8u, 10u}) EXPECT_FALSE(idx.Contains(v));
  EXPECT_TRUE(idx.Remove(5));
  EXPECT_FALSE(idx.Remove(5));
  EXPECT_FALSE(idx.Contains(5));
  EXPECT_EQ(idx.Size(), 4u);
}

TYPED_TEST(U64IndexTest, DifferentialRandomOps) {
  auto& idx = this->adapter_;
  std::set<uint64_t> oracle;
  SplitMix64 rng(1234);
  for (int i = 0; i < 40000; ++i) {
    uint64_t v = rng.NextBounded(10000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        ASSERT_EQ(idx.Insert(v), oracle.insert(v).second) << "insert " << v;
        break;
      case 2:
        ASSERT_EQ(idx.Contains(v), oracle.count(v) > 0) << "lookup " << v;
        break;
      case 3:
        ASSERT_EQ(idx.Remove(v), oracle.erase(v) > 0) << "remove " << v;
        break;
    }
    ASSERT_EQ(idx.Size(), oracle.size());
  }
}

TYPED_TEST(U64IndexTest, DifferentialSparseKeys) {
  auto& idx = this->adapter_;
  std::set<uint64_t> oracle;
  SplitMix64 rng(777);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.Next() >> 1;
    ASSERT_EQ(idx.Insert(v), oracle.insert(v).second);
  }
  for (uint64_t v : oracle) ASSERT_TRUE(idx.Contains(v)) << v;
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.Next() >> 1;
    ASSERT_EQ(idx.Contains(v), oracle.count(v) > 0);
  }
}

TYPED_TEST(U64IndexTest, ScansMatchOracle) {
  auto& idx = this->adapter_;
  std::set<uint64_t> oracle;
  SplitMix64 rng(4321);
  for (int i = 0; i < 15000; ++i) {
    uint64_t v = rng.NextBounded(1u << 22);
    idx.Insert(v);
    oracle.insert(v);
  }
  for (int probe = 0; probe < 300; ++probe) {
    uint64_t start = rng.NextBounded(1u << 22);
    std::vector<uint64_t> got = idx.Scan(start, 100);
    std::vector<uint64_t> want;
    for (auto it = oracle.lower_bound(start);
         it != oracle.end() && want.size() < 100; ++it) {
      want.push_back(*it);
    }
    ASSERT_EQ(got, want) << "start=" << start;
  }
}

TYPED_TEST(U64IndexTest, SequentialDense) {
  auto& idx = this->adapter_;
  for (uint64_t v = 0; v < 30000; ++v) ASSERT_TRUE(idx.Insert(v));
  for (uint64_t v = 0; v < 30000; ++v) ASSERT_TRUE(idx.Contains(v));
  EXPECT_FALSE(idx.Contains(30000));
  auto got = idx.Scan(29990, 100);
  EXPECT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 29990u);
  EXPECT_EQ(got.back(), 29999u);
  // Remove every other and verify.
  for (uint64_t v = 0; v < 30000; v += 2) ASSERT_TRUE(idx.Remove(v));
  for (uint64_t v = 0; v < 30000; ++v) {
    ASSERT_EQ(idx.Contains(v), v % 2 == 1) << v;
  }
}

// ---------------------------------------------------------------------------
// String-key suite
// ---------------------------------------------------------------------------

template <template <typename> class Index>
struct StringAdapter {
  std::vector<std::string> table;
  Index<StringTableExtractor> index{StringTableExtractor(&table)};

  // Inserts s (appends to the table).  Returns the index result.
  bool Insert(const std::string& s) {
    table.push_back(s);
    bool ok = index.Insert(table.size() - 1);
    if (!ok) table.pop_back();
    return ok;
  }
  bool Contains(const std::string& s) {
    return index.Lookup(TerminatedView(s)).has_value();
  }
  bool Remove(const std::string& s) { return index.Remove(TerminatedView(s)); }
  std::vector<std::string> Scan(const std::string& start, size_t limit) {
    std::vector<std::string> out;
    index.ScanFrom(TerminatedView(start), limit,
                   [&](uint64_t v) { out.push_back(table[v]); });
    return out;
  }
  size_t Size() { return index.size(); }
};

using HotStr = StringAdapter<HotTrie>;
using ArtStr = StringAdapter<ArtTree>;
using BTreeStr = StringAdapter<BTree>;
using MasstreeStr = StringAdapter<Masstree>;

template <typename T>
class StringIndexTest : public ::testing::Test {
 protected:
  T adapter_;

  static std::vector<std::string> MakeUrls(size_t n, uint64_t seed) {
    SplitMix64 rng(seed);
    std::set<std::string> out;
    const char* hosts[] = {"example.com", "db.research.org", "uibk.ac.at",
                           "tum.de", "sigmod.org"};
    const char* paths[] = {"papers", "people", "research", "teaching", "blog"};
    while (out.size() < n) {
      std::string url = "http://www.";
      url += hosts[rng.NextBounded(5)];
      url += "/";
      url += paths[rng.NextBounded(5)];
      url += "/item-" + std::to_string(rng.NextBounded(100000));
      url += "/page" + std::to_string(rng.NextBounded(50)) + ".html";
      out.insert(url);
    }
    return {out.begin(), out.end()};
  }
};

using StringIndexTypes = ::testing::Types<HotStr, ArtStr, BTreeStr, MasstreeStr>;
TYPED_TEST_SUITE(StringIndexTest, StringIndexTypes);

TYPED_TEST(StringIndexTest, UrlCorpusInsertLookup) {
  auto& idx = this->adapter_;
  auto urls = this->MakeUrls(4000, 99);
  std::vector<std::string> shuffled = urls;
  SplitMix64 rng(5);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
  }
  for (const auto& u : shuffled) ASSERT_TRUE(idx.Insert(u)) << u;
  EXPECT_EQ(idx.Size(), urls.size());
  for (const auto& u : urls) ASSERT_TRUE(idx.Contains(u)) << u;
  EXPECT_FALSE(idx.Contains("http://www.example.com/"));
  EXPECT_FALSE(idx.Insert(urls[0]));
}

TYPED_TEST(StringIndexTest, ScansAreLexicographic) {
  auto& idx = this->adapter_;
  auto urls = this->MakeUrls(2000, 7);
  for (const auto& u : urls) ASSERT_TRUE(idx.Insert(u));
  // urls is already sorted (std::set).
  for (size_t probe = 0; probe < 50; ++probe) {
    const std::string& start = urls[(probe * 37) % urls.size()];
    auto got = idx.Scan(start, 20);
    std::vector<std::string> want;
    for (size_t i = (probe * 37) % urls.size();
         i < urls.size() && want.size() < 20; ++i) {
      want.push_back(urls[i]);
    }
    ASSERT_EQ(got, want) << "start=" << start;
  }
  // A scan from before everything returns the global minimum first.
  auto from_start = idx.Scan("", 5);
  ASSERT_FALSE(from_start.empty());
  EXPECT_EQ(from_start[0], urls[0]);
}

TYPED_TEST(StringIndexTest, PrefixHeavyKeys) {
  auto& idx = this->adapter_;
  // Keys that are prefixes of one another plus deep shared prefixes.
  std::vector<std::string> keys = {"a", "aa", "aaa", "aaaa", "aaaaa",
                                   "aaaab", "aaab", "ab", "b"};
  std::string deep(100, 'x');
  keys.push_back(deep);
  keys.push_back(deep + "1");
  keys.push_back(deep + "2");
  for (const auto& k : keys) ASSERT_TRUE(idx.Insert(k)) << k;
  for (const auto& k : keys) ASSERT_TRUE(idx.Contains(k)) << k;
  EXPECT_FALSE(idx.Contains("aaaaaa"));
  EXPECT_FALSE(idx.Contains(deep + "3"));
  for (const auto& k : keys) ASSERT_TRUE(idx.Remove(k)) << k;
  EXPECT_EQ(idx.Size(), 0u);
}

TYPED_TEST(StringIndexTest, DifferentialWithRemovals) {
  auto& idx = this->adapter_;
  std::set<std::string> oracle;
  SplitMix64 rng(31337);
  const char alphabet[] = "abcdxyz019";
  auto random_key = [&] {
    std::string s;
    size_t len = 1 + rng.NextBounded(12);
    for (size_t i = 0; i < len; ++i) s += alphabet[rng.NextBounded(10)];
    return s;
  };
  for (int i = 0; i < 20000; ++i) {
    std::string k = random_key();
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        bool inserted = oracle.insert(k).second;
        ASSERT_EQ(idx.Insert(k), inserted) << k;
        break;
      }
      case 2:
        ASSERT_EQ(idx.Contains(k), oracle.count(k) > 0) << k;
        break;
      case 3:
        ASSERT_EQ(idx.Remove(k), oracle.erase(k) > 0) << k;
        break;
    }
    ASSERT_EQ(idx.Size(), oracle.size());
  }
  // Final state check.
  for (const auto& k : oracle) ASSERT_TRUE(idx.Contains(k)) << k;
}

}  // namespace
}  // namespace hot

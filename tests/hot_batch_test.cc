// LookupBatch equivalence: the interleaved AMAC descent
// (hot/batch_lookup.h) must be bit-identical to the scalar operations for
// every batch width, batch size, trie shape (empty / tid-only root / deep),
// and key type — including misses.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/rowex.h"
#include "hot/trie.h"

namespace hot {
namespace {

using U64Hot = HotTrie<U64KeyExtractor>;

constexpr unsigned kWidths[] = {1, 3, 8, 16, 32};

// Probe keys: half present, half random (mostly misses); returns the raw
// bytes + views.
struct U64Probes {
  std::vector<uint8_t> bytes;
  std::vector<KeyRef> keys;

  U64Probes(const std::vector<uint64_t>& present, size_t n, uint64_t seed) {
    SplitMix64 rng(seed);
    bytes.resize(n * 8);
    keys.resize(n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = (i % 2 == 0 && !present.empty())
                       ? present[rng.NextBounded(present.size())]
                       : rng.Next() >> 1;
      EncodeU64(v, &bytes[i * 8]);
      keys[i] = KeyRef(&bytes[i * 8], 8);
    }
  }
};

template <typename Trie>
void ExpectBatchMatchesScalar(const Trie& trie,
                              const std::vector<KeyRef>& keys) {
  std::vector<std::optional<uint64_t>> expected(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) expected[i] = trie.Lookup(keys[i]);
  for (unsigned width : kWidths) {
    std::vector<std::optional<uint64_t>> got(keys.size());
    trie.LookupBatch(keys, got, width);
    ASSERT_EQ(got, expected) << "width=" << width << " n=" << keys.size();
  }
}

TEST(HotBatchTest, MillionRandomKeysWithMisses) {
  U64Hot trie;
  std::vector<uint64_t> present;
  SplitMix64 rng(1);
  while (present.size() < 500'000) {
    uint64_t v = rng.Next() >> 1;
    if (trie.Insert(v)) present.push_back(v);
  }
  U64Probes probes(present, 1'000'000, 2);
  // Scalar oracle once; all widths against it (the helper recomputes the
  // oracle per call, too expensive at this n — inline the loop instead).
  std::vector<std::optional<uint64_t>> expected(probes.keys.size());
  size_t hits = 0;
  for (size_t i = 0; i < probes.keys.size(); ++i) {
    expected[i] = trie.Lookup(probes.keys[i]);
    hits += expected[i].has_value();
  }
  ASSERT_GT(hits, probes.keys.size() / 3);           // real hits
  ASSERT_LT(hits, probes.keys.size());               // real misses
  for (unsigned width : kWidths) {
    std::vector<std::optional<uint64_t>> got(probes.keys.size());
    trie.LookupBatch(probes.keys, got, width);
    ASSERT_EQ(got, expected) << "width=" << width;
  }
}

TEST(HotBatchTest, SizesAroundWidthBoundaries) {
  U64Hot trie;
  std::vector<uint64_t> present;
  SplitMix64 rng(3);
  while (present.size() < 10'000) {
    uint64_t v = rng.Next() >> 1;
    if (trie.Insert(v)) present.push_back(v);
  }
  // n < width, n == width, n not a multiple of width, n just over an
  // inline-buffer-ish boundary.
  for (size_t n : {1u, 2u, 5u, 8u, 13u, 16u, 31u, 32u, 33u, 100u, 257u}) {
    U64Probes probes(present, n, 1000 + n);
    ExpectBatchMatchesScalar(trie, probes.keys);
  }
}

TEST(HotBatchTest, EmptyBatchAndEmptyTrie) {
  U64Hot trie;
  // Empty batch on empty trie.
  trie.LookupBatch({}, {});
  // Non-empty batch on empty trie: all misses.
  U64Probes probes({}, 64, 4);
  ExpectBatchMatchesScalar(trie, probes.keys);
  // Empty batch on non-empty trie.
  trie.Insert(7);
  trie.LookupBatch({}, {});
  ExpectBatchMatchesScalar(trie, probes.keys);
}

TEST(HotBatchTest, TidOnlyRoot) {
  U64Hot trie;
  trie.Insert(12345);
  U64Probes probes({12345}, 33, 5);
  ExpectBatchMatchesScalar(trie, probes.keys);
}

TEST(HotBatchTest, DefaultAndZeroWidth) {
  U64Hot trie;
  std::vector<uint64_t> present;
  SplitMix64 rng(6);
  while (present.size() < 5'000) {
    uint64_t v = rng.Next() >> 1;
    if (trie.Insert(v)) present.push_back(v);
  }
  U64Probes probes(present, 999, 7);
  std::vector<std::optional<uint64_t>> expected(probes.keys.size());
  for (size_t i = 0; i < probes.keys.size(); ++i) {
    expected[i] = trie.Lookup(probes.keys[i]);
  }
  std::vector<std::optional<uint64_t>> got(probes.keys.size());
  trie.LookupBatch(probes.keys, got);  // default width
  EXPECT_EQ(got, expected);
  trie.LookupBatch(probes.keys, got, 0);  // 0 falls back to the default
  EXPECT_EQ(got, expected);
}

TEST(HotBatchTest, StringKeys) {
  std::vector<std::string> table;
  SplitMix64 rng(8);
  std::set<std::string> seen;
  while (table.size() < 20'000) {
    std::string s = "user" + std::to_string(rng.NextBounded(1u << 20)) +
                    "@example" + std::to_string(rng.NextBounded(97)) + ".com";
    if (seen.insert(s).second) table.push_back(s);
  }
  HotTrie<StringTableExtractor> trie{StringTableExtractor(&table)};
  // Index only the first half; probes over the whole table include misses.
  for (size_t i = 0; i < table.size() / 2; ++i) trie.Insert(i);
  std::vector<KeyRef> keys;
  for (size_t p = 0; p < 5'000; ++p) {
    keys.push_back(TerminatedView(table[rng.NextBounded(table.size())]));
  }
  ExpectBatchMatchesScalar(trie, keys);
}

TEST(HotBatchTest, RowexBatchMatchesScalar) {
  RowexHotTrie<U64KeyExtractor> trie;
  std::vector<uint64_t> present;
  SplitMix64 rng(10);
  while (present.size() < 100'000) {
    uint64_t v = rng.Next() >> 1;
    if (trie.Insert(v)) present.push_back(v);
  }
  U64Probes probes(present, 100'000, 11);
  ExpectBatchMatchesScalar(trie, probes.keys);
}

TEST(HotBatchTest, RowexEmptyAndTidRoot) {
  RowexHotTrie<U64KeyExtractor> trie;
  U64Probes probes({}, 40, 12);
  ExpectBatchMatchesScalar(trie, probes.keys);
  trie.Insert(99);
  U64Probes probes2({99}, 40, 13);
  ExpectBatchMatchesScalar(trie, probes2.keys);
}

}  // namespace
}  // namespace hot

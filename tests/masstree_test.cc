// Masstree-specific tests: multi-layer descent for long keys, chained layer
// creation for keys sharing many 8-byte slices, layer collapse on delete,
// and the internal per-layer B+-tree.

#include "masstree/masstree.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"

namespace hot {
namespace {

TEST(LayerTree, InsertFindRemove) {
  MemoryCounter counter;
  CountingAllocator alloc(&counter);
  masstree::LayerTree tree(&alloc);
  for (uint64_t k = 0; k < 10000; ++k) {
    EXPECT_TRUE(tree.Insert(k * 7, masstree::Slot::MakeTid(k)));
  }
  EXPECT_FALSE(tree.Insert(7, masstree::Slot::MakeTid(999)));
  EXPECT_EQ(tree.entries(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    uint64_t* slot = tree.Find(k * 7);
    ASSERT_NE(slot, nullptr) << k;
    EXPECT_EQ(masstree::Slot::TidPayload(*slot), k);
  }
  EXPECT_EQ(tree.Find(3), nullptr);
  // In-order visit.
  uint64_t prev = 0;
  bool first = true;
  tree.VisitFrom(0, [&](uint64_t k, uint64_t) {
    if (!first) {
      EXPECT_GT(k, prev);
    }
    prev = k;
    first = false;
    return true;
  });
  // Remove everything in random order.
  SplitMix64 rng(3);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 10000; ++k) keys.push_back(k * 7);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.NextBounded(i)]);
  }
  for (uint64_t k : keys) EXPECT_TRUE(tree.Remove(k).has_value());
  EXPECT_EQ(tree.entries(), 0u);
  tree.Clear();
  // All node memory returns.
  EXPECT_EQ(counter.live_bytes(), 0u);
}

TEST(Masstree, DeepLayerChainsForSharedSlices) {
  // Keys sharing 3 full 8-byte slices force a chain of layers.
  std::vector<std::string> table;
  std::string prefix(24, 'p');  // exactly 3 slices
  for (int i = 0; i < 100; ++i) {
    table.push_back(prefix + "tail" + std::to_string(i));
  }
  table.push_back("unrelated");
  Masstree<StringTableExtractor> tree{StringTableExtractor(&table)};
  for (size_t i = 0; i < table.size(); ++i) ASSERT_TRUE(tree.Insert(i));
  for (size_t i = 0; i < table.size(); ++i) {
    auto got = tree.Lookup(TerminatedView(table[i]));
    ASSERT_TRUE(got.has_value()) << table[i];
    EXPECT_EQ(*got, i);
  }
  EXPECT_FALSE(tree.Lookup(TerminatedView(prefix)).has_value());
  EXPECT_FALSE(tree.Lookup(TerminatedView(prefix + "tail")).has_value());
}

TEST(Masstree, LayerCollapseOnDelete) {
  MemoryCounter counter;
  std::vector<std::string> table;
  std::string prefix(40, 'z');
  for (int i = 0; i < 50; ++i) table.push_back(prefix + std::to_string(i));
  {
    Masstree<StringTableExtractor> tree{StringTableExtractor(&table),
                                        &counter};
    for (size_t i = 0; i < table.size(); ++i) ASSERT_TRUE(tree.Insert(i));
    size_t peak = counter.live_bytes();
    for (size_t i = 0; i < table.size() - 1; ++i) {
      ASSERT_TRUE(tree.Remove(TerminatedView(table[i])));
    }
    // Deep layers for the removed keys must have collapsed.
    EXPECT_LT(counter.live_bytes(), peak);
    EXPECT_TRUE(
        tree.Lookup(TerminatedView(table.back())).has_value());
    ASSERT_TRUE(tree.Remove(TerminatedView(table.back())));
    EXPECT_TRUE(tree.empty());
  }
  EXPECT_EQ(counter.live_bytes(), 0u);
}

TEST(Masstree, IntegerKeysSingleLayer) {
  Masstree<U64KeyExtractor> tree;
  SplitMix64 rng(5);
  std::set<uint64_t> oracle;
  for (int i = 0; i < 30000; ++i) {
    uint64_t v = rng.Next() >> 1;
    ASSERT_EQ(tree.Insert(v), oracle.insert(v).second);
  }
  for (uint64_t v : oracle) {
    ASSERT_TRUE(tree.Lookup(U64Key(v).ref()).has_value());
  }
  // Ordered scan across the single layer.
  std::vector<uint64_t> got;
  tree.ScanFrom(U64Key(0).ref(), 100, [&](uint64_t v) { got.push_back(v); });
  std::vector<uint64_t> want(oracle.begin(), oracle.end());
  want.resize(100);
  EXPECT_EQ(got, want);
}

TEST(Masstree, ScanAcrossLayers) {
  std::vector<std::string> table = {
      "aaaaaaaaaaaaaaaaaaaa1", "aaaaaaaaaaaaaaaaaaaa2",
      "aaaaaaaaaaaaaaaaaaaa3", "b", "c",
      "aaaaaaaaaaaaaaaaaaaa15",  // sorts between 1 and 2
  };
  Masstree<StringTableExtractor> tree{StringTableExtractor(&table)};
  for (size_t i = 0; i < table.size(); ++i) ASSERT_TRUE(tree.Insert(i));
  std::vector<std::string> got;
  tree.ScanFrom(TerminatedView(std::string("a")), 10,
                [&](uint64_t tid) { got.push_back(table[tid]); });
  std::vector<std::string> want = table;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace hot

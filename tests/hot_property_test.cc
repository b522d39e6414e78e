// Property-based parameter sweeps (TEST_P): for every benchmark data-set
// kind and several sizes, the HOT trie must
//   * satisfy every structural invariant (Validate),
//   * agree with the binary Patricia trie — its defining structure (§3.1
//     says HOT partitions exactly this trie) — on membership and order,
//   * keep all invariants through heavy deletion churn,
//   * stay within the paper's compactness envelope,
// and the node-layout census must only contain legal layouts.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/stats.h"
#include "hot/trie.h"
#include "patricia/patricia.h"
#include "ycsb/datasets.h"

namespace hot {
namespace {

using ycsb::DataSet;
using ycsb::DataSetKind;
using ycsb::GenerateDataSet;

class HotSweepTest
    : public ::testing::TestWithParam<std::tuple<DataSetKind, size_t>> {
 protected:
  DataSet ds_ = GenerateDataSet(std::get<0>(GetParam()),
                                std::get<1>(GetParam()), 1234);

  KeyRef KeyOf(size_t i, KeyScratch& scratch) const {
    if (ds_.IsString()) return TerminatedView(ds_.strings[i]);
    U64KeyExtractor ex;
    return ex(ds_.ints[i], scratch);
  }
};

TEST_P(HotSweepTest, InvariantsAndPatriciaAgreement) {
  if (ds_.IsString()) {
    HotTrie<StringTableExtractor> hot{StringTableExtractor(&ds_.strings)};
    PatriciaTrie<StringTableExtractor> bin{StringTableExtractor(&ds_.strings)};
    for (size_t i = 0; i < ds_.size(); ++i) {
      ASSERT_TRUE(hot.Insert(i));
      ASSERT_TRUE(bin.Insert(i));
    }
    std::string err;
    ASSERT_TRUE(hot.Validate(&err)) << err;
    // Same members, same order.
    std::vector<uint64_t> hot_order, bin_order;
    hot.ScanFrom(KeyRef(), hot.size() + 1,
                 [&](uint64_t v) { hot_order.push_back(v); });
    bin.ForEachLeaf([&](size_t, uint64_t v) { bin_order.push_back(v); });
    ASSERT_EQ(hot_order, bin_order);
    // Random scans agree.
    SplitMix64 rng(9);
    for (int probe = 0; probe < 50; ++probe) {
      const std::string& s = ds_.strings[rng.NextBounded(ds_.size())];
      std::string start = s.substr(0, 1 + rng.NextBounded(s.size()));
      std::vector<uint64_t> a, b;
      hot.ScanFrom(KeyRef(start), 30, [&](uint64_t v) { a.push_back(v); });
      bin.ScanFrom(KeyRef(start), [&](uint64_t v) {
        b.push_back(v);
        return b.size() < 30;
      });
      ASSERT_EQ(a, b) << "scan from '" << start << "'";
    }
  } else {
    HotTrie<U64KeyExtractor> hot;
    PatriciaTrie<U64KeyExtractor> bin;
    for (uint64_t v : ds_.ints) {
      ASSERT_TRUE(hot.Insert(v));
      ASSERT_TRUE(bin.Insert(v));
    }
    std::string err;
    ASSERT_TRUE(hot.Validate(&err)) << err;
    std::vector<uint64_t> hot_order, bin_order;
    hot.ScanFrom(KeyRef(), hot.size() + 1,
                 [&](uint64_t v) { hot_order.push_back(v); });
    bin.ForEachLeaf([&](size_t, uint64_t v) { bin_order.push_back(v); });
    ASSERT_EQ(hot_order, bin_order);
    std::vector<uint64_t> sorted = ds_.ints;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(hot_order, sorted);
  }
}

TEST_P(HotSweepTest, DeletionChurnKeepsInvariants) {
  SplitMix64 rng(4321);
  if (ds_.IsString()) {
    HotTrie<StringTableExtractor> hot{StringTableExtractor(&ds_.strings)};
    for (size_t i = 0; i < ds_.size(); ++i) ASSERT_TRUE(hot.Insert(i));
    std::vector<uint32_t> order(ds_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    // Remove two thirds, validating periodically.
    size_t removed = 0;
    for (uint32_t i : order) {
      if (removed >= ds_.size() * 2 / 3) break;
      ASSERT_TRUE(hot.Remove(TerminatedView(ds_.strings[i])));
      ++removed;
      if (removed % 1000 == 0) {
        std::string err;
        ASSERT_TRUE(hot.Validate(&err)) << err;
      }
    }
    std::string err;
    ASSERT_TRUE(hot.Validate(&err)) << err;
    // Survivors still resolve.
    for (size_t j = removed; j < order.size(); ++j) {
      ASSERT_TRUE(
          hot.Lookup(TerminatedView(ds_.strings[order[j]])).has_value());
    }
  } else {
    HotTrie<U64KeyExtractor> hot;
    for (uint64_t v : ds_.ints) ASSERT_TRUE(hot.Insert(v));
    std::vector<uint64_t> order = ds_.ints;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    size_t removed = 0;
    for (uint64_t v : order) {
      if (removed >= ds_.size() * 2 / 3) break;
      ASSERT_TRUE(hot.Remove(U64Key(v).ref()));
      ++removed;
      if (removed % 1000 == 0) {
        std::string err;
        ASSERT_TRUE(hot.Validate(&err)) << err;
      }
    }
    std::string err;
    ASSERT_TRUE(hot.Validate(&err)) << err;
    for (size_t j = removed; j < order.size(); ++j) {
      ASSERT_TRUE(hot.Lookup(U64Key(order[j]).ref()).has_value());
    }
  }
}

TEST_P(HotSweepTest, CompactnessEnvelopeAndLegalLayouts) {
  MemoryCounter counter;
  NodeCensus census;
  double bytes_per_key = 0;
  // (live_bytes must be read while the trie is alive.)
  if (ds_.IsString()) {
    HotTrie<StringTableExtractor> hot{StringTableExtractor(&ds_.strings),
                                      &counter};
    for (size_t i = 0; i < ds_.size(); ++i) hot.Insert(i);
    census = ComputeNodeCensus(hot);
    bytes_per_key = static_cast<double>(counter.live_bytes()) / ds_.size();
  } else {
    HotTrie<U64KeyExtractor> hot{U64KeyExtractor(), &counter};
    for (uint64_t v : ds_.ints) hot.Insert(v);
    census = ComputeNodeCensus(hot);
    bytes_per_key = static_cast<double>(counter.live_bytes()) / ds_.size();
  }
  // §6.3 reports 11.4-14.4 at 50M keys; allow head room at small scale.
  EXPECT_LT(bytes_per_key, 30.0);
  EXPECT_GT(bytes_per_key, 8.0);
  // Layout sanity: every node accounted, fanout sane.
  uint64_t counted = 0;
  for (auto c : census.count_by_type) counted += c;
  EXPECT_EQ(counted, census.nodes);
  EXPECT_GE(census.AverageFanout(), 2.0);
  EXPECT_LE(census.AverageFanout(), 32.0);
}

INSTANTIATE_TEST_SUITE_P(
    DataSetsAndSizes, HotSweepTest,
    ::testing::Combine(::testing::Values(DataSetKind::kUrl,
                                         DataSetKind::kEmail,
                                         DataSetKind::kYago,
                                         DataSetKind::kInteger),
                       ::testing::Values(size_t{1000}, size_t{10000},
                                         size_t{60000})),
    [](const ::testing::TestParamInfo<std::tuple<DataSetKind, size_t>>& info) {
      return std::string(ycsb::DataSetName(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace hot

// Coverage for the reporting substrate: depth statistics, node census and
// bench config parsing.

#include <gtest/gtest.h>

#include <string>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/stats.h"
#include "hot/trie.h"
#include "ycsb/report.h"

namespace hot {
namespace {

TEST(DepthStats, AccumulatesCorrectly) {
  DepthStats stats;
  stats.Add(2);
  stats.Add(2);
  stats.Add(4);
  EXPECT_EQ(stats.total, 3u);
  EXPECT_EQ(stats.max, 4u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 8.0 / 3.0);
  ASSERT_GE(stats.histogram.size(), 5u);
  EXPECT_EQ(stats.histogram[2], 2u);
  EXPECT_EQ(stats.histogram[4], 1u);
  EXPECT_EQ(DepthStats().Mean(), 0.0);
}

TEST(NodeCensus, AccountsEveryNode) {
  HotTrie<U64KeyExtractor> trie;
  SplitMix64 rng(3);
  for (int i = 0; i < 50000; ++i) trie.Insert(rng.Next() >> 1);
  NodeCensus census = ComputeNodeCensus(trie);
  uint64_t nodes = 0, bytes = 0;
  for (size_t t = 0; t < kNumNodeTypes; ++t) {
    nodes += census.count_by_type[t];
    bytes += census.bytes_by_type[t];
  }
  EXPECT_EQ(nodes, census.nodes);
  EXPECT_EQ(bytes, census.total_bytes);
  EXPECT_GT(census.AverageFanout(), 2.0);
  // Uniform 63-bit integers: the top of the tree is dense (single-mask
  // nodes must dominate).
  EXPECT_GT(census.count_by_type[0] + census.count_by_type[1] +
                census.count_by_type[2],
            census.nodes / 2);
}

TEST(BenchConfig, ParsesFlagsAndSuffixes) {
  EXPECT_EQ(ycsb::ParseSizeWithSuffix("512"), 512u);
  EXPECT_EQ(ycsb::ParseSizeWithSuffix("3k"), 3000u);
  EXPECT_EQ(ycsb::ParseSizeWithSuffix("2M"), 2000000u);
  EXPECT_EQ(ycsb::ParseSizeWithSuffix("1.5m"), 1500000u);
  const char* argv[] = {"bench", "--keys=5k", "--ops=10K", "--threads=3",
                        "--workload=E"};
  ycsb::BenchConfig cfg =
      ycsb::ParseBenchConfig(5, const_cast<char**>(argv));
  EXPECT_EQ(cfg.keys, 5000u);
  EXPECT_EQ(cfg.ops, 10000u);
  EXPECT_EQ(cfg.threads, 3u);
  EXPECT_EQ(cfg.filter, "E");
}

}  // namespace
}  // namespace hot

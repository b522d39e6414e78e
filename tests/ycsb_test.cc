// Tests for the YCSB substrate: data-set generators (shape properties),
// workload specs, and an end-to-end driver smoke test on every index.

#include "ycsb/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "art/art.h"
#include "btree/btree.h"
#include "hot/trie.h"
#include "masstree/masstree.h"
#include "ycsb/adapters.h"
#include "ycsb/datasets.h"

namespace hot {
namespace ycsb {
namespace {

TEST(DataSets, IntegerUniqueAnd63Bit) {
  DataSet ds = GenerateDataSet(DataSetKind::kInteger, 10000);
  EXPECT_EQ(ds.size(), 10000u);
  std::set<uint64_t> dedup(ds.ints.begin(), ds.ints.end());
  EXPECT_EQ(dedup.size(), ds.ints.size());
  for (uint64_t v : ds.ints) EXPECT_EQ(v >> 63, 0u);
  EXPECT_EQ(ds.AverageKeyBytes(), 8.0);
}

TEST(DataSets, YagoBitLayout) {
  DataSet ds = GenerateDataSet(DataSetKind::kYago, 10000);
  std::set<uint64_t> subjects, predicates;
  for (uint64_t v : ds.ints) {
    EXPECT_EQ(v >> 63, 0u);
    subjects.insert(v >> 37);
    predicates.insert((v >> 26) & ((1ULL << 11) - 1));
  }
  // Zipfian subjects: far fewer distinct subjects than keys, and a small
  // predicate vocabulary.
  EXPECT_LT(subjects.size(), ds.size());
  EXPECT_LE(predicates.size(), 64u);
  EXPECT_GT(predicates.size(), 10u);
}

TEST(DataSets, UrlShape) {
  DataSet ds = GenerateDataSet(DataSetKind::kUrl, 5000);
  EXPECT_EQ(ds.size(), 5000u);
  std::set<std::string> dedup(ds.strings.begin(), ds.strings.end());
  EXPECT_EQ(dedup.size(), ds.strings.size());
  // Average length near the paper's 55 bytes.
  EXPECT_GT(ds.AverageKeyBytes(), 35.0);
  EXPECT_LT(ds.AverageKeyBytes(), 75.0);
  size_t shared_prefix = 0;
  for (const auto& u : ds.strings) {
    EXPECT_TRUE(u.find("http") == 0) << u;
    EXPECT_EQ(u.find('\0'), std::string::npos);
    if (u.find("http://www.") == 0) ++shared_prefix;
  }
  // Long shared prefixes must be common (that is what stresses tries).
  EXPECT_GT(shared_prefix, ds.size() / 4);
}

TEST(DataSets, EmailShape) {
  DataSet ds = GenerateDataSet(DataSetKind::kEmail, 5000);
  EXPECT_GT(ds.AverageKeyBytes(), 14.0);
  EXPECT_LT(ds.AverageKeyBytes(), 32.0);
  size_t digits_only_local = 0;
  for (const auto& e : ds.strings) {
    auto at = e.find('@');
    ASSERT_NE(at, std::string::npos) << e;
    EXPECT_EQ(e.find('\0'), std::string::npos);
    bool all_digits = true;
    for (size_t i = 0; i < at; ++i) all_digits &= isdigit(e[i]) != 0;
    if (all_digits) ++digits_only_local;
  }
  EXPECT_GT(digits_only_local, 0u);  // the paper mentions numeric addresses
}

TEST(DataSets, DeterministicInSeed) {
  DataSet a = GenerateDataSet(DataSetKind::kUrl, 1000, 9);
  DataSet b = GenerateDataSet(DataSetKind::kUrl, 1000, 9);
  DataSet c = GenerateDataSet(DataSetKind::kUrl, 1000, 10);
  EXPECT_EQ(a.strings, b.strings);
  EXPECT_NE(a.strings, c.strings);
}

TEST(Workloads, SpecsMatchYcsbCore) {
  auto a = YcsbWorkload('A', Distribution::kUniform);
  EXPECT_DOUBLE_EQ(a.read, 0.5);
  EXPECT_DOUBLE_EQ(a.update, 0.5);
  auto c = YcsbWorkload('C', Distribution::kZipfian);
  EXPECT_DOUBLE_EQ(c.read, 1.0);
  EXPECT_EQ(c.dist, Distribution::kZipfian);
  auto d = YcsbWorkload('D', Distribution::kUniform);
  EXPECT_EQ(d.dist, Distribution::kLatest);  // D is latest by definition
  auto e = YcsbWorkload('E', Distribution::kUniform);
  EXPECT_DOUBLE_EQ(e.scan, 0.95);
  EXPECT_DOUBLE_EQ(e.insert, 0.05);
  EXPECT_EQ(e.max_scan_len, 100u);
  auto f = YcsbWorkload('F', Distribution::kUniform);
  EXPECT_DOUBLE_EQ(f.rmw, 0.5);
}

TEST(Workloads, AllCoreSpecsValidate) {
  for (char w : {'A', 'B', 'C', 'D', 'E', 'F'}) {
    for (auto d : {Distribution::kUniform, Distribution::kZipfian}) {
      EXPECT_EQ(ValidateWorkloadSpec(YcsbWorkload(w, d)), "")
          << "workload " << w;
    }
  }
}

// Regression: the op-pick chain in RunBenchmark treats insert as the
// residual branch, so a mix summing to less than 1 used to silently run
// extra inserts and one summing to more than 1 silently starved the later
// branches.  Malformed specs must be rejected up front instead.
TEST(Workloads, MalformedSpecsAreRejected) {
  DataSet ds = GenerateDataSet(DataSetKind::kInteger, 2000);
  IntDataSetAdapter<HotTrie> adapter(&ds);

  WorkloadSpec short_sum = YcsbWorkload('A', Distribution::kUniform);
  short_sum.update = 0.1;  // 0.5 + 0.1 = 0.6
  EXPECT_NE(ValidateWorkloadSpec(short_sum), "");
  EXPECT_THROW(RunBenchmark(adapter, ds, 1000, 100, short_sum),
               std::invalid_argument);

  WorkloadSpec over_sum = YcsbWorkload('E', Distribution::kUniform);
  over_sum.read = 0.5;  // 0.5 + 0.95 + 0.05 = 1.5
  EXPECT_NE(ValidateWorkloadSpec(over_sum), "");
  EXPECT_THROW(RunBenchmark(adapter, ds, 1000, 100, over_sum),
               std::invalid_argument);

  WorkloadSpec negative = YcsbWorkload('A', Distribution::kUniform);
  negative.read = -0.5;
  negative.update = 1.5;  // sums to 1.0, probabilities out of range
  EXPECT_NE(ValidateWorkloadSpec(negative), "");
  EXPECT_THROW(RunBenchmark(adapter, ds, 1000, 100, negative),
               std::invalid_argument);

  WorkloadSpec zero_scan_len = YcsbWorkload('E', Distribution::kUniform);
  zero_scan_len.max_scan_len = 0;
  EXPECT_NE(ValidateWorkloadSpec(zero_scan_len), "");
  EXPECT_THROW(RunBenchmark(adapter, ds, 1000, 100, zero_scan_len),
               std::invalid_argument);

  // max_scan_len = 0 is fine when the mix never scans.
  WorkloadSpec no_scans = YcsbWorkload('C', Distribution::kUniform);
  no_scans.max_scan_len = 0;
  EXPECT_EQ(ValidateWorkloadSpec(no_scans), "");
}

template <typename Adapter>
void SmokeRun(const DataSet& ds) {
  Adapter adapter(&ds);
  size_t load_n = ds.size() * 2 / 3;
  for (char w : {'A', 'C', 'D', 'E'}) {
    Adapter fresh(&ds);
    auto spec = YcsbWorkload(w, Distribution::kUniform);
    RunResult r = RunBenchmark(fresh, ds, load_n, 20000, spec);
    EXPECT_EQ(r.load_ops, load_n);
    EXPECT_EQ(r.txn_ops, 20000u);
    EXPECT_EQ(r.failed_ops, 0u) << "workload " << w;
    EXPECT_GT(r.memory_bytes, 0u);
    EXPECT_GT(r.TxnMops(), 0.0);
  }
}

TEST(Driver, AllIndexesAllWorkloadsString) {
  DataSet ds = GenerateDataSet(DataSetKind::kEmail, 30000);
  SmokeRun<StringDataSetAdapter<HotTrie>>(ds);
  SmokeRun<StringDataSetAdapter<ArtTree>>(ds);
  SmokeRun<StringDataSetAdapter<BTree>>(ds);
  SmokeRun<StringDataSetAdapter<Masstree>>(ds);
}

TEST(Driver, AllIndexesAllWorkloadsInteger) {
  DataSet ds = GenerateDataSet(DataSetKind::kInteger, 30000);
  SmokeRun<IntDataSetAdapter<HotTrie>>(ds);
  SmokeRun<IntDataSetAdapter<ArtTree>>(ds);
  SmokeRun<IntDataSetAdapter<BTree>>(ds);
  SmokeRun<IntDataSetAdapter<Masstree>>(ds);
}

TEST(Driver, ZipfianRunsAndSkews) {
  DataSet ds = GenerateDataSet(DataSetKind::kYago, 30000);
  IntDataSetAdapter<HotTrie> adapter(&ds);
  auto spec = YcsbWorkload('B', Distribution::kZipfian);
  RunResult r = RunBenchmark(adapter, ds, 20000, 20000, spec);
  EXPECT_EQ(r.failed_ops, 0u);
}

}  // namespace
}  // namespace ycsb
}  // namespace hot

// Figure 10: multi-threaded scalability on the url data set — insert
// throughput (random order), lookup throughput (uniform random), and a
// concurrent YCSB workload-E phase (95% scan of up to 100 elements, 5%
// insert of fresh records) for thread counts 1..N.
//
// The paper runs synchronized HOT (ROWEX, §5), ART (ROWEX) and Masstree on
// a 10-core i9-7900X and reports near-linear speedups (HOT: 9.96x lookup /
// 9.00x insert at 10 threads).  Here HOT uses the full ROWEX protocol of
// hot/rowex.h; the baselines' synchronized variants are approximated by
// range-partitioned sharding with per-shard locks over the single-threaded
// implementations (ycsb/range_sharded.h — see DESIGN.md "Substitutions" and
// §10).  Range partitioning preserves global key order, which is what lets
// the workload-E phase run concurrently on every index: scans spill across
// shard boundaries in key order.  Splitters are sampled equi-depth from the
// data set, since url keys share long prefixes and would otherwise collapse
// into one shard.
// NOTE: on a machine with a single physical core (this box), threads
// time-slice and no protocol can show real speedup; the experiment then
// demonstrates correctness under concurrency and per-thread overhead.
//
// Usage: fig10_scalability [--keys=N] [--ops=N] [--threads=MAX]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "art/art.h"
#include "bench/json_out.h"
#include "btree/btree.h"
#include "common/extractors.h"
#include "hot/rowex.h"
#include "masstree/masstree.h"
#include "ycsb/datasets.h"
#include "ycsb/range_sharded.h"
#include "ycsb/report.h"
#include "ycsb/workload.h"

using namespace hot;
using namespace hot::ycsb;

namespace {

struct PhaseResult {
  double insert_mops;
  double lookup_mops;
  double scan_mops;  // workload-E mix operations (not scanned elements)
};

std::atomic<uint64_t> benchmark_sink{0};

constexpr unsigned kScanOpsDivisor = 16;  // scans touch ~50 elements each

// Three timed phases over any index exposing Insert(value) / Lookup(key) /
// ScanFrom(key, limit, fn): parallel inserts of order[0..load_n), parallel
// uniform lookups, then the concurrent workload-E mix where each thread
// inserts fresh records from its own slice of order[load_n..).  Barrier
// waits always yield: with threads oversubscribing the cores, a spinning
// barrier burns a scheduler quantum per straggler.
template <typename Index>
PhaseResult RunPhases(Index& idx, unsigned threads, const DataSet& ds,
                      const std::vector<uint32_t>& order, size_t load_n,
                      size_t lookups, size_t scan_ops) {
  using Clock = std::chrono::steady_clock;
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};

  auto run_parallel = [&](auto&& body) {
    ready = 0;
    go = false;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_release);
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        body(t);
      });
    }
    while (ready.load(std::memory_order_acquire) != threads) {
      std::this_thread::yield();
    }
    auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    auto t1 = Clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
  };

  double insert_seconds = run_parallel([&](unsigned t) {
    size_t lo = load_n * t / threads, hi = load_n * (t + 1) / threads;
    for (size_t i = lo; i < hi; ++i) idx.Insert(order[i]);
  });
  double lookup_seconds = run_parallel([&](unsigned t) {
    SplitMix64 rng(91 + t);
    size_t per_thread = lookups / threads;
    for (size_t i = 0; i < per_thread; ++i) {
      idx.Lookup(TerminatedView(ds.strings[order[rng.NextBounded(load_n)]]));
    }
  });
  double scan_seconds = run_parallel([&](unsigned t) {
    SplitMix64 rng(173 + t);
    // Disjoint fresh-record slice per thread for the 5% insert share.
    size_t fresh = ds.size() - load_n;
    size_t next = load_n + fresh * t / threads;
    size_t end = load_n + fresh * (t + 1) / threads;
    size_t per_thread = scan_ops / threads;
    uint64_t sink = 0;
    for (size_t i = 0; i < per_thread; ++i) {
      if (rng.NextBounded(100) < 5 && next < end) {
        idx.Insert(order[next++]);
      } else {
        size_t start = order[rng.NextBounded(load_n)];
        size_t len = 1 + rng.NextBounded(100);
        idx.ScanFrom(TerminatedView(ds.strings[start]), len,
                     [&](uint64_t v) { sink += v; });
      }
    }
    benchmark_sink.fetch_add(sink, std::memory_order_relaxed);
  });
  return {static_cast<double>(load_n) / insert_seconds / 1e6,
          static_cast<double>(lookups) / lookup_seconds / 1e6,
          static_cast<double>(scan_ops) / scan_seconds / 1e6};
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseBenchConfig(argc, argv);
  unsigned max_threads = cfg.threads != 0
                             ? cfg.threads
                             : std::max(1u, std::thread::hardware_concurrency());
  const size_t scan_ops = std::max<size_t>(cfg.ops / kScanOpsDivisor, 1000);
  printf("fig10_scalability: reproduces paper Figure 10 (url data set, "
         "%zu inserts + %zu lookups + %zu workload-E ops, 1..%u threads)\n",
         cfg.keys, cfg.ops, scan_ops, max_threads);
  printf("note: %u hardware thread(s) available — speedups beyond that are "
         "not physically possible on this machine\n\n",
         std::thread::hardware_concurrency());

  DataSet ds = GenerateDataSet(DataSetKind::kUrl, cfg.keys, cfg.seed);
  std::vector<uint32_t> order = LoadOrder(ds.size(), cfg.seed);
  // 1/16 of the records stay unloaded as fresh inserts for workload E.
  const size_t load_n = ds.size() - ds.size() / 16;
  const SplitterKeys splitters = SampledSplitters(ds, 16);

  bench::BenchJson json("fig10_scalability");
  json.meta()
      .Add("keys", cfg.keys)
      .Add("ops", cfg.ops)
      .Add("scan_ops", scan_ops)
      .Add("max_threads", max_threads)
      .Add("shards", 16)
      .Add("seed", cfg.seed);
  auto add_json = [&](unsigned threads, const char* index,
                      const PhaseResult& r) {
    bench::JsonObject j;
    j.Add("threads", threads)
        .Add("index", index)
        .Add("insert_mops", r.insert_mops)
        .Add("lookup_mops", r.lookup_mops)
        .Add("scan_mops", r.scan_mops);
    json.AddResult(j);
  };

  Table table({"threads", "index", "insert-mops", "lookup-mops", "scanE-mops",
               "look-speedup"});
  table.PrintHeader();

  using Ex = StringTableExtractor;
  const Ex extractor(&ds.strings);
  constexpr unsigned kArms = 4;
  const char* arm_names[kArms] = {"HOT(ROWEX)", "ART(range-shard)",
                                  "Masstree(range-shard)",
                                  "BTree(range-shard)"};
  double base_lookup[kArms] = {};

  for (unsigned threads = 1; threads <= max_threads; ++threads) {
    auto run_arm = [&](unsigned arm, auto& idx) {
      PhaseResult r =
          RunPhases(idx, threads, ds, order, load_n, cfg.ops, scan_ops);
      if (threads == 1) base_lookup[arm] = r.lookup_mops;
      table.PrintRow({std::to_string(threads), arm_names[arm],
                      Fmt(r.insert_mops), Fmt(r.lookup_mops),
                      Fmt(r.scan_mops),
                      Fmt(r.lookup_mops / base_lookup[arm]) + "x"});
      add_json(threads, arm_names[arm], r);
    };
    {
      RowexHotTrie<Ex> hot{extractor};
      run_arm(0, hot);
    }
    {
      RangeShardedIndex<ArtTree<Ex>, Ex> idx(splitters, extractor);
      run_arm(1, idx);
    }
    {
      RangeShardedIndex<Masstree<Ex>, Ex> idx(splitters, extractor);
      run_arm(2, idx);
    }
    {
      RangeShardedIndex<BTree<Ex>, Ex> idx(splitters, extractor);
      run_arm(3, idx);
    }
  }
  json.WriteFile();
  return 0;
}

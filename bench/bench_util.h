// Shared helpers for the figure-regeneration benches: run one benchmark
// configuration across the four evaluated index structures (HOT, ART,
// Masstree, BT — §6.1) on one of the four data sets, and print rows in the
// paper's layout.

#ifndef HOT_BENCH_BENCH_UTIL_H_
#define HOT_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "art/art.h"
#include "bench/json_out.h"
#include "btree/btree.h"
#include "hot/rowex.h"
#include "hot/trie.h"
#include "masstree/masstree.h"
#include "obs/histogram.h"
#include "obs/perf_counters.h"
#include "ycsb/adapters.h"
#include "ycsb/datasets.h"
#include "ycsb/report.h"
#include "ycsb/workload.h"

namespace hot {
namespace bench {

struct IndexResult {
  std::string index;
  ycsb::RunResult run;
  // Set when the run was observed (--latency / --counters); histograms make
  // RunObservers non-copyable, hence the indirection.
  std::unique_ptr<ycsb::RunObservers> observers;
  bool hw_counters = false;          // txn-phase hardware counters valid
  std::string counter_fallback;      // why not, when they are not
};

// Observation knobs threaded from the driver flags (ycsb::BenchConfig) into
// each per-index run.
struct ObsOptions {
  bool latency = false;
  bool counters = false;
};

// Runs (load `load_n` keys, then `ops` transactions of `spec`) for each of
// the evaluated index structures on `ds`.  Results in paper order:
// HOT, ART, Masstree, BT — plus ROWEX (the concurrent HOT) between HOT and
// ART when `include_rowex` is set (bench/table3_counters.cc covers all
// five).  `batch` > 1 groups reads through the adapters' MultiLookup hook
// (HOT runs its MLP batched lookup, the others loop).
inline std::vector<IndexResult> RunAllIndexes(const ycsb::DataSet& ds,
                                              size_t load_n, size_t ops,
                                              const ycsb::WorkloadSpec& spec,
                                              uint64_t seed,
                                              unsigned batch = 1,
                                              const ObsOptions& opt = {},
                                              bool include_rowex = false) {
  std::vector<IndexResult> out;
  auto run_one = [&](const char* name, auto make_adapter) {
    auto adapter = make_adapter();
    IndexResult r;
    r.index = name;
    std::unique_ptr<obs::PerfCounterGroup> group;
    if (opt.latency || opt.counters) {
      r.observers = std::make_unique<ycsb::RunObservers>();
      if (opt.counters) {
        group = std::make_unique<obs::PerfCounterGroup>();
        r.observers->counters = group.get();
        r.hw_counters = group->hw_available();
        r.counter_fallback = group->fallback_reason();
      }
    }
    r.run = ycsb::RunBenchmark(*adapter, ds, load_n, ops, spec, seed, batch,
                               r.observers.get());
    if (r.observers != nullptr) r.observers->counters = nullptr;  // group dies
    out.push_back(std::move(r));
  };
  if (ds.IsString()) {
    run_one("HOT", [&] {
      return std::make_unique<ycsb::StringDataSetAdapter<HotTrie>>(&ds);
    });
    if (include_rowex) {
      run_one("ROWEX", [&] {
        return std::make_unique<ycsb::StringDataSetAdapter<RowexHotTrie>>(&ds);
      });
    }
    run_one("ART", [&] {
      return std::make_unique<ycsb::StringDataSetAdapter<ArtTree>>(&ds);
    });
    run_one("Masstree", [&] {
      return std::make_unique<ycsb::StringDataSetAdapter<Masstree>>(&ds);
    });
    run_one("BT", [&] {
      return std::make_unique<ycsb::StringDataSetAdapter<BTree>>(&ds);
    });
  } else {
    run_one("HOT", [&] {
      return std::make_unique<ycsb::IntDataSetAdapter<HotTrie>>(&ds);
    });
    if (include_rowex) {
      run_one("ROWEX", [&] {
        return std::make_unique<ycsb::IntDataSetAdapter<RowexHotTrie>>(&ds);
      });
    }
    run_one("ART", [&] {
      return std::make_unique<ycsb::IntDataSetAdapter<ArtTree>>(&ds);
    });
    run_one("Masstree", [&] {
      return std::make_unique<ycsb::IntDataSetAdapter<Masstree>>(&ds);
    });
    run_one("BT", [&] {
      return std::make_unique<ycsb::IntDataSetAdapter<BTree>>(&ds);
    });
  }
  return out;
}

// Nanoseconds at percentile `p` of a tick-valued histogram.
inline double LatNs(const obs::LatencyHistogram& h, double p) {
  return obs::TicksToNanos(h.ValueAtPercentile(p));
}

// Folds the observed latency histograms into a flat JSON row:
// lat_<op>_{count,p50_ns,p90_ns,p99_ns,p999_ns,max_ns,mean_ns}.
inline void AddLatencyFields(JsonObject& row, const ycsb::RunObservers& o) {
  o.ForEachHistogram([&](const char* op, const obs::LatencyHistogram& h) {
    std::string p = std::string("lat_") + op + "_";
    row.Add(p + "count", h.count());
    row.Add(p + "p50_ns", LatNs(h, 50));
    row.Add(p + "p90_ns", LatNs(h, 90));
    row.Add(p + "p99_ns", LatNs(h, 99));
    row.Add(p + "p999_ns", LatNs(h, 99.9));
    row.Add(p + "max_ns", obs::TicksToNanos(h.max()));
    row.Add(p + "mean_ns",
            h.Mean() * 1e9 / obs::TicksPerSecond());
  });
}

// Folds the per-phase hardware samples into a flat JSON row as Table-3
// style per-operation rates.  `hw_valid` false means the run fell back to
// rdtsc-only (perf_event_open denied or HOT_NO_PERF set) and only the
// counts are meaningful — the flag is emitted so downstream consumers never
// mistake fallback zeros for perfect IPC.
inline void AddCounterFields(JsonObject& row, const IndexResult& r) {
  const ycsb::RunObservers& o = *r.observers;
  row.Add("hw_counters", r.hw_counters);
  if (!r.counter_fallback.empty()) {
    row.Add("counter_fallback", r.counter_fallback);
  }
  auto per_op = [](uint64_t v, size_t n) {
    return n == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(n);
  };
  auto add_phase = [&](const char* phase, const obs::CounterSample& s,
                       size_t n_ops) {
    std::string p = std::string(phase) + "_";
    if (!s.hw_valid) return;
    row.Add(p + "cycles_per_op", per_op(s.cycles, n_ops));
    row.Add(p + "instr_per_op", per_op(s.instructions, n_ops));
    row.Add(p + "llc_miss_per_op", per_op(s.llc_misses, n_ops));
    row.Add(p + "branch_miss_per_op", per_op(s.branch_misses, n_ops));
    row.Add(p + "dtlb_miss_per_op", per_op(s.dtlb_misses, n_ops));
    row.Add(p + "ipc", s.cycles == 0
                           ? 0.0
                           : static_cast<double>(s.instructions) /
                                 static_cast<double>(s.cycles));
  };
  add_phase("load", o.load_sample, r.run.load_ops);
  add_phase("txn", o.txn_sample, r.run.txn_ops);
}

// Human-readable latency lines under the throughput table (--latency).
inline void PrintLatencySummary(const IndexResult& r) {
  if (r.observers == nullptr) return;
  r.observers->ForEachHistogram(
      [&](const char* op, const obs::LatencyHistogram& h) {
        printf("    %-9s %-7s p50=%7.0fns p90=%7.0fns p99=%7.0fns "
               "p99.9=%8.0fns max=%9.0fns (%llu ops)\n",
               r.index.c_str(), op, LatNs(h, 50), LatNs(h, 90), LatNs(h, 99),
               LatNs(h, 99.9), obs::TicksToNanos(h.max()),
               static_cast<unsigned long long>(h.count()));
      });
}

inline const ycsb::DataSetKind kAllDataSets[] = {
    ycsb::DataSetKind::kUrl, ycsb::DataSetKind::kEmail,
    ycsb::DataSetKind::kYago, ycsb::DataSetKind::kInteger};

// Number of records to pre-generate so that insert-bearing workloads never
// run out: load keys + the expected insert count with head room.
inline size_t CapacityFor(size_t keys, size_t ops,
                          const ycsb::WorkloadSpec& spec) {
  return keys + static_cast<size_t>(static_cast<double>(ops) * spec.insert *
                                    1.2) +
         16;
}

}  // namespace bench
}  // namespace hot

#endif  // HOT_BENCH_BENCH_UTIL_H_

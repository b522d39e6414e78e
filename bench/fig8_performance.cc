// Figure 8: single-threaded throughput (million operations per second) of
// HOT, ART, Masstree and the B+-tree for
//   * YCSB workload C (100% lookup, uniform),
//   * YCSB workload E (95% short range scans of up to 100 entries,
//     5% insert, uniform),
//   * the insert-only load phase,
// on the four data sets (url, email, yago, integer).
//
// Paper scale: 50M keys / 100M operations.  Default here: 2M/4M
// (override with --keys/--ops or HOT_BENCH_KEYS/HOT_BENCH_OPS); the
// relative shapes are scale-stable, absolute mops depend on the machine.
//
// Usage: fig8_performance [--keys=N] [--ops=N] [--workload=C|E|load]

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "bench/json_out.h"

using namespace hot;
using namespace hot::ycsb;
using namespace hot::bench;

namespace {

void RunWorkloadRow(const BenchConfig& cfg, char workload, BenchJson& json) {
  printf("\n=== Figure 8: workload %c (uniform), %zu keys, %zu ops, "
         "batch %u ===\n",
         workload, cfg.keys, cfg.ops, cfg.batch);
  Table table({"dataset", "HOT", "ART", "Masstree", "BT", "metric"});
  table.PrintHeader();
  WorkloadSpec spec = YcsbWorkload(workload, Distribution::kUniform);
  for (DataSetKind kind : kAllDataSets) {
    DataSet ds = GenerateDataSet(kind, CapacityFor(cfg.keys, cfg.ops, spec),
                                 cfg.seed);
    ObsOptions obs_opt{cfg.latency, cfg.counters};
    auto results = RunAllIndexes(ds, cfg.keys, cfg.ops, spec, cfg.seed,
                                 cfg.batch, obs_opt);
    std::vector<std::string> row = {DataSetName(kind)};
    for (const auto& r : results) {
      row.push_back(Fmt(r.run.TxnMops()));
      JsonObject j;
      j.Add("workload", std::string(1, workload))
          .Add("dataset", DataSetName(kind))
          .Add("index", r.index)
          .Add("mops", r.run.TxnMops())
          .Add("failed_ops", r.run.failed_ops);
      if (cfg.latency && r.observers != nullptr) {
        AddLatencyFields(j, *r.observers);
      }
      if (cfg.counters && r.observers != nullptr) AddCounterFields(j, r);
      json.AddResult(j);
    }
    row.push_back("mops");
    table.PrintRow(row);
    if (cfg.latency) {
      for (const auto& r : results) PrintLatencySummary(r);
    }
  }
}

void RunInsertOnlyRow(const BenchConfig& cfg, BenchJson& json) {
  printf("\n=== Figure 8: insert-only (load phase), %zu keys ===\n",
         cfg.keys);
  Table table({"dataset", "HOT", "ART", "Masstree", "BT", "metric"});
  table.PrintHeader();
  WorkloadSpec spec = YcsbWorkload('C', Distribution::kUniform);
  for (DataSetKind kind : kAllDataSets) {
    DataSet ds = GenerateDataSet(kind, cfg.keys, cfg.seed);
    // Zero transaction ops: we time only the load.
    ObsOptions obs_opt{/*latency=*/false, cfg.counters};
    auto results =
        RunAllIndexes(ds, cfg.keys, 0, spec, cfg.seed, 1, obs_opt);
    std::vector<std::string> row = {DataSetName(kind)};
    for (const auto& r : results) {
      row.push_back(Fmt(r.run.LoadMops()));
      JsonObject j;
      j.Add("workload", "load")
          .Add("dataset", DataSetName(kind))
          .Add("index", r.index)
          .Add("mops", r.run.LoadMops())
          .Add("failed_ops", r.run.failed_ops);
      if (cfg.counters && r.observers != nullptr) AddCounterFields(j, r);
      json.AddResult(j);
    }
    row.push_back("mops");
    table.PrintRow(row);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg = ParseBenchConfig(argc, argv);
  printf("fig8_performance: reproduces paper Figure 8 (workloads C, E and "
         "insert-only across 4 data sets)\n");
  BenchJson json("fig8_performance");
  json.meta()
      .Add("keys", cfg.keys)
      .Add("ops", cfg.ops)
      .Add("batch", cfg.batch)
      .Add("seed", cfg.seed)
      .Add("latency", cfg.latency)
      .Add("counters", cfg.counters);
  bool all = cfg.filter.empty();
  if (all || cfg.filter == "C") RunWorkloadRow(cfg, 'C', json);
  if (all || cfg.filter == "E") RunWorkloadRow(cfg, 'E', json);
  if (all || cfg.filter == "load") RunInsertOnlyRow(cfg, json);
  json.WriteFile();
  return 0;
}

// YCSB core workloads (Cooper et al., SoCC 2010) in the index-microbench
// style of Zhang et al. that the paper's evaluation builds on (§6.1).
//
// Each benchmark configuration = (workload in A..F, data set, request
// distribution).  A run has two phases:
//   load phase:        insert `load_n` keys in random order,
//   transaction phase: `txn_ops` operations drawn from the workload mix.
//
// Workload mixes (YCSB core):
//   A  50% read, 50% update          B  95% read, 5% update
//   C  100% read                     D  95% latest-read, 5% insert
//   E  95% scan(<=100), 5% insert    F  50% read, 50% read-modify-write

#ifndef HOT_YCSB_WORKLOAD_H_
#define HOT_YCSB_WORKLOAD_H_

#include <cassert>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/histogram.h"
#include "obs/perf_counters.h"
#include "ycsb/datasets.h"

namespace hot {
namespace ycsb {

enum class Distribution { kUniform, kZipfian, kLatest };

inline const char* DistributionName(Distribution d) {
  switch (d) {
    case Distribution::kUniform:
      return "uniform";
    case Distribution::kZipfian:
      return "zipf";
    case Distribution::kLatest:
      return "latest";
  }
  return "?";
}

struct WorkloadSpec {
  char name;
  double read = 0, update = 0, insert = 0, scan = 0, rmw = 0;
  Distribution dist = Distribution::kUniform;
  unsigned max_scan_len = 100;
};

// Validates a spec before a run: every mix probability in [0, 1], the mix
// summing to 1 (within 1e-6 — the op-pick chain otherwise silently folds
// the residual into the insert branch), and a usable scan length whenever
// the mix scans.  Returns an empty string when valid, else a description
// of the first problem.
inline std::string ValidateWorkloadSpec(const WorkloadSpec& spec) {
  auto bad = [](double p) { return !(p >= 0.0 && p <= 1.0); };  // NaN too
  if (bad(spec.read) || bad(spec.update) || bad(spec.insert) ||
      bad(spec.scan) || bad(spec.rmw)) {
    return std::string("workload '") + spec.name +
           "': every mix probability must be in [0, 1] (read=" +
           std::to_string(spec.read) + " update=" +
           std::to_string(spec.update) + " insert=" +
           std::to_string(spec.insert) + " scan=" + std::to_string(spec.scan) +
           " rmw=" + std::to_string(spec.rmw) + ")";
  }
  double sum = spec.read + spec.update + spec.insert + spec.scan + spec.rmw;
  if (sum < 1.0 - 1e-6 || sum > 1.0 + 1e-6) {
    return std::string("workload '") + spec.name +
           "': mix probabilities sum to " + std::to_string(sum) +
           ", expected 1.0 (read+update+insert+scan+rmw)";
  }
  if (spec.scan > 0.0 && spec.max_scan_len < 1) {
    return std::string("workload '") + spec.name +
           "': max_scan_len must be >= 1 when the mix scans";
  }
  return "";
}

// The six YCSB core workloads.  Workload D always uses the latest
// distribution for its reads (per YCSB); A/B/C/E/F take the requested one.
inline WorkloadSpec YcsbWorkload(char w, Distribution dist) {
  WorkloadSpec s;
  s.name = w;
  s.dist = dist;
  switch (w) {
    case 'A':
      s.read = 0.5;
      s.update = 0.5;
      break;
    case 'B':
      s.read = 0.95;
      s.update = 0.05;
      break;
    case 'C':
      s.read = 1.0;
      break;
    case 'D':
      s.read = 0.95;
      s.insert = 0.05;
      s.dist = Distribution::kLatest;
      break;
    case 'E':
      s.scan = 0.95;
      s.insert = 0.05;
      break;
    case 'F':
      s.read = 0.5;
      s.rmw = 0.5;
      break;
    default:
      assert(false && "unknown workload");
  }
  return s;
}

struct RunResult {
  size_t load_ops = 0;
  double load_seconds = 0;
  size_t txn_ops = 0;
  double txn_seconds = 0;
  size_t memory_bytes = 0;
  size_t failed_ops = 0;  // lookups of missing keys etc. (should be 0)

  double LoadMops() const {
    return load_seconds > 0 ? static_cast<double>(load_ops) / load_seconds /
                                  1e6
                            : 0;
  }
  double TxnMops() const {
    return txn_seconds > 0 ? static_cast<double>(txn_ops) / txn_seconds / 1e6
                           : 0;
  }
};

// Optional per-run observability (the --latency / --counters driver flags).
// When a RunObservers* is passed to RunBenchmark, every transaction-phase
// operation is timed with ReadTicks into the per-op-type histogram
// (batched-read flushes are timed once and attributed to each member via
// RecordN), and — when `counters` points at a PerfCounterGroup — the load
// and transaction phases each run inside a CounterRegion, yielding the
// Table-3 style hardware profile of the whole phase.
struct RunObservers {
  obs::LatencyHistogram read;
  obs::LatencyHistogram update;
  obs::LatencyHistogram insert;
  obs::LatencyHistogram scan;
  obs::LatencyHistogram rmw;

  obs::PerfCounterGroup* counters = nullptr;  // optional; borrowed
  obs::CounterSample load_sample;             // filled when counters != null
  obs::CounterSample txn_sample;

  // Visits the non-empty histograms with their op-type names.
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    if (read.count() != 0) fn("read", read);
    if (update.count() != 0) fn("update", update);
    if (insert.count() != 0) fn("insert", insert);
    if (scan.count() != 0) fn("scan", scan);
    if (rmw.count() != 0) fn("rmw", rmw);
  }
};

// Shuffled record order for the load phase (the paper loads keys in random
// order); deterministic in `seed`.
inline std::vector<uint32_t> LoadOrder(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  SplitMix64 rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

// Runs load + transaction phase.  The data set must hold at least
// load_n + (expected inserts) records; insert operations consume records
// load_n, load_n+1, ... in order.
//
// `batch` > 1 turns on batched reads: read operations accumulate into a
// group that is flushed through the adapter's MultiLookup hook when it
// reaches `batch` entries — or earlier, whenever a mutating operation (or
// a scan/rmw) arrives, so reads never reorder across writes.  Read-heavy
// workloads (B, C) thus run almost entirely in full batches and exercise
// the index's memory-level-parallel lookup path.
template <typename Adapter>
RunResult RunBenchmark(Adapter& adapter, const DataSet& ds, size_t load_n,
                       size_t txn_ops, const WorkloadSpec& spec,
                       uint64_t seed = 7, unsigned batch = 1,
                       RunObservers* obs = nullptr) {
  using Clock = std::chrono::steady_clock;
  std::string spec_error = ValidateWorkloadSpec(spec);
  if (!spec_error.empty()) {
    throw std::invalid_argument("RunBenchmark: " + spec_error);
  }
  RunResult result;
  const bool timed = obs != nullptr;
  obs::PerfCounterGroup* counters =
      obs != nullptr ? obs->counters : nullptr;

  // --- load phase -----------------------------------------------------------
  std::vector<uint32_t> order = LoadOrder(load_n, seed);
  auto t0 = Clock::now();
  {
    obs::CounterSample start;
    if (counters != nullptr) start = counters->Read();
    for (uint32_t i : order) {
      if (!adapter.InsertRecord(i)) ++result.failed_ops;
    }
    if (counters != nullptr) obs->load_sample = counters->Read() - start;
  }
  auto t1 = Clock::now();
  result.load_ops = load_n;
  result.load_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.memory_bytes = adapter.MemoryBytes();

  // --- transaction phase ------------------------------------------------------
  SplitMix64 rng(seed ^ 0xdeadbeef);
  ZipfianGenerator zipf(load_n, 0.99, seed + 1);
  LatestGenerator latest(load_n, seed + 2);
  size_t next_insert = load_n;
  size_t inserted = load_n;
  const size_t capacity = ds.size();

  auto pick_record = [&]() -> size_t {
    switch (spec.dist) {
      case Distribution::kUniform:
        return rng.NextBounded(inserted);
      case Distribution::kZipfian: {
        size_t r = zipf.Next();
        return r < inserted ? r : rng.NextBounded(inserted);
      }
      case Distribution::kLatest:
        return latest.Next(inserted);
    }
    return 0;
  };

  std::vector<uint32_t> pending;  // batched-read group (batch > 1)
  if (batch > 1) pending.reserve(batch);
  auto flush_reads = [&] {
    if (pending.empty()) return;
    size_t n = pending.size();
    uint64_t start = timed ? obs::ReadTicks() : 0;
    size_t hits = adapter.MultiLookup(pending.data(), n);
    // One flush covers n reads: attribute an equal share to each so the
    // histogram stays per-operation regardless of the batch width.
    if (timed) obs->read.RecordN((obs::ReadTicks() - start) / n, n);
    result.failed_ops += n - hits;
    pending.clear();
  };
  // Times `body()` into `hist` only when observation is on; `timed` is
  // loop-invariant so the untimed path stays branch-predictable and free of
  // ReadTicks calls.
  auto timed_op = [&](obs::LatencyHistogram RunObservers::* hist,
                      auto&& body) {
    if (!timed) {
      body();
      return;
    }
    uint64_t start = obs::ReadTicks();
    body();
    (obs->*hist).Record(obs::ReadTicks() - start);
  };

  obs::CounterSample txn_start;
  if (counters != nullptr) txn_start = counters->Read();
  auto t2 = Clock::now();
  for (size_t op = 0; op < txn_ops; ++op) {
    double p = rng.NextDouble();
    if (p < spec.read) {
      if (batch > 1) {
        pending.push_back(static_cast<uint32_t>(pick_record()));
        if (pending.size() >= batch) flush_reads();
        continue;
      }
      timed_op(&RunObservers::read, [&] {
        if (!adapter.LookupRecord(pick_record())) ++result.failed_ops;
      });
    } else if (p < spec.read + spec.update) {
      flush_reads();
      timed_op(&RunObservers::update, [&] {
        if (!adapter.UpdateRecord(pick_record(), op)) ++result.failed_ops;
      });
    } else if (p < spec.read + spec.update + spec.rmw) {
      flush_reads();
      timed_op(&RunObservers::rmw, [&] {
        size_t r = pick_record();
        if (!adapter.LookupRecord(r)) ++result.failed_ops;
        adapter.UpdateRecord(r, op);
      });
    } else if (p < spec.read + spec.update + spec.rmw + spec.scan) {
      flush_reads();
      timed_op(&RunObservers::scan, [&] {
        size_t len = 1 + rng.NextBounded(spec.max_scan_len);
        adapter.ScanRecord(pick_record(), len);
      });
    } else {
      // insert
      flush_reads();
      if (next_insert < capacity) {
        timed_op(&RunObservers::insert, [&] {
          if (!adapter.InsertRecord(static_cast<uint32_t>(next_insert))) {
            ++result.failed_ops;
          }
        });
        ++next_insert;
        ++inserted;
      } else {
        // Ran out of pre-generated records: fall back to a read so the
        // op count stays comparable.
        timed_op(&RunObservers::read, [&] { adapter.LookupRecord(pick_record()); });
      }
    }
  }
  flush_reads();
  auto t3 = Clock::now();
  if (counters != nullptr) obs->txn_sample = counters->Read() - txn_start;
  result.txn_ops = txn_ops;
  result.txn_seconds = std::chrono::duration<double>(t3 - t2).count();
  return result;
}

}  // namespace ycsb
}  // namespace hot

#endif  // HOT_YCSB_WORKLOAD_H_

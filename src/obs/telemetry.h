// Index telemetry (observability tentpole, part 3): cheap always-on
// structural/runtime counters (obs/stat_counter.h), plus a quiescent-only
// snapshot that folds in the hot/stats.h node census.
//
// Three layers feed the snapshot:
//   * RowexCounters — writer-path events inside hot/rowex.h: validation
//     restarts, copy-on-write node replacements, leaf pushdowns and §4.4
//     in-place splices.  Incremented with relaxed atomics on the *write*
//     path only; the wait-free read path is untouched.
//   * EpochManager counters (common/epoch.h) — nodes retired into limbo vs
//     nodes physically reclaimed; their difference is the obsolete-node
//     backlog, and the distance between the global epoch and the oldest
//     limbo entry is the reclamation lag.
//   * NodePool counters (hot/node_pool.h) — free-list hits vs fresh arena
//     carves on the copy-on-write allocation path, plus cross-stripe
//     steals (blocks recycled by another thread's stripe).
//
// `CollectTelemetry(trie)` works on any index exposing ForEachNode and
// picks up whichever of the optional surfaces (rowex_counters / epochs /
// pool_stats) the index has, so HotTrie and RowexHotTrie share one
// reporting path.  Snapshots are quiescent-only: no concurrent writer may
// run while the census walks the tree.

#ifndef HOT_OBS_TELEMETRY_H_
#define HOT_OBS_TELEMETRY_H_

#include <cstdint>
#include <sstream>
#include <string>

#include "hot/stats.h"
#include "obs/stat_counter.h"

namespace hot {
namespace obs {

// Writer-path event counters embedded in RowexHotTrie.
struct RowexCounters {
  StatCounter writer_restarts;   // step-(c) validation failures → retry
  StatCounter cow_replacements;  // nodes superseded copy-on-write
  StatCounter leaf_pushdowns;    // tid slot replaced by a height-1 node
  StatCounter fast_splices;      // §4.4 in-place physical inserts
};

// One quiescent snapshot of everything the index can report about itself.
struct TelemetrySnapshot {
  // RowexCounters (zero for single-threaded tries).
  uint64_t writer_restarts = 0;
  uint64_t cow_replacements = 0;
  uint64_t leaf_pushdowns = 0;
  uint64_t fast_splices = 0;

  // Epoch reclamation (zero for unsynchronized tries).
  uint64_t nodes_retired = 0;
  uint64_t nodes_reclaimed = 0;
  uint64_t retire_backlog = 0;    // live limbo entries right now
  uint64_t global_epoch = 0;
  uint64_t reclamation_lag = 0;   // epochs since the oldest limbo entry

  // Node pool.
  uint64_t pool_hits = 0;    // allocations served from a free list
  uint64_t pool_carves = 0;  // allocations bump-carved from an arena chunk
  uint64_t pool_steals = 0;  // hits whose blocks came from a sibling stripe

  // Structure (hot/stats.h census): per-layout node counts, bytes, fill.
  NodeCensus census;

  // Entries stored per kMaxFanout-slot node, tree-wide.
  double FillFactor() const {
    return census.nodes == 0
               ? 0.0
               : static_cast<double>(census.total_entries) /
                     static_cast<double>(census.nodes * kMaxFanout);
  }

  std::string Summary() const {
    std::ostringstream oss;
    oss << "restarts=" << writer_restarts << " cow=" << cow_replacements
        << " pushdowns=" << leaf_pushdowns << " splices=" << fast_splices
        << " retired=" << nodes_retired << " reclaimed=" << nodes_reclaimed
        << " backlog=" << retire_backlog << " lag=" << reclamation_lag
        << " pool_hits=" << pool_hits << " pool_carves=" << pool_carves
        << " pool_steals=" << pool_steals
        << " nodes=" << census.nodes << " fill=" << FillFactor();
    return oss.str();
  }
};

// Quiescent-only: walks the tree for the census and reads whichever
// counter surfaces the index exposes.
template <typename Trie>
TelemetrySnapshot CollectTelemetry(const Trie& trie) {
  TelemetrySnapshot s;
  s.census = ComputeNodeCensus(trie);
  if constexpr (requires { trie.rowex_counters(); }) {
    const RowexCounters& c = trie.rowex_counters();
    s.writer_restarts = c.writer_restarts.value();
    s.cow_replacements = c.cow_replacements.value();
    s.leaf_pushdowns = c.leaf_pushdowns.value();
    s.fast_splices = c.fast_splices.value();
  }
  if constexpr (requires { trie.epochs(); }) {
    const auto* em = trie.epochs();
    s.nodes_retired = em->retired_total();
    s.nodes_reclaimed = em->reclaimed_total();
    s.retire_backlog = em->RetiredCount();
    s.global_epoch = em->global_epoch();
    uint64_t oldest = em->OldestRetiredEpoch();
    s.reclamation_lag =
        (s.retire_backlog == 0 || oldest > s.global_epoch)
            ? 0
            : s.global_epoch - oldest;
  }
  if constexpr (requires { trie.pool_stats(); }) {
    auto p = trie.pool_stats();
    s.pool_hits = p.hits;
    s.pool_carves = p.carves;
    s.pool_steals = p.steals;
  }
  return s;
}

}  // namespace obs
}  // namespace hot

#endif  // HOT_OBS_TELEMETRY_H_

// obs/telemetry: the snapshot must be internally consistent — census
// identities that follow from the tree shape (every non-root node is
// referenced by exactly one parent entry), fill factors inside (0, 1],
// pool accounting covering every allocated node, and the epoch-reclamation
// chain cow_replacements >= nodes_retired >= nodes_reclaimed with the
// obsolete-node backlog draining to exactly zero after a quiesced
// CollectAll.

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/rowex.h"
#include "hot/trie.h"

namespace hot {
namespace {

using TrieU64 = HotTrie<U64KeyExtractor>;
using RowexU64 = RowexHotTrie<U64KeyExtractor>;

// Shape identities that hold for any quiescent snapshot of a trie holding
// `entries` keys: N tid slots plus one parent slot per non-root node.
void CheckCensus(const obs::TelemetrySnapshot& s, size_t entries) {
  ASSERT_GT(s.census.nodes, 0u);
  EXPECT_EQ(s.census.total_entries, entries + s.census.nodes - 1);

  uint64_t nodes_by_type = 0;
  uint64_t entries_by_type = 0;
  for (size_t t = 0; t < kNumNodeTypes; ++t) {
    nodes_by_type += s.census.count_by_type[t];
    entries_by_type += s.census.entries_by_type[t];
  }
  EXPECT_EQ(nodes_by_type, s.census.nodes);
  EXPECT_EQ(entries_by_type, s.census.total_entries);

  EXPECT_GT(s.FillFactor(), 0.0);
  EXPECT_LE(s.FillFactor(), 1.0);
}

TEST(Telemetry, HotTrieCensusAndPool) {
  TrieU64 trie;
  SplitMix64 rng(11);
  std::set<uint64_t> oracle;
  while (oracle.size() < 50000) {
    uint64_t v = rng.Next() >> 8;
    if (oracle.insert(v).second) trie.Insert(v);
  }

  obs::TelemetrySnapshot s = obs::CollectTelemetry(trie);
  CheckCensus(s, oracle.size());

  // Single-threaded trie: no ROWEX machinery, so those fields stay zero.
  EXPECT_EQ(s.writer_restarts, 0u);
  EXPECT_EQ(s.cow_replacements, 0u);
  EXPECT_EQ(s.nodes_retired, 0u);
  EXPECT_EQ(s.retire_backlog, 0u);

  // Every live node came out of the pool, either from a free list or a
  // fresh arena carve — and growth reallocations mean strictly more
  // allocations than live nodes.
  EXPECT_GT(s.pool_hits + s.pool_carves, s.census.nodes);
  EXPECT_GT(s.pool_carves, 0u);
  EXPECT_GT(s.pool_hits, 0u);  // 50k inserts certainly recycle nodes
  // A steal is a flavor of free-list hit, never a separate allocation —
  // and a single-threaded run stays entirely within one stripe.
  EXPECT_LE(s.pool_steals, s.pool_hits);
  EXPECT_EQ(s.pool_steals, 0u);
}

TEST(Telemetry, SummaryMentionsEveryField) {
  TrieU64 trie;
  for (uint64_t v = 0; v < 100; ++v) trie.Insert(v);
  std::string s = obs::CollectTelemetry(trie).Summary();
  for (const char* field :
       {"restarts=", "cow=", "pushdowns=", "splices=", "retired=",
        "reclaimed=", "backlog=", "lag=", "pool_hits=", "pool_carves=",
        "pool_steals=", "nodes=", "fill="}) {
    EXPECT_NE(s.find(field), std::string::npos) << field << " in: " << s;
  }
}

// The ISSUE invariant chain, verified against a genuinely contended run:
// every retire is preceded by a COW-replacement count, every reclaim by a
// retire, and the backlog is exactly the difference — then drains to zero
// once the writers have quiesced and limbo is collected.
TEST(Telemetry, RowexInvariantChainUnderStress) {
  RowexU64 trie;
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kOps = 30000;
  constexpr uint64_t kKeySpace = 20000;  // overlapping: forces contention

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trie, t] {
      SplitMix64 rng(7000 + t);
      for (uint64_t i = 0; i < kOps; ++i) {
        uint64_t v = rng.NextBounded(kKeySpace);
        switch (rng.NextBounded(4)) {
          case 0:
          case 1:
            trie.Insert(v);
            break;
          case 2:
            trie.Lookup(U64Key(v).ref());
            break;
          case 3:
            trie.Remove(U64Key(v).ref());
            break;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Writers quiesced: the snapshot below is stable.

  obs::TelemetrySnapshot s = obs::CollectTelemetry(trie);
  size_t live = trie.size();
  ASSERT_GT(live, 0u);
  CheckCensus(s, live);

  EXPECT_GT(s.cow_replacements, 0u);
  EXPECT_GE(s.cow_replacements, s.nodes_retired);
  EXPECT_GE(s.nodes_retired, s.nodes_reclaimed);
  EXPECT_EQ(s.retire_backlog, s.nodes_retired - s.nodes_reclaimed);
  // Lag is bounded by the epoch clock itself.
  EXPECT_LE(s.reclamation_lag, s.global_epoch);

  // Drain limbo: with no writer in an epoch, everything must reclaim.
  trie.epochs()->CollectAll();
  obs::TelemetrySnapshot after = obs::CollectTelemetry(trie);
  EXPECT_EQ(after.retire_backlog, 0u);
  EXPECT_EQ(after.reclamation_lag, 0u);
  EXPECT_EQ(after.nodes_reclaimed, after.nodes_retired);
  EXPECT_EQ(after.nodes_retired, s.nodes_retired);  // quiesced: no growth

  // The census must be untouched by reclamation (limbo nodes were already
  // unreachable).
  EXPECT_EQ(after.census.nodes, s.census.nodes);
  EXPECT_EQ(after.census.total_entries, s.census.total_entries);
}

TEST(Telemetry, RowexSingleThreadedCountersMoveAsExpected) {
  RowexU64 trie;
  SplitMix64 rng(19);
  std::set<uint64_t> oracle;
  for (int i = 0; i < 40000; ++i) {
    uint64_t v = rng.NextBounded(15000);
    if (rng.NextBounded(3) == 0) {
      trie.Remove(U64Key(v).ref());
      oracle.erase(v);
    } else {
      trie.Insert(v);
      oracle.insert(v);
    }
  }

  obs::TelemetrySnapshot s = obs::CollectTelemetry(trie);
  CheckCensus(s, oracle.size());

  // Uncontended: no validation restarts, but plenty of structural events.
  EXPECT_EQ(s.writer_restarts, 0u);
  EXPECT_GT(s.cow_replacements, 0u);
  EXPECT_GT(s.leaf_pushdowns, 0u);
  EXPECT_GT(s.fast_splices, 0u);
  EXPECT_GE(s.cow_replacements, s.nodes_retired);
  EXPECT_EQ(s.retire_backlog, s.nodes_retired - s.nodes_reclaimed);
}

}  // namespace
}  // namespace hot

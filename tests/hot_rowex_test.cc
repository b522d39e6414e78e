// Tests for the ROWEX-synchronized HOT trie (paper §5): single-threaded
// semantic equivalence with the unsynchronized trie, multi-threaded
// insert/lookup/remove mixes with full post-hoc verification, wait-free
// readers racing writers, and epoch-reclamation leak checks.

#include "hot/rowex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/trie.h"

namespace hot {
namespace {

using RowexU64 = RowexHotTrie<U64KeyExtractor>;

TEST(RowexHot, SingleThreadedBasics) {
  RowexU64 trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.Lookup(U64Key(1).ref()).has_value());
  EXPECT_TRUE(trie.Insert(42));
  EXPECT_FALSE(trie.Insert(42));
  EXPECT_EQ(trie.Lookup(U64Key(42).ref()).value(), 42u);
  EXPECT_TRUE(trie.Remove(U64Key(42).ref()));
  EXPECT_FALSE(trie.Remove(U64Key(42).ref()));
  EXPECT_TRUE(trie.empty());
}

TEST(RowexHot, SingleThreadedDifferential) {
  RowexU64 trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(17);
  for (int i = 0; i < 30000; ++i) {
    uint64_t v = rng.NextBounded(8000);
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        ASSERT_EQ(trie.Insert(v), oracle.insert(v).second);
        break;
      case 2:
        ASSERT_EQ(trie.Lookup(U64Key(v).ref()).has_value(),
                  oracle.count(v) > 0);
        break;
      case 3:
        ASSERT_EQ(trie.Remove(U64Key(v).ref()), oracle.erase(v) > 0);
        break;
    }
    ASSERT_EQ(trie.size(), oracle.size());
  }
}

TEST(RowexHot, ScansMatchOracle) {
  RowexU64 trie;
  std::set<uint64_t> oracle;
  SplitMix64 rng(23);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.Next() >> 1;
    trie.Insert(v);
    oracle.insert(v);
  }
  for (int probe = 0; probe < 200; ++probe) {
    uint64_t start = rng.Next() >> 1;
    std::vector<uint64_t> got;
    trie.ScanFrom(U64Key(start).ref(), 50,
                  [&](uint64_t v) { got.push_back(v); });
    std::vector<uint64_t> want;
    for (auto it = oracle.lower_bound(start);
         it != oracle.end() && want.size() < 50; ++it) {
      want.push_back(*it);
    }
    ASSERT_EQ(got, want) << start;
  }
}

TEST(RowexHot, ConcurrentDisjointInserts) {
  constexpr unsigned kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  RowexU64 trie;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trie, t] {
      SplitMix64 rng(1000 + t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        // Disjoint by construction: low bits carry the thread id.
        uint64_t v = ((rng.Next() >> 1) & ~0xFULL) | t;
        trie.Insert(v);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every inserted key must be findable.
  for (unsigned t = 0; t < kThreads; ++t) {
    SplitMix64 rng(1000 + t);
    for (uint64_t i = 0; i < kPerThread; ++i) {
      uint64_t v = ((rng.Next() >> 1) & ~0xFULL) | t;
      ASSERT_TRUE(trie.Lookup(U64Key(v).ref()).has_value()) << v;
    }
  }
}

TEST(RowexHot, ConcurrentContendedInserts) {
  // All threads insert from the same small key space: heavy lock conflicts
  // and duplicate races.  The final key set must be exactly the union.
  constexpr unsigned kThreads = 4;
  constexpr int kOps = 30000;
  RowexU64 trie;
  std::atomic<uint64_t> success_count{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(77 + t);
      uint64_t local = 0;
      for (int i = 0; i < kOps; ++i) {
        if (trie.Insert(rng.NextBounded(5000))) ++local;
      }
      success_count += local;
    });
  }
  for (auto& th : threads) th.join();
  // Exactly one success per distinct key.
  EXPECT_EQ(success_count.load(), trie.size());
  size_t present = 0;
  for (uint64_t v = 0; v < 5000; ++v) {
    if (trie.Lookup(U64Key(v).ref()).has_value()) ++present;
  }
  EXPECT_EQ(present, trie.size());
}

TEST(RowexHot, ReadersNeverBlockDuringWrites) {
  RowexU64 trie;
  for (uint64_t v = 0; v < 10000; ++v) trie.Insert(v * 16);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<int> read_errors{0};

  std::thread reader([&] {
    SplitMix64 rng(5);
    while (!stop) {
      uint64_t v = rng.NextBounded(10000) * 16;
      // Pre-loaded keys are never removed in this test: a miss is a bug.
      if (!trie.Lookup(U64Key(v).ref()).has_value()) ++read_errors;
      ++reads;
    }
  });
  std::thread scanner([&] {
    SplitMix64 rng(6);
    while (!stop) {
      uint64_t start = rng.NextBounded(10000) * 16;
      uint64_t prev = 0;
      bool first = true;
      trie.ScanFrom(U64Key(start).ref(), 20, [&](uint64_t v) {
        if (!first && v <= prev) ++read_errors;  // must stay sorted
        prev = v;
        first = false;
      });
    }
  });
  std::thread writer([&] {
    SplitMix64 rng(7);
    for (int i = 0; i < 50000; ++i) {
      uint64_t v = rng.Next() >> 1;
      if (v % 16 == 0) v += 1;  // stay off the pre-loaded lattice
      trie.Insert(v);
    }
    stop = true;
  });

  writer.join();
  reader.join();
  scanner.join();
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_GT(reads.load(), 0u);
}

TEST(RowexHot, ConcurrentInsertRemoveMixWithReaders) {
  constexpr unsigned kThreads = 3;
  RowexU64 trie;
  // Pre-populate a stable core that is never removed.
  for (uint64_t v = 0; v < 5000; ++v) trie.Insert(v * 32 + 31);

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(900 + t);
      for (int i = 0; i < 20000; ++i) {
        // Thread-owned key space for insert/remove churn.
        uint64_t v = (rng.NextBounded(2000) << 6) | (t << 2);
        if (rng.NextBounded(2) == 0) {
          trie.Insert(v);
        } else {
          trie.Remove(U64Key(v).ref());
        }
      }
    });
  }
  // Wait-free readers race the delete-heavy churn: stable-core lookups must
  // always hit, and scans must stay sorted (they may surface churned keys).
  std::thread reader([&] {
    SplitMix64 rng(1);
    while (!stop) {
      uint64_t v = rng.NextBounded(5000) * 32 + 31;
      if (!trie.Lookup(U64Key(v).ref()).has_value()) ++reader_errors;
      uint64_t prev = 0;
      bool first = true;
      trie.ScanFrom(U64Key(v).ref(), 16, [&](uint64_t got) {
        if (!first && got <= prev) ++reader_errors;
        prev = got;
        first = false;
      });
    }
  });
  for (auto& th : threads) th.join();
  stop = true;
  reader.join();
  EXPECT_EQ(reader_errors.load(), 0);

  // The stable core must be intact.
  for (uint64_t v = 0; v < 5000; ++v) {
    ASSERT_TRUE(trie.Lookup(U64Key(v * 32 + 31).ref()).has_value()) << v;
  }
}

TEST(RowexHot, StringKeysConcurrent) {
  std::vector<std::string> table;
  SplitMix64 seed_rng(3);
  for (int i = 0; i < 40000; ++i) {
    table.push_back("user-" + std::to_string(seed_rng.Next() % 10000000) +
                    "@host" + std::to_string(i % 97) + ".example.org");
  }
  RowexHotTrie<StringTableExtractor> trie{StringTableExtractor(&table)};
  constexpr unsigned kThreads = 4;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < table.size(); i += kThreads) {
        trie.Insert(i);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Duplicate strings may exist in the table; verify every string resolves.
  for (const auto& s : table) {
    ASSERT_TRUE(trie.Lookup(TerminatedView(s)).has_value()) << s;
  }
}

TEST(RowexHot, MemoryReclaimedAfterChurn) {
  MemoryCounter counter;
  {
    RowexU64 trie{U64KeyExtractor(), &counter};
    SplitMix64 rng(11);
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 5000; ++i) trie.Insert(rng.NextBounded(20000));
      for (int i = 0; i < 5000; ++i) {
        trie.Remove(U64Key(rng.NextBounded(20000)).ref());
      }
    }
    // Retired nodes are reclaimed once no epoch pins them.
    trie.epochs()->CollectAll();
    // live_bytes now reflects only reachable nodes; sanity: bounded by a
    // small multiple of the key count.
    EXPECT_LT(counter.live_bytes(), 20000u * 64u);
  }
}

// The tree as ForEachNode sees it: (depth, layout, entry count, height) of
// every node, in visit order.
template <typename Trie>
std::vector<std::tuple<unsigned, NodeType, unsigned, unsigned>> Shape(
    const Trie& trie) {
  std::vector<std::tuple<unsigned, NodeType, unsigned, unsigned>> shape;
  trie.ForEachNode([&](NodeRef node, unsigned depth) {
    shape.emplace_back(depth, node.type(), node.count(), node.height());
  });
  return shape;
}

TEST(RowexHot, AgreesWithSingleThreadedStructureSemantics) {
  // After a fully serialized (single-threaded) workload, the ROWEX trie
  // must answer exactly like the plain trie and hold the same tree: the
  // same node sequence at every checkpoint, over small (churning) to large
  // key universes, with overwrites in the mix.
  for (uint64_t universe : {600u, 6000u, 60000u}) {
    RowexU64 rowex;
    HotTrie<U64KeyExtractor> plain;
    SplitMix64 rng(29 + universe);
    for (int i = 1; i <= 30000; ++i) {
      uint64_t v = rng.NextBounded(universe);
      switch (rng.NextBounded(4)) {
        case 0:
          ASSERT_EQ(rowex.Remove(U64Key(v).ref()),
                    plain.Remove(U64Key(v).ref()));
          break;
        case 1:
          ASSERT_EQ(rowex.Upsert(v), plain.Upsert(v));
          break;
        default:
          ASSERT_EQ(rowex.Insert(v), plain.Insert(v));
          break;
      }
      if (i % 2500 == 0) {
        ASSERT_EQ(rowex.size(), plain.size());
        ASSERT_EQ(Shape(rowex), Shape(plain))
            << "universe " << universe << ", after op " << i;
        std::string err;
        ASSERT_TRUE(rowex.Validate(&err)) << err;
      }
    }
    plain.ScanFrom(KeyRef(), plain.size(), [&](uint64_t v) {
      EXPECT_TRUE(rowex.Lookup(U64Key(v).ref()).has_value()) << v;
    });
  }
}

}  // namespace
}  // namespace hot

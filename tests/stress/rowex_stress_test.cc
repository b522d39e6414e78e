// Deterministic multi-threaded stress driver for the ROWEX-synchronized HOT
// trie (paper §5), sized so sanitizer builds (-DHOT_SANITIZE=thread|address)
// finish in CI time.
//
// Shape: rounds of N writer threads (insert/delete/upsert over Zipfian key
// ranks) racing M reader threads (lookups and ordered scans).  Writers own
// disjoint key spaces — id = (zipfian rank << 4) | thread — so each writer
// keeps an exact local oracle while the tree structure itself is fully
// shared and contended.  At the end of every round all threads join
// (a quiesce point) and the main thread checks the global invariants:
//   * structural validity via ValidateHotTree (hot/validate.h)
//   * size() equals the sum of the writer oracles
//   * every oracle entry is present with its exact last-written version
//   * every key a writer removed is absent
//
// Reader-side invariants (checked while racing writers): a lookup hit
// returns a value with the probed key, and ordered scans yield strictly
// ascending keys starting at or after the scan origin.
//
// HOT_STRESS_OPS overrides the per-writer per-round operation count
// (default 8000; 4 writers x 4 rounds x 8000 > 100k operations).

#include "hot/rowex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "common/rng.h"

namespace hot {
namespace {

// Value layout: [version:23][id:40], bit 63 clear.  The key is the id alone,
// so Upsert with a new version overwrites the stored value in place.
constexpr unsigned kIdBits = 40;
constexpr uint64_t kIdMask = (1ULL << kIdBits) - 1;

struct VersionedExtractor {
  KeyRef operator()(uint64_t value, KeyScratch& scratch) const {
    EncodeU64(value & kIdMask, scratch.bytes);
    return KeyRef(scratch.bytes, 8);
  }
};

using StressTrie = RowexHotTrie<VersionedExtractor>;

uint64_t MakeValue(uint64_t id, uint64_t version) {
  return ((version & ((1ULL << 22) - 1)) << kIdBits) | id;
}

size_t OpsPerRound() {
  const char* s = std::getenv("HOT_STRESS_OPS");
  if (s != nullptr) {
    unsigned long long v = std::strtoull(s, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 8000;
}

struct WriterState {
  std::unordered_map<uint64_t, uint64_t> live;  // id -> last value
  std::unordered_set<uint64_t> touched;         // every id ever used
  uint64_t version = 1;
};

TEST(RowexStress, WritersAndReadersWithQuiesceValidation) {
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 4;
  constexpr size_t kRounds = 4;
  constexpr uint64_t kRanksPerWriter = 4096;
  const size_t ops_per_round = OpsPerRound();

  StressTrie trie;
  std::vector<WriterState> states(kWriters);

  for (size_t round = 0; round < kRounds; ++round) {
    std::atomic<bool> stop_readers{false};

    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        SplitMix64 rng(0x9000 + round * 131 + r);
        ZipfianGenerator zipf(kRanksPerWriter, 0.99, 0x77 + r);
        while (!stop_readers.load(std::memory_order_acquire)) {
          uint64_t id = (zipf.Next() << 4) | rng.NextBounded(kWriters);
          if (rng.NextBounded(4) != 0) {
            auto hit = trie.Lookup(U64Key(id).ref());
            if (hit.has_value()) {
              EXPECT_EQ(*hit & kIdMask, id);
            }
          } else {
            uint64_t prev_id = 0;
            bool first = true;
            size_t n = trie.ScanFrom(U64Key(id).ref(), 32, [&](uint64_t v) {
              uint64_t got = v & kIdMask;
              if (first) {
                EXPECT_GE(got, id);
              } else {
                EXPECT_GT(got, prev_id);
              }
              prev_id = got;
              first = false;
            });
            EXPECT_LE(n, 32u);
          }
        }
      });
    }

    std::vector<std::thread> writers;
    for (size_t t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        WriterState& st = states[t];
        SplitMix64 rng(0x1000 + round * 17 + t);
        ZipfianGenerator zipf(kRanksPerWriter, 0.99, round * 31 + t + 1);
        for (size_t op = 0; op < ops_per_round; ++op) {
          uint64_t id = (zipf.Next() << 4) | t;
          st.touched.insert(id);
          uint64_t roll = rng.NextBounded(10);
          if (roll < 4) {  // insert
            uint64_t v = MakeValue(id, st.version++);
            bool inserted = trie.Insert(v);
            EXPECT_EQ(inserted, st.live.count(id) == 0)
                << "insert disagreed with oracle for id " << id;
            if (inserted) st.live[id] = v;
          } else if (roll < 7) {  // upsert
            uint64_t v = MakeValue(id, st.version++);
            auto prev = trie.Upsert(v);
            auto it = st.live.find(id);
            if (it != st.live.end()) {
              ASSERT_TRUE(prev.has_value());
              EXPECT_EQ(*prev, it->second)
                  << "upsert returned a stale value for id " << id;
            } else {
              EXPECT_FALSE(prev.has_value());
            }
            st.live[id] = v;
          } else {  // remove
            bool removed = trie.Remove(U64Key(id).ref());
            EXPECT_EQ(removed, st.live.erase(id) > 0)
                << "remove disagreed with oracle for id " << id;
          }
        }
      });
    }

    for (auto& th : writers) th.join();
    stop_readers.store(true, std::memory_order_release);
    for (auto& th : readers) th.join();

    // Quiesce point: no concurrent threads; check global invariants.
    std::string err;
    ASSERT_TRUE(trie.Validate(&err)) << "round " << round << ": " << err;
    size_t expected = 0;
    for (const auto& st : states) expected += st.live.size();
    EXPECT_EQ(trie.size(), expected);
    for (const auto& st : states) {
      for (const auto& [id, v] : st.live) {
        auto hit = trie.Lookup(U64Key(id).ref());
        ASSERT_TRUE(hit.has_value()) << "live id " << id << " missing";
        EXPECT_EQ(*hit, v) << "stale version for id " << id;
      }
      for (uint64_t id : st.touched) {
        if (st.live.count(id) != 0) continue;
        EXPECT_FALSE(trie.Lookup(U64Key(id).ref()).has_value())
            << "removed id " << id << " still present";
      }
    }
  }
}

// Batched readers (LookupBatch: one epoch guard covering an interleaved
// AMAC descent of the whole group, hot/batch_lookup.h) racing writers that
// continuously replace nodes copy-on-write.  Any hit must carry the probed
// key's id — the batch must never surface a torn or reclaimed entry.  This
// is the sanitizer-tier gate for the memory-level-parallel lookup path.
TEST(RowexStress, BatchedReadersRacingWriters) {
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 4;
  constexpr uint64_t kRanksPerWriter = 4096;
  constexpr size_t kBatch = 32;
  const size_t ops = OpsPerRound();

  StressTrie trie;
  // Pre-populate half of each writer's id space so batches see real hits
  // from the first iteration.
  for (uint64_t rank = 0; rank < kRanksPerWriter; rank += 2) {
    for (uint64_t t = 0; t < kWriters; ++t) {
      trie.Insert(MakeValue((rank << 4) | t, 0));
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SplitMix64 rng(0xcc00 + r);
      ZipfianGenerator zipf(kRanksPerWriter, 0.99, 0x33 + r);
      uint64_t ids[kBatch];
      uint8_t bytes[kBatch * 8];
      std::vector<KeyRef> keys(kBatch);
      std::vector<std::optional<uint64_t>> out(kBatch);
      while (!stop.load(std::memory_order_acquire)) {
        // Vary the batch size and interleave width every round so partial
        // tail groups and width-1 degeneration race writers too.
        size_t n = 1 + rng.NextBounded(kBatch);
        unsigned width = 1 + static_cast<unsigned>(rng.NextBounded(16));
        for (size_t i = 0; i < n; ++i) {
          ids[i] = (zipf.Next() << 4) | rng.NextBounded(kWriters);
          EncodeU64(ids[i], &bytes[i * 8]);
          keys[i] = KeyRef(&bytes[i * 8], 8);
        }
        trie.LookupBatch(std::span<const KeyRef>(keys.data(), n),
                         std::span<std::optional<uint64_t>>(out.data(), n),
                         width);
        for (size_t i = 0; i < n; ++i) {
          if (out[i].has_value()) {
            EXPECT_EQ(*out[i] & kIdMask, ids[i]);
          }
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      SplitMix64 rng(0xdd00 + t);
      ZipfianGenerator zipf(kRanksPerWriter, 0.99, 0x55 + t);
      uint64_t version = 1;
      for (size_t op = 0; op < ops; ++op) {
        uint64_t id = (zipf.Next() << 4) | t;
        switch (rng.NextBounded(3)) {
          case 0:
            trie.Insert(MakeValue(id, version++));
            break;
          case 1:
            trie.Upsert(MakeValue(id, version++));
            break;
          case 2:
            trie.Remove(U64Key(id).ref());
            break;
        }
      }
    });
  }

  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  std::string err;
  EXPECT_TRUE(trie.Validate(&err)) << err;

  // Post-quiesce: batched and scalar lookups agree exactly.
  std::vector<uint8_t> bytes(kRanksPerWriter * kWriters * 8);
  std::vector<KeyRef> keys(kRanksPerWriter * kWriters);
  std::vector<std::optional<uint64_t>> out(keys.size());
  size_t i = 0;
  for (uint64_t rank = 0; rank < kRanksPerWriter; ++rank) {
    for (uint64_t t = 0; t < kWriters; ++t, ++i) {
      EncodeU64((rank << 4) | t, &bytes[i * 8]);
      keys[i] = KeyRef(&bytes[i * 8], 8);
    }
  }
  trie.LookupBatch(keys, out);
  for (size_t k = 0; k < keys.size(); ++k) {
    EXPECT_EQ(out[k], trie.Lookup(keys[k]));
  }
}

// Readers hammering a handful of hot keys that writers continuously remove
// and re-insert: maximizes copy-on-write replacement of the same slots, the
// worst case for premature reclamation (ASan) and slot races (TSan).
TEST(RowexStress, HotSpotChurn) {
  constexpr size_t kWriters = 4;
  constexpr size_t kReaders = 4;
  constexpr uint64_t kHotKeys = 64;
  const size_t ops = OpsPerRound();

  StressTrie trie;
  for (uint64_t id = 0; id < kHotKeys; ++id) {
    ASSERT_TRUE(trie.Insert(MakeValue((id << 4) | (id % kWriters), 0)));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      SplitMix64 rng(0xaa + r);
      while (!stop.load(std::memory_order_acquire)) {
        uint64_t hot = rng.NextBounded(kHotKeys);
        uint64_t id = (hot << 4) | (hot % kWriters);
        auto hit = trie.Lookup(U64Key(id).ref());
        if (hit.has_value()) {
          EXPECT_EQ(*hit & kIdMask, id);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      SplitMix64 rng(0xbb + t);
      uint64_t version = 1;
      for (size_t op = 0; op < ops; ++op) {
        // Each writer churns its own residue class of the hot set.
        uint64_t hot = rng.NextBounded(kHotKeys / kWriters) * kWriters + t;
        uint64_t id = (hot << 4) | (hot % kWriters);
        switch (rng.NextBounded(3)) {
          case 0:
            trie.Remove(U64Key(id).ref());
            break;
          case 1:
            trie.Insert(MakeValue(id, version++));
            break;
          case 2:
            trie.Upsert(MakeValue(id, version++));
            break;
        }
      }
    });
  }

  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  std::string err;
  EXPECT_TRUE(trie.Validate(&err)) << err;
}

// Targeted regression for the Upsert retry path (rowex.h: an overwrite
// whose leaf slot changed after the descent found the key — a concurrent
// Remove won the race — must restart, and may then insert the key
// afresh).  One upserter and one remover hammer the SAME small key set, so
// nearly every upsert takes that contested path.  Presence accounting: an
// upsert that returns nullopt is an insert event (absent -> present), a
// successful remove is a delete event (present -> absent), and overwrites
// don't change presence — so for every key, at quiesce,
//     inserts - removes ∈ {0, 1}   and   present == (inserts - removes).
// A key present with inserts == removes RESURRECTED after a successful
// Remove returned; a key absent with inserts == removes + 1 LOST an upsert.
// Afterwards, with no concurrent writers, removing every live key must
// empty the trie for good.
TEST(RowexStress, UpsertVsRemoveRace) {
  constexpr size_t kPairs = 4;        // independent upserter/remover pairs
  constexpr uint64_t kKeysPerPair = 16;  // few keys = maximal contention
  const size_t ops = OpsPerRound();

  StressTrie trie;
  // inserts[k] written only by the pair's upserter, removes[k] only by its
  // remover; the joins below are the synchronization points.
  std::vector<uint64_t> inserts(kPairs * kKeysPerPair, 0);
  std::vector<uint64_t> removes(kPairs * kKeysPerPair, 0);
  auto id_of = [](size_t pair, uint64_t slot) {
    return (slot << 4) | pair;  // writer-id layout, disjoint across pairs
  };

  std::vector<std::thread> threads;
  for (size_t pair = 0; pair < kPairs; ++pair) {
    threads.emplace_back([&, pair] {  // upserter
      SplitMix64 rng(0xe100 + pair);
      uint64_t version = 1;
      for (size_t op = 0; op < ops; ++op) {
        uint64_t slot = rng.NextBounded(kKeysPerPair);
        uint64_t id = id_of(pair, slot);
        auto prev = trie.Upsert(MakeValue(id, version++));
        if (prev.has_value()) {
          // Overwrites must return a value for the SAME key, never one
          // spliced into a node the remover already retired.
          ASSERT_EQ(*prev & kIdMask, id);
        } else {
          ++inserts[pair * kKeysPerPair + slot];
        }
      }
    });
    threads.emplace_back([&, pair] {  // remover
      SplitMix64 rng(0xe200 + pair);
      for (size_t op = 0; op < ops; ++op) {
        uint64_t slot = rng.NextBounded(kKeysPerPair);
        if (trie.Remove(U64Key(id_of(pair, slot)).ref())) {
          ++removes[pair * kKeysPerPair + slot];
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  std::string err;
  ASSERT_TRUE(trie.Validate(&err)) << err;
  size_t expected_live = 0;
  for (size_t pair = 0; pair < kPairs; ++pair) {
    for (uint64_t slot = 0; slot < kKeysPerPair; ++slot) {
      uint64_t id = id_of(pair, slot);
      uint64_t i = inserts[pair * kKeysPerPair + slot];
      uint64_t d = removes[pair * kKeysPerPair + slot];
      ASSERT_LE(d, i) << "key " << id << ": more removes than inserts";
      ASSERT_LE(i - d, 1u) << "key " << id << ": impossible presence count";
      bool present = trie.Lookup(U64Key(id).ref()).has_value();
      if (i - d == 1) {
        EXPECT_TRUE(present) << "key " << id << " lost an upsert (inserts="
                             << i << ", removes=" << d << ")";
        ++expected_live;
      } else {
        EXPECT_FALSE(present)
            << "key " << id << " resurrected after a successful Remove "
            << "(inserts=" << i << ", removes=" << d << ")";
      }
    }
  }
  EXPECT_EQ(trie.size(), expected_live);

  // Quiesced drain: every successful Remove must be final.
  for (size_t pair = 0; pair < kPairs; ++pair) {
    for (uint64_t slot = 0; slot < kKeysPerPair; ++slot) {
      uint64_t id = id_of(pair, slot);
      if (trie.Lookup(U64Key(id).ref()).has_value()) {
        ASSERT_TRUE(trie.Remove(U64Key(id).ref()));
      }
      EXPECT_FALSE(trie.Lookup(U64Key(id).ref()).has_value())
          << "key " << id << " present after quiesced Remove";
    }
  }
  EXPECT_EQ(trie.size(), 0u);
  ASSERT_TRUE(trie.Validate(&err)) << err;
}

}  // namespace
}  // namespace hot

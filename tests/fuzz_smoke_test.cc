// Fixed-seed differential fuzzing smoke tier (ISSUE tentpole check #4 /
// ctest label "fuzz-smoke").  Every index replays >= 1e6 mixed operations
// (insert/upsert/remove/lookup/lower_bound/scan/bulk-load) against the
// binary Patricia oracle, with the deep structural audit — full-scan diff,
// batched-descent cross-check, audit.h / CheckStructure, height
// differential — every 1e5 operations.  Seeds are fixed, so a failure here
// is a deterministic repro: the trace can be regenerated with fuzz_replay
// --record and shrunk with --shrink.
//
// HOT_SMOKE_OPS scales the per-index budget (default 1000000); sanitizer
// CI lanes inherit the default and stay within the ctest timeout.
//
// The ROWEX arm additionally runs a concurrent phase (1 writer, 2 readers)
// so the ThreadSanitizer lane observes real interleavings before the
// quiesced differential + structural audit.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "common/rng.h"
#include "hot/rowex.h"
#include "testing/audit.h"
#include "testing/differ.h"
#include "testing/trace.h"

namespace hot {
namespace testing {
namespace {

size_t SmokeOps() {
  if (const char* env = std::getenv("HOT_SMOKE_OPS")) {
    size_t v = static_cast<size_t>(std::strtoull(env, nullptr, 10));
    if (v > 0) return v;
  }
  return 1000000;
}

// Splits the op budget over keyspace shapes that stress different layouts:
// sparse integers, shared prefixes, engineered multi-mask discriminative
// bits, and the paper's integer dataset.  `scan_heavy` swaps the default op
// mix for a YCSB-workload-E-shaped one (scans + lower_bounds dominate, the
// rest mostly inserts).
void RunSmoke(const char* index_name, bool scan_heavy = false) {
  static const KeySpaceKind kKinds[] = {
      KeySpaceKind::kUniform, KeySpaceKind::kPrefix, KeySpaceKind::kAdvMulti8,
      KeySpaceKind::kInteger};
  constexpr unsigned kNumKinds = 4;
  const size_t per_kind = (SmokeOps() + kNumKinds - 1) / kNumKinds;
  size_t executed = 0;
  for (unsigned k = 0; k < kNumKinds; ++k) {
    TraceGenConfig cfg;
    cfg.kind = kKinds[k];
    cfg.n = 4096;
    cfg.seed = 20260806 + 31 * k;
    cfg.num_ops = per_kind;
    cfg.audit_every = 100000;
    cfg.zipf_pick = (k % 2) == 1;
    if (scan_heavy) {
      cfg.w_scan = 40;
      cfg.w_lower_bound = 15;
      cfg.w_insert = 25;
      cfg.w_remove = 10;
      cfg.w_lookup = 7;
      cfg.w_upsert = 3;
    }
    Trace t = GenerateTrace(cfg);
    DiffResult res = RunTraceOnIndex(index_name, t);
    ASSERT_TRUE(res.ok) << index_name << " on "
                        << KeySpaceKindName(cfg.kind) << " seed " << cfg.seed
                        << ": " << res.Describe()
                        << "\nrepro: fuzz_replay --record t.trace --kind "
                        << KeySpaceKindName(cfg.kind) << " --n " << cfg.n
                        << " --seed " << cfg.seed << " --ops " << per_kind
                        << (cfg.zipf_pick ? " --zipf" : "")
                        << (scan_heavy ? " --mix scan-heavy" : "")
                        << " --audit-every 100000";
    executed += res.ops_executed;
  }
  EXPECT_GE(executed, SmokeOps());
}

TEST(FuzzSmoke, Hot) { RunSmoke("hot"); }
TEST(FuzzSmoke, Rowex) { RunSmoke("rowex"); }
TEST(FuzzSmoke, Art) { RunSmoke("art"); }
TEST(FuzzSmoke, Masstree) { RunSmoke("masstree"); }
TEST(FuzzSmoke, Btree) { RunSmoke("btree"); }

// The scan-heavy mix on the trie kv_server scans: same >= 1e6-op budget.
TEST(FuzzSmoke, RowexScanHeavy) { RunSmoke("rowex", true); }

// Concurrent ROWEX arm: one writer churns a fixed-seed key set while two
// readers probe and scan.  Readers check the invariants that hold mid-race
// (a hit returns the probed value; scans ascend); the quiesced end state is
// diffed against a replayed oracle and deep-audited.
TEST(FuzzSmoke, RowexConcurrentReaders) {
  const size_t kWriterOps = std::min<size_t>(SmokeOps() / 5, 200000);
  constexpr size_t kKeys = 8192;
  RowexHotTrie<U64KeyExtractor> trie{U64KeyExtractor()};
  std::atomic<bool> done{false};

  auto reader = [&](uint64_t seed) {
    SplitMix64 rng(seed);
    while (!done.load(std::memory_order_acquire)) {
      uint64_t probe = rng.NextBounded(kKeys) * 0x100003ULL;
      U64Key kb(probe);
      std::optional<uint64_t> hit = trie.Lookup(kb.ref());
      if (hit.has_value()) {
        // U64KeyExtractor keys are the value bytes: a hit must echo the
        // probed value exactly.
        ASSERT_EQ(*hit, probe);
      }
      uint64_t last = 0;
      bool first = true;
      trie.ScanFrom(kb.ref(), 32, [&](uint64_t v) {
        if (!first) {
          ASSERT_GT(v, last);
        }
        ASSERT_GE(v, probe);
        last = v;
        first = false;
      });
    }
  };

  std::thread r1(reader, 0xabc1);
  std::thread r2(reader, 0xabc2);
  SplitMix64 rng(0xfeed);
  for (size_t i = 0; i < kWriterOps; ++i) {
    uint64_t v = rng.NextBounded(kKeys) * 0x100003ULL;
    unsigned roll = static_cast<unsigned>(rng.NextBounded(4));
    if (roll < 3) {
      trie.Insert(v);
    } else {
      U64Key kb(v);
      trie.Remove(kb.ref());
    }
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  // Quiesced: replay the writer sequence into an exact oracle.
  std::set<uint64_t> oracle;
  SplitMix64 replay(0xfeed);
  for (size_t i = 0; i < kWriterOps; ++i) {
    uint64_t v = replay.NextBounded(kKeys) * 0x100003ULL;
    unsigned roll = static_cast<unsigned>(replay.NextBounded(4));
    if (roll < 3) {
      oracle.insert(v);
    } else {
      oracle.erase(v);
    }
  }
  ASSERT_EQ(trie.size(), oracle.size());
  std::vector<uint64_t> got;
  got.reserve(oracle.size());
  trie.ScanFrom(KeyRef(), oracle.size() + 1,
                [&](uint64_t v) { got.push_back(v); });
  std::vector<uint64_t> want(oracle.begin(), oracle.end());
  ASSERT_EQ(got, want);
  AuditStats stats;
  std::string err;
  ASSERT_TRUE(AuditHotTree(trie.root_entry(), trie.extractor(), trie.size(),
                           &stats, &err))
      << err;
}

}  // namespace
}  // namespace testing
}  // namespace hot

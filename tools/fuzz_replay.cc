// Differential fuzzing driver (tentpole check #4).
//
//   fuzz_replay --selftest
//       serialization round-trip + a small differential on every index
//   fuzz_replay --record out.trace --kind uniform --n 4096 --seed 7
//              [--ops 20000] [--zipf] [--audit-every 1000]
//              [--mix default|scan-heavy|workload-e]
//       generate a deterministic trace and write it to a file
//   fuzz_replay --replay in.trace
//              [--index all|hot|rowex|art|masstree|btree]
//       replay a trace file differentially; exit 1 on divergence
//   fuzz_replay --replay in.trace --net [--scalar]
//       replay the trace through a LOOPBACK KV SERVER (src/net) instead of
//       in-process adapters: every op crosses the wire protocol, lookups
//       are pipelined into the server's batch drain, and every reply is
//       diffed against the Patricia oracle (--scalar forces the server's
//       scalar drain path)
//   fuzz_replay --shrink in.trace --index hot --out min.trace
//       greedily minimize a failing trace
//   fuzz_replay --long [--rounds N] [--ops M] [--seed S] [--out-dir DIR]
//       fuzz campaign: random (kind, seed, mix) rounds across all indexes;
//       failing traces are shrunk and written to DIR (default .)
//   fuzz_replay --persist DIR [--kind K --n N --seed S --ops M]
//              [--crash-points C]
//       durability differential (DESIGN.md §13): replay the trace's
//       mutations into a real WAL in DIR (with two mid-stream snapshot
//       cycles: rotate -> snapshot -> prune), then simulate C crashes by
//       truncating the tail segment at a random byte or flipping a random
//       bit, run RecoverImage on the damaged copy, and diff the recovered
//       image against the oracle prefix the surviving frames determine.
//       Because the tool knows every frame's byte extent, the surviving
//       LSN is PREDICTED, not read back — recovery must agree exactly.
//       Also reachable as --replay FILE --persist DIR to use a saved trace.
//
// Every mode is deterministic in its arguments: replaying the same file (or
// re-running the same --record flags) reproduces byte-identical traces and
// identical verdicts.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "net/net_differ.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "testing/differ.h"
#include "testing/shrink.h"
#include "testing/trace.h"

namespace {

using hot::testing::DiffOptions;
using hot::testing::DiffResult;
using hot::testing::GenerateTrace;
using hot::testing::KeySpaceKind;
using hot::testing::KeySpaceKindFromName;
using hot::testing::KeySpaceKindName;
using hot::testing::kIndexNames;
using hot::testing::kNumIndexes;
using hot::testing::kNumKeySpaceKinds;
using hot::testing::RunTraceOnIndex;
using hot::testing::ShrinkStats;
using hot::testing::ShrinkTrace;
using hot::testing::Trace;
using hot::testing::TraceGenConfig;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --selftest | --record FILE [opts] | --replay FILE "
               "[--index NAME] | --shrink FILE --index NAME --out FILE | "
               "--long [opts] | --persist DIR [opts] [--crash-points C]\n",
               argv0);
  return 2;
}

struct Args {
  std::string mode;
  std::string file;
  std::string out = "min.trace";
  std::string out_dir = ".";
  std::string index = "all";
  std::string kind = "uniform";
  uint64_t n = 4096;
  uint64_t seed = 1;
  uint64_t ops = 20000;
  uint64_t rounds = 20;
  uint64_t audit_every = 1000;
  bool zipf = false;
  bool net = false;     // replay through the loopback KV server
  bool scalar = false;  // --net: force the server's scalar GET drain
  std::string mix = "default";
  std::string persist_dir;     // durability differential data directory
  uint64_t crash_points = 32;  // simulated crashes per --persist run
};

// Named op-weight presets.  "scan-heavy" skews toward range reads so the
// sharded arms cross splitter boundaries constantly; "workload-e" mirrors
// the YCSB E ratio (95% scan / 5% insert) as closely as the trace op set
// allows.  Returns false for an unknown name.
bool ApplyMix(const std::string& mix, TraceGenConfig* cfg) {
  if (mix == "default") return true;
  if (mix == "scan-heavy") {
    cfg->w_scan = 40;
    cfg->w_lower_bound = 15;
    cfg->w_insert = 25;
    cfg->w_remove = 10;
    cfg->w_lookup = 7;
    cfg->w_upsert = 3;
    return true;
  }
  if (mix == "workload-e") {
    cfg->w_scan = 90;
    cfg->w_lower_bound = 5;
    cfg->w_insert = 5;
    cfg->w_remove = 0;
    cfg->w_lookup = 0;
    cfg->w_upsert = 0;
    return true;
  }
  return false;
}

const char* kMixNames[] = {"default", "scan-heavy", "workload-e"};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--selftest" || arg == "--long") {
      a->mode = arg.substr(2);
    } else if (arg == "--record" || arg == "--replay" || arg == "--shrink") {
      a->mode = arg.substr(2);
      const char* v = need_value();
      if (v == nullptr) return false;
      a->file = v;
    } else if (arg == "--persist") {
      const char* v = need_value();
      if (v == nullptr) return false;
      a->persist_dir = v;
      if (a->mode.empty()) a->mode = "persist";
    } else if (arg == "--zipf") {
      a->zipf = true;
    } else if (arg == "--net") {
      a->net = true;
    } else if (arg == "--scalar") {
      a->scalar = true;
    } else {
      const char* v = need_value();
      if (v == nullptr) return false;
      if (arg == "--index") a->index = v;
      else if (arg == "--kind") a->kind = v;
      else if (arg == "--mix") a->mix = v;
      else if (arg == "--out") a->out = v;
      else if (arg == "--out-dir") a->out_dir = v;
      else if (arg == "--n") a->n = std::strtoull(v, nullptr, 10);
      else if (arg == "--seed") a->seed = std::strtoull(v, nullptr, 10);
      else if (arg == "--ops") a->ops = std::strtoull(v, nullptr, 10);
      else if (arg == "--rounds") a->rounds = std::strtoull(v, nullptr, 10);
      else if (arg == "--audit-every")
        a->audit_every = std::strtoull(v, nullptr, 10);
      else if (arg == "--crash-points")
        a->crash_points = std::strtoull(v, nullptr, 10);
      else {
        std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
        return false;
      }
    }
  }
  if (a->index != "all" &&
      std::find(std::begin(kIndexNames), std::end(kIndexNames), a->index) ==
          std::end(kIndexNames)) {
    std::fprintf(stderr, "unknown index %s\n", a->index.c_str());
    return false;
  }
  return !a->mode.empty();
}

// Runs the trace on one index or, for "all", every index; returns the
// number of failures and reports each.
int ReplayOn(const std::string& index, const Trace& trace) {
  int failures = 0;
  for (unsigned i = 0; i < kNumIndexes; ++i) {
    if (index != "all" && index != kIndexNames[i]) continue;
    DiffResult res = RunTraceOnIndex(kIndexNames[i], trace);
    std::printf("[%s] %s\n", kIndexNames[i], res.Describe().c_str());
    if (!res.ok) ++failures;
  }
  return failures;
}

int SelfTest() {
  // Byte-identical round-trip across every keyspace kind.
  for (unsigned k = 0; k < kNumKeySpaceKinds; ++k) {
    TraceGenConfig cfg;
    cfg.kind = static_cast<KeySpaceKind>(k);
    cfg.n = 256;
    cfg.seed = 42 + k;
    cfg.num_ops = 400;
    cfg.audit_every = 100;
    cfg.zipf_pick = (k % 2) == 1;
    Trace t = GenerateTrace(cfg);
    std::string text = t.Serialize();
    Trace back;
    std::string err;
    if (!Trace::Parse(text, &back, &err)) {
      std::fprintf(stderr, "selftest: parse failed for kind %s: %s\n",
                   KeySpaceKindName(cfg.kind), err.c_str());
      return 1;
    }
    if (back.Serialize() != text) {
      std::fprintf(stderr, "selftest: round-trip not byte-identical (%s)\n",
                   KeySpaceKindName(cfg.kind));
      return 1;
    }
    int failures = ReplayOn("all", t);
    if (failures != 0) {
      t.SaveFile("selftest-fail.trace");
      std::fprintf(stderr,
                   "selftest: %d differential failures (kind %s), trace "
                   "written to selftest-fail.trace\n",
                   failures, KeySpaceKindName(cfg.kind));
      return 1;
    }
  }
  std::printf("selftest ok\n");
  return 0;
}

int LongCampaign(const Args& a) {
  uint64_t total_ops = 0;
  int failures = 0;
  for (uint64_t round = 0; round < a.rounds; ++round) {
    TraceGenConfig cfg;
    cfg.kind = static_cast<KeySpaceKind>((a.seed + round) % kNumKeySpaceKinds);
    cfg.seed = a.seed * 1000003 + round;
    cfg.n = 512u << (round % 5);  // 512 .. 8192
    cfg.num_ops = a.ops;
    cfg.zipf_pick = (round % 3) == 0;
    cfg.audit_every = a.audit_every;
    // Cycle the op-mix presets so every campaign covers point-op-dominated
    // and scan-dominated traffic.
    const char* mix =
        kMixNames[(a.seed + round) % (sizeof(kMixNames) / sizeof(*kMixNames))];
    ApplyMix(mix, &cfg);
    Trace t = GenerateTrace(cfg);
    for (unsigned i = 0; i < kNumIndexes; ++i) {
      if (a.index != "all" && a.index != kIndexNames[i]) continue;
      DiffResult res = RunTraceOnIndex(kIndexNames[i], t);
      total_ops += res.ops_executed;
      if (res.ok) continue;
      ++failures;
      std::printf("round %" PRIu64 " [%s] %s\n", round, kIndexNames[i],
                  res.Describe().c_str());
      std::string name = kIndexNames[i];
      ShrinkStats st;
      Trace min = ShrinkTrace(
          t,
          [&](const Trace& cand) {
            return !RunTraceOnIndex(name, cand).ok;
          },
          &st);
      std::string path = a.out_dir + "/fail-" + name + "-" +
                         KeySpaceKindName(cfg.kind) + "-r" +
                         std::to_string(round) + ".trace";
      if (min.SaveFile(path)) {
        std::printf("  shrunk %zu -> %zu ops (%zu replays), wrote %s\n",
                    st.ops_before, st.ops_after, st.predicate_calls,
                    path.c_str());
      } else {
        std::printf("  could not write %s\n", path.c_str());
      }
    }
    if ((round + 1) % 10 == 0 || round + 1 == a.rounds) {
      std::printf("progress: %" PRIu64 "/%" PRIu64 " rounds, %" PRIu64
                  " ops executed, %d failures\n",
                  round + 1, a.rounds, total_ops, failures);
      std::fflush(stdout);
    }
  }
  return failures == 0 ? 0 : 1;
}

// --- durability differential (--persist) -------------------------------------

namespace persist_diff {

using hot::KeyRef;
namespace ps = hot::persist;

std::string KeyBytesOf(const hot::testing::KeySpace& ks, uint32_t idx) {
  if (ks.is_string) return ks.strings[idx];
  uint64_t v = ks.ints[idx];
  std::string k(8, '\0');
  for (int b = 0; b < 8; ++b) {
    k[b] = static_cast<char>(v >> (8 * (7 - b)));  // big-endian = key order
  }
  return k;
}

KeyRef Ref(const std::string& s) {
  return KeyRef(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

bool CopyFile(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  if (in == nullptr) return false;
  std::FILE* out = std::fopen(to.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    return false;
  }
  char buf[1 << 16];
  size_t n;
  bool ok = true;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    if (std::fwrite(buf, 1, n, out) != n) {
      ok = false;
      break;
    }
  }
  std::fclose(in);
  return std::fclose(out) == 0 && ok;
}

void WipeDataDir(const std::string& dir) {
  ::unlink(ps::SnapshotPath(dir).c_str());
  ::unlink(ps::SnapshotTmpPath(dir).c_str());
  for (const auto& [seq, path] : ps::ListWalSegments(dir)) {
    (void)seq;
    ::unlink(path.c_str());
  }
}

// One logged mutation; ops_log[lsn - 1] is the op the WAL stamped `lsn`.
struct LoggedOp {
  std::string key;
  uint64_t value;
  uint8_t op;
};

// Byte extent of one frame in the tail segment: a crash at byte X survives
// exactly the frames with end_off <= X.
struct FrameExtent {
  uint64_t end_off;
  uint64_t lsn;
};

std::map<std::string, uint64_t> OraclePrefix(
    const std::vector<LoggedOp>& ops_log, uint64_t last_lsn) {
  std::map<std::string, uint64_t> m;
  for (uint64_t i = 0; i < last_lsn && i < ops_log.size(); ++i) {
    if (ops_log[i].op == ps::kWalPut) {
      m[ops_log[i].key] = ops_log[i].value;
    } else {
      m.erase(ops_log[i].key);
    }
  }
  return m;
}

int Run(const Args& a, const hot::testing::Trace& t) {
  const std::string& dir = a.persist_dir;
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    std::fprintf(stderr, "--persist %s: not an existing directory\n",
                 dir.c_str());
    return 2;
  }
  const std::string crash_dir = dir + "/crash";
  ::mkdir(crash_dir.c_str(), 0755);
  WipeDataDir(dir);
  WipeDataDir(crash_dir);

  hot::testing::KeySpace ks = t.BuildKeys();
  // Key order of the space, for translating bulk-load ops into puts.
  std::vector<uint32_t> order(ks.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return KeyBytesOf(ks, x) < KeyBytesOf(ks, y);
  });

  // Phase 1: replay the trace's mutations into a real WAL, snapshotting
  // (rotate -> write -> prune) at the 1/3 and 2/3 marks so the final
  // directory holds a snapshot AND a live tail — the recovery shape with
  // the most moving parts.
  ps::Wal wal;
  ps::Wal::Options wopt;
  wopt.durability = ps::Durability::kNone;  // file bytes matter, fsync not
  std::string err;
  if (!wal.Open(dir, ps::WalResume(), wopt, &err)) {
    std::fprintf(stderr, "wal open: %s\n", err.c_str());
    return 1;
  }

  std::vector<LoggedOp> ops_log;
  std::map<std::string, uint64_t> oracle;
  std::vector<FrameExtent> tail_frames;  // frames of the CURRENT segment
  uint64_t tail_off = ps::kWalFileHeaderBytes;
  uint64_t snap_cut = 0;  // last snapshot's WAL cut

  auto append = [&](uint8_t op, const std::string& key, uint64_t value) {
    uint64_t lsn = wal.Append(op, Ref(key), value);
    ops_log.push_back({key, value, op});
    if (op == ps::kWalPut) {
      oracle[key] = value;
    } else {
      oracle.erase(key);
    }
    tail_off += ps::kWalFrameHeaderBytes + 13 + key.size() +
                (op == ps::kWalPut ? 8 : 0);
    tail_frames.push_back({tail_off, lsn});
  };
  int snaps = 0;
  auto snapshot_now = [&]() -> bool {
    err.clear();
    uint64_t cut = wal.Rotate(&err);
    if (!err.empty()) {
      std::fprintf(stderr, "wal rotate: %s\n", err.c_str());
      return false;
    }
    ps::SnapshotWriter w;
    if (!w.Open(ps::SnapshotPath(dir), &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return false;
    }
    for (const auto& [key, value] : oracle) w.Add(Ref(key), value);
    if (!w.Finish(cut, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return false;
    }
    wal.PruneBelowCurrent();
    snap_cut = cut;
    ++snaps;
    tail_frames.clear();
    tail_off = ps::kWalFileHeaderBytes;
    return true;
  };

  size_t mutations = 0;
  for (const hot::testing::Op& op : t.ops) {
    mutations += op.kind == hot::testing::OpKind::kInsert ||
                 op.kind == hot::testing::OpKind::kUpsert ||
                 op.kind == hot::testing::OpKind::kRemove ||
                 op.kind == hot::testing::OpKind::kBulkLoad;
  }
  size_t done = 0;
  for (const hot::testing::Op& op : t.ops) {
    switch (op.kind) {
      case hot::testing::OpKind::kInsert:
      case hot::testing::OpKind::kUpsert:
        append(ps::kWalPut, KeyBytesOf(ks, op.idx), ks.ValueOf(op.idx));
        break;
      case hot::testing::OpKind::kRemove:
        append(ps::kWalDelete, KeyBytesOf(ks, op.idx), 0);
        break;
      case hot::testing::OpKind::kBulkLoad:
        // The trace form bulk-loads the m key-smallest entries; logically
        // that is m puts, which is exactly how the WAL must see them.
        for (uint32_t i = 0; i < op.arg && i < order.size(); ++i) {
          append(ps::kWalPut, KeyBytesOf(ks, order[i]),
                 ks.ValueOf(order[i]));
        }
        break;
      default:
        continue;  // reads don't touch the log
    }
    ++done;
    if (mutations >= 3 &&
        (done == mutations / 3 || done == 2 * mutations / 3)) {
      if (!snapshot_now()) return 1;
    }
  }
  wal.Close();

  // Phase 2: C simulated crashes.  Copy the directory, damage the tail
  // segment (random truncation, or a random bit flip every 4th round),
  // predict the surviving LSN from the known frame extents, and demand
  // that RecoverImage agrees byte-for-byte with the oracle prefix.
  auto segments = ps::ListWalSegments(dir);
  if (segments.empty()) {
    std::fprintf(stderr, "persist: no tail segment after replay?\n");
    return 1;
  }
  const std::string tail_src = segments.back().second;
  const std::string tail_name =
      tail_src.substr(tail_src.rfind('/') + 1);
  struct stat tst;
  if (::stat(tail_src.c_str(), &tst) != 0) return 1;
  const uint64_t tail_size = static_cast<uint64_t>(tst.st_size);
  if (!tail_frames.empty() && tail_frames.back().end_off != tail_size) {
    std::fprintf(stderr,
                 "persist: frame accounting off (predicted %" PRIu64
                 " bytes, segment has %" PRIu64 ")\n",
                 tail_frames.back().end_off, tail_size);
    return 1;
  }
  bool have_snap = ::stat(ps::SnapshotPath(dir).c_str(), &tst) == 0;

  std::mt19937_64 rng(a.seed * 0x9E3779B97F4A7C15ull + 1);
  int failures = 0;
  for (uint64_t round = 0; round < a.crash_points; ++round) {
    WipeDataDir(crash_dir);
    if (have_snap &&
        !CopyFile(ps::SnapshotPath(dir), ps::SnapshotPath(crash_dir))) {
      return 1;
    }
    const std::string tail_dst = crash_dir + "/" + tail_name;
    if (!CopyFile(tail_src, tail_dst)) return 1;

    bool flip = round % 4 == 3 && tail_size > ps::kWalFileHeaderBytes;
    uint64_t at;
    bool expect_fail = false;
    uint64_t expect_lsn = snap_cut;
    if (flip) {
      at = ps::kWalFileHeaderBytes +
           rng() % (tail_size - ps::kWalFileHeaderBytes);
      std::FILE* f = std::fopen(tail_dst.c_str(), "r+b");
      if (f == nullptr) return 1;
      std::fseek(f, static_cast<long>(at), SEEK_SET);
      int byte = std::fgetc(f);
      std::fseek(f, static_cast<long>(at), SEEK_SET);
      std::fputc(byte ^ (1 << (rng() % 8)), f);
      std::fclose(f);
      // The frame containing the flipped byte fails its CRC; everything
      // before it survives, everything after is unreachable.
      for (const FrameExtent& fe : tail_frames) {
        if (fe.end_off <= at) expect_lsn = fe.lsn;
      }
    } else {
      at = rng() % (tail_size + 1);
      if (::truncate(tail_dst.c_str(), static_cast<off_t>(at)) != 0) {
        return 1;
      }
      if (at < ps::kWalFileHeaderBytes) {
        expect_fail = true;  // not even a segment header: hard error
      } else {
        for (const FrameExtent& fe : tail_frames) {
          if (fe.end_off <= at) expect_lsn = fe.lsn;
        }
      }
    }

    ps::RecoveryResult rec;
    std::string rerr;
    bool ok = ps::RecoverImage(crash_dir, &rec, &rerr);
    if (expect_fail) {
      if (ok) {
        std::printf("crash %" PRIu64 " (%s@%" PRIu64
                    "): expected hard failure, recovery succeeded\n",
                    round, flip ? "flip" : "trunc", at);
        ++failures;
      }
      continue;
    }
    if (!ok) {
      std::printf("crash %" PRIu64 " (%s@%" PRIu64 "): recovery failed: %s\n",
                  round, flip ? "flip" : "trunc", at, rerr.c_str());
      ++failures;
      continue;
    }
    std::map<std::string, uint64_t> expect = OraclePrefix(ops_log, expect_lsn);
    bool match = rec.last_lsn == expect_lsn &&
                 rec.records.size() == expect.size();
    if (match) {
      auto it = expect.begin();
      for (const ps::RecoveredRecord& r : rec.records) {
        if (r.key != it->first || r.value != it->second) {
          match = false;
          break;
        }
        ++it;
      }
    }
    if (!match) {
      std::printf("crash %" PRIu64 " (%s@%" PRIu64 "): DIVERGENCE — "
                  "recovered %zu records lsn %" PRIu64 ", oracle %zu records "
                  "lsn %" PRIu64 "\n",
                  round, flip ? "flip" : "trunc", at, rec.records.size(),
                  rec.last_lsn, expect.size(), expect_lsn);
      ++failures;
    }
  }
  WipeDataDir(crash_dir);
  ::rmdir(crash_dir.c_str());

  std::printf("[persist] %s: %zu mutations, %d snapshots (cut lsn %" PRIu64
              "), %" PRIu64 " crash points, %d failures\n",
              hot::testing::KeySpaceKindName(t.ks_kind), ops_log.size(),
              snaps, snap_cut, a.crash_points, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace persist_diff

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) return Usage(argv[0]);

  if (a.mode == "selftest") return SelfTest();

  if (a.mode == "persist") {
    TraceGenConfig cfg;
    if (!KeySpaceKindFromName(a.kind, &cfg.kind)) {
      std::fprintf(stderr, "unknown keyspace kind %s\n", a.kind.c_str());
      return 2;
    }
    cfg.n = static_cast<uint32_t>(a.n);
    cfg.seed = a.seed;
    cfg.num_ops = a.ops;
    cfg.zipf_pick = a.zipf;
    cfg.audit_every = 0;
    return persist_diff::Run(a, GenerateTrace(cfg));
  }

  if (a.mode == "record") {
    TraceGenConfig cfg;
    if (!KeySpaceKindFromName(a.kind, &cfg.kind)) {
      std::fprintf(stderr, "unknown keyspace kind %s\n", a.kind.c_str());
      return 2;
    }
    cfg.n = static_cast<uint32_t>(a.n);
    cfg.seed = a.seed;
    cfg.num_ops = a.ops;
    cfg.zipf_pick = a.zipf;
    cfg.audit_every = a.audit_every;
    if (!ApplyMix(a.mix, &cfg)) {
      std::fprintf(stderr, "unknown mix %s\n", a.mix.c_str());
      return 2;
    }
    Trace t = GenerateTrace(cfg);
    if (!t.SaveFile(a.file)) {
      std::fprintf(stderr, "cannot write %s\n", a.file.c_str());
      return 1;
    }
    std::printf("recorded %zu ops to %s\n", t.ops.size(), a.file.c_str());
    return 0;
  }

  if (a.mode == "replay" || a.mode == "shrink") {
    Trace t;
    std::string err;
    if (!Trace::LoadFile(a.file, &t, &err)) {
      std::fprintf(stderr, "cannot load %s: %s\n", a.file.c_str(),
                   err.c_str());
      return 1;
    }
    if (a.mode == "replay") {
      if (!a.persist_dir.empty()) return persist_diff::Run(a, t);
      if (a.net) {
        hot::net::NetDiffOptions opts;
        opts.server.force_scalar = a.scalar;
        hot::net::NetDiffResult res = hot::net::RunTraceOverNet(t, opts);
        std::printf("[net%s] %s (%" PRIu64 " batched / %" PRIu64
                    " scalar gets)\n",
                    a.scalar ? "-scalar" : "", res.Describe().c_str(),
                    res.stats.batched_gets, res.stats.scalar_gets);
        return res.ok ? 0 : 1;
      }
      return ReplayOn(a.index, t) == 0 ? 0 : 1;
    }
    if (a.index == "all") {
      std::fprintf(stderr, "--shrink needs a concrete --index\n");
      return 2;
    }
    if (RunTraceOnIndex(a.index, t).ok) {
      std::fprintf(stderr, "trace does not fail on %s; nothing to shrink\n",
                   a.index.c_str());
      return 1;
    }
    ShrinkStats st;
    Trace min = ShrinkTrace(
        t,
        [&](const Trace& cand) { return !RunTraceOnIndex(a.index, cand).ok; },
        &st);
    if (!min.SaveFile(a.out)) {
      std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
      return 1;
    }
    std::printf("shrunk %zu -> %zu ops (%zu replays), wrote %s\n",
                st.ops_before, st.ops_after, st.predicate_calls,
                a.out.c_str());
    return 0;
  }

  if (a.mode == "long") return LongCampaign(a);
  return Usage(argv[0]);
}

// E16 — restart-by-rebuild recovery time (DESIGN.md §13, EXPERIMENTS.md).
//
//   recovery_time [--quick] [--threads N]
//
// For {1M, 2M, 4M}-key snapshots crossed with WAL-tail lengths {0, 256K,
// 1M ops}, measures the two recovery phases separately:
//
//   recover_s  mmap + validate the snapshot, read the tail, sort the
//              delta, merge into the sorted image (persist/recovery.h);
//   build_s    ParallelBulkBuild of the ROWEX trie from that image.
//
// Every row is self-verifying: the recovered image's CRC32C fingerprint
// (persist::ImageChecksum) and the ordered-scan fingerprint of the BUILT
// trie are both compared against an independently maintained oracle, and
// the `match` flag lands in BENCH_recovery.json — which is exactly what
// tools/check_recovery_gate.py asserts on.  A fast recovery that recovers
// the wrong bytes fails the gate, not just the eyeball.
//
// --quick shrinks to {100K, 200K} x {0, 20K} for CI smoke lanes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/json_out.h"
#include "hot/rowex.h"
#include "net/record_store.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace hot {
namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string KeyBytes(uint64_t v) {
  std::string k(8, '\0');
  for (int b = 0; b < 8; ++b) k[b] = static_cast<char>(v >> (8 * (7 - b)));
  return k;
}

KeyRef K(const std::string& s) {
  return KeyRef(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hot_recovery_bench_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  void Wipe() {
    for (const auto& [seq, p] : persist::ListWalSegments(path)) {
      ::unlink(p.c_str());
    }
    ::unlink(persist::SnapshotPath(path).c_str());
    ::unlink(persist::SnapshotTmpPath(path).c_str());
  }
  ~TempDir() {
    Wipe();
    ::rmdir(path.c_str());
  }
};

// CRC over the image in the same (klen | key | value) framing as
// persist::ImageChecksum, computed from any (key, value) stream.
struct ScanCrc {
  uint32_t state = persist::Crc32cBegin();
  void Feed(KeyRef key, uint64_t value) {
    uint32_t klen = static_cast<uint32_t>(key.size());
    state = persist::Crc32cExtend(state, &klen, sizeof(klen));
    state = persist::Crc32cExtend(state, key.data(), key.size());
    state = persist::Crc32cExtend(state, &value, sizeof(value));
  }
  uint32_t Finish() const { return persist::Crc32cFinish(state); }
};

struct RunResult {
  double write_s = 0;
  double recover_s = 0;
  double build_s = 0;
  uint64_t recovered = 0;
  uint64_t expected = 0;
  uint32_t image_crc = 0;
  uint32_t scan_crc = 0;
  uint32_t oracle_crc = 0;
  bool match = false;
};

RunResult RunOne(TempDir* dir, size_t n_keys, size_t tail_ops,
                 unsigned threads, uint64_t seed) {
  dir->Wipe();
  RunResult out;

  // Base keyset: n unique random u64s, snapshotted in order at cut = n.
  uint64_t rng = seed;
  std::vector<uint64_t> keys;
  keys.reserve(n_keys);
  for (size_t i = 0; i < n_keys; ++i) keys.push_back(SplitMix(&rng));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  std::unordered_map<uint64_t, uint64_t> oracle;
  oracle.reserve(keys.size() + tail_ops / 4);
  for (uint64_t k : keys) oracle[k] = k;

  auto t0 = std::chrono::steady_clock::now();
  {
    persist::SnapshotWriter w;
    std::string err;
    if (!w.Open(persist::SnapshotPath(dir->path), &err)) {
      std::fprintf(stderr, "snapshot open: %s\n", err.c_str());
      return out;
    }
    for (uint64_t k : keys) w.Add(K(KeyBytes(k)), k);
    if (!w.Finish(keys.size(), &err)) {
      std::fprintf(stderr, "snapshot finish: %s\n", err.c_str());
      return out;
    }
  }
  // WAL tail beyond the cut: 60% overwrite, 20% fresh insert, 20% delete.
  {
    persist::Wal wal;
    persist::Wal::Options o;
    o.durability = persist::Durability::kNone;
    persist::WalResume resume;
    resume.next_lsn = keys.size() + 1;
    std::string err;
    if (!wal.Open(dir->path, resume, o, &err)) {
      std::fprintf(stderr, "wal open: %s\n", err.c_str());
      return out;
    }
    for (size_t i = 0; i < tail_ops; ++i) {
      uint64_t roll = SplitMix(&rng) % 10;
      if (roll < 6) {
        uint64_t k = keys[SplitMix(&rng) % keys.size()];
        uint64_t v = SplitMix(&rng);
        wal.Append(persist::kWalPut, K(KeyBytes(k)), v);
        oracle[k] = v;
      } else if (roll < 8) {
        uint64_t k = SplitMix(&rng);
        uint64_t v = SplitMix(&rng);
        wal.Append(persist::kWalPut, K(KeyBytes(k)), v);
        oracle[k] = v;
      } else {
        uint64_t k = keys[SplitMix(&rng) % keys.size()];
        wal.Append(persist::kWalDelete, K(KeyBytes(k)), 0);
        oracle.erase(k);
      }
    }
    if (!wal.Flush(true, &err)) {
      std::fprintf(stderr, "wal flush: %s\n", err.c_str());
      return out;
    }
    wal.Close();
  }
  auto t1 = std::chrono::steady_clock::now();
  out.write_s = Seconds(t0, t1);

  // Phase 1: directory -> sorted image.
  persist::RecoveryResult rec;
  std::string err;
  if (!persist::RecoverImage(dir->path, &rec, &err)) {
    std::fprintf(stderr, "recover: %s\n", err.c_str());
    return out;
  }
  auto t2 = std::chrono::steady_clock::now();
  out.recover_s = Seconds(t1, t2);
  out.recovered = rec.records.size();
  out.image_crc = persist::ImageChecksum(rec.records);

  // Phase 2: sorted image -> served trie.
  net::RecordStore store;
  std::vector<uint64_t> ids;
  ids.reserve(rec.records.size());
  for (const persist::RecoveredRecord& r : rec.records) {
    ids.push_back(store.Append(r.key_ref(), r.value).value());
  }
  RowexHotTrie<net::RecordKeyExtractor> trie{net::RecordKeyExtractor(&store)};
  trie.BulkLoad(ids.data(), ids.size(), threads);
  auto t3 = std::chrono::steady_clock::now();
  out.build_s = Seconds(t2, t3);

  // Oracle: independent sorted materialization of the expected image.
  std::vector<std::pair<uint64_t, uint64_t>> want(oracle.begin(),
                                                  oracle.end());
  std::sort(want.begin(), want.end());
  out.expected = want.size();
  ScanCrc oracle_crc;
  for (const auto& [k, v] : want) {
    std::string kb = KeyBytes(k);
    oracle_crc.Feed(K(kb), v);
  }
  out.oracle_crc = oracle_crc.Finish();

  // Byte-identical ordered scan of the BUILT index.
  ScanCrc scan_crc;
  size_t scanned =
      trie.ScanFrom(KeyRef(), want.size() + 1, [&](uint64_t id) {
        const net::RecordStore::Record& r = store.At(id);
        scan_crc.Feed(r.raw_key(), r.value);
      });
  out.scan_crc = scan_crc.Finish();
  out.match = out.recovered == out.expected && scanned == out.expected &&
              out.image_crc == out.oracle_crc &&
              out.scan_crc == out.oracle_crc;
  return out;
}

}  // namespace
}  // namespace hot

int main(int argc, char** argv) {
  bool quick = false;
  unsigned threads = std::thread::hardware_concurrency();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  if (threads == 0) threads = 1;

  std::vector<size_t> sizes =
      quick ? std::vector<size_t>{100'000, 200'000}
            : std::vector<size_t>{1'000'000, 2'000'000, 4'000'000};
  std::vector<size_t> tails = quick ? std::vector<size_t>{0, 20'000}
                                    : std::vector<size_t>{0, 262'144,
                                                          1'048'576};

  hot::bench::BenchJson json("recovery");
  json.meta()
      .Add("threads", threads)
      .Add("hardware_threads", std::thread::hardware_concurrency())
      .Add("quick", quick)
      .Add("phases", std::string("recover=mmap+merge build=bulkload"));

  hot::TempDir dir;
  std::printf("%10s %10s | %9s %9s %9s | %9s | %s\n", "keys", "wal_tail",
              "write_s", "recover_s", "build_s", "Mkeys/s", "match");
  bool all_match = true;
  for (size_t n : sizes) {
    for (size_t t : tails) {
      hot::RunResult r = hot::RunOne(&dir, n, t, threads, 42 + n + t);
      double total = r.recover_s + r.build_s;
      double mkeys = total > 0 ? r.recovered / total / 1e6 : 0;
      std::printf("%10zu %10zu | %9.3f %9.3f %9.3f | %9.2f | %s\n", n, t,
                  r.write_s, r.recover_s, r.build_s, mkeys,
                  r.match ? "yes" : "NO");
      std::fflush(stdout);
      all_match = all_match && r.match;
      hot::bench::JsonObject row;
      row.Add("keys", static_cast<uint64_t>(n))
          .Add("wal_tail_ops", static_cast<uint64_t>(t))
          .Add("write_s", r.write_s)
          .Add("recover_s", r.recover_s)
          .Add("build_s", r.build_s)
          .Add("total_s", total)
          .Add("mkeys_per_s", mkeys)
          .Add("recovered_keys", r.recovered)
          .Add("expected_keys", r.expected)
          .Add("image_crc", static_cast<uint64_t>(r.image_crc))
          .Add("scan_crc", static_cast<uint64_t>(r.scan_crc))
          .Add("oracle_crc", static_cast<uint64_t>(r.oracle_crc))
          .Add("match", r.match);
      json.AddResult(row);
    }
  }
  json.WriteFile();
  return all_match ? 0 : 1;
}

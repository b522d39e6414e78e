// Standalone KV server binary over src/net (DESIGN.md §12, §13).
//
//   kv_server [--host 127.0.0.1] [--port 7000] [--workers W] [--scalar]
//             [--data-dir DIR] [--durability none|async|sync]
//             [--snapshot-trigger-mb MB] [--wal-flush-ms MS]
//             [--stats-every SECONDS]
//
// Serves until SIGINT/SIGTERM, then prints a final stats snapshot.
// --scalar forces the scalar GET drain (the baseline bench/net_throughput
// compares against); otherwise four or more same-iteration GETs take the
// batched AMAC path.
//
// With --data-dir the server is durable: it recovers whatever snapshot +
// WAL it finds there on startup, write-ahead-logs every PUT/DELETE, and
// re-snapshots whenever the WAL segment passes --snapshot-trigger-mb.
// --durability picks the ack contract (persist/wal.h): sync = fsync
// before every ack (group-committed).  Under async and none an ack means
// the write sits in the WAL's in-memory buffer, which is written out every
// --wal-flush-ms (async also fsyncs it then), when it passes 256 KiB, and
// on snapshot rotation or shutdown: a process crash can lose up to one
// flush interval of acked writes, and under none an OS crash can lose
// more.
//
// Every flag value is validated up front; a bad value prints what was
// wrong AND the usage block, and exits 2 — never starts half-configured.

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "net/server.h"

namespace {

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

void Usage(FILE* to) {
  std::fprintf(
      to,
      "usage: kv_server [options]\n"
      "  --host ADDR               bind address (default 127.0.0.1)\n"
      "  --port N                  TCP port, 0 = ephemeral (default 7000)\n"
      "  --workers N               event-loop threads, >= 1 (default 1)\n"
      "  --scalar                  force the scalar GET drain\n"
      "  --data-dir DIR            durable mode: recover from / persist to\n"
      "                            DIR (must exist and be writable)\n"
      "  --durability MODE         none | async | sync (default sync);\n"
      "                            none/async acks can be lost to a crash\n"
      "                            for up to one --wal-flush-ms interval\n"
      "  --snapshot-trigger-mb MB  auto-snapshot once the WAL segment\n"
      "                            exceeds MB MiB; 0 = never (default 64)\n"
      "  --wal-flush-ms MS         WAL write cadence under none and async,\n"
      "                            also the fsync cadence under async\n"
      "                            (default 50)\n"
      "  --stats-every SECONDS     periodic stats line; 0 = off\n"
      "  --help                    this text\n");
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "kv_server: %s\n\n", why.c_str());
  Usage(stderr);
  std::exit(2);
}

// Whole-string unsigned parse: "12x", "", "-3", and overflow all fail —
// the old atoi path turned any of them into a silently wrong config
// (e.g. a mistyped --port served on a random ephemeral port).
uint64_t ParseU64(const std::string& flag, const std::string& v,
                  uint64_t max) {
  if (v.empty()) Die(flag + ": empty value");
  errno = 0;
  char* end = nullptr;
  unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (errno != 0 || end != v.c_str() + v.size() || v[0] == '-') {
    Die(flag + ": '" + v + "' is not a non-negative integer");
  }
  if (n > max) {
    Die(flag + ": " + v + " exceeds the maximum of " + std::to_string(max));
  }
  return n;
}

// --data-dir must point at an existing, writable directory; anything else
// (typo, missing mkdir, read-only mount) gets a message that says exactly
// which precondition failed instead of a late opaque open() error.
void ValidateDataDir(const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0) {
    Die("--data-dir " + dir + ": " + std::strerror(errno) +
        " (create it first: mkdir -p '" + dir + "')");
  }
  if (!S_ISDIR(st.st_mode)) {
    Die("--data-dir " + dir + ": not a directory");
  }
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    Die("--data-dir " + dir + ": not writable: " + std::strerror(errno));
  }
}

void PrintStats(const hot::net::ServerStats& s, bool durable) {
  std::printf(
      "conns %" PRIu64 "/%" PRIu64 " open=%" PRIu64 " | frames %" PRIu64
      " replies %" PRIu64 " | get %" PRIu64 " put %" PRIu64 " del %" PRIu64
      " scan %" PRIu64 " | batched %" PRIu64 " in %" PRIu64
      " drains (max %" PRIu64 ") scalar %" PRIu64 " | proto-err %" PRIu64
      " bad-req %" PRIu64 "\n",
      s.connections_accepted, s.connections_closed, s.connections_open(),
      s.frames_in, s.replies_out, s.gets, s.puts, s.deletes, s.scans,
      s.batched_gets, s.batch_drains, s.max_batch, s.scalar_gets,
      s.protocol_errors, s.bad_requests);
  if (durable) {
    std::printf("wal appends %" PRIu64 " fsyncs %" PRIu64
                " group-committed %" PRIu64 " commit-failures %" PRIu64
                " | snapshots %" PRIu64 " (last %" PRIu64
                " records, failures %" PRIu64 ")\n",
                s.wal_appends, s.wal_fsyncs, s.wal_group_committed,
                s.wal_commit_failures, s.snapshots_taken,
                s.snapshot_last_records, s.snapshot_failures);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  hot::net::ServerOptions opt;
  opt.port = 7000;
  opt.workers = 1;
  uint64_t snapshot_trigger_mb = 64;
  unsigned stats_every = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return 0;
    }
    if (arg == "--scalar") {
      opt.force_scalar = true;
      continue;
    }
    if (i + 1 >= argc) Die("missing value for " + arg);
    std::string v = argv[++i];
    if (arg == "--host") {
      opt.host = v;
    } else if (arg == "--port") {
      opt.port = static_cast<uint16_t>(ParseU64(arg, v, 65535));
    } else if (arg == "--workers") {
      opt.workers = static_cast<unsigned>(ParseU64(arg, v, 1024));
      if (opt.workers == 0) Die("--workers: must be >= 1");
    } else if (arg == "--data-dir") {
      opt.data_dir = v;
    } else if (arg == "--durability") {
      if (!hot::persist::DurabilityFromName(v, &opt.durability)) {
        Die("--durability: '" + v + "' is not one of none, async, sync");
      }
    } else if (arg == "--snapshot-trigger-mb") {
      snapshot_trigger_mb = ParseU64(arg, v, 1u << 20);
    } else if (arg == "--wal-flush-ms") {
      opt.wal_flush_ms = static_cast<unsigned>(ParseU64(arg, v, 60'000));
    } else if (arg == "--stats-every") {
      stats_every = static_cast<unsigned>(ParseU64(arg, v, 86'400));
    } else {
      Die("unknown flag " + arg);
    }
  }
  if (!opt.data_dir.empty()) {
    ValidateDataDir(opt.data_dir);
    opt.snapshot_trigger_bytes = snapshot_trigger_mb << 20;
  }

  hot::net::KvServer server(opt);
  std::string err;
  if (!server.Start(&err)) {
    std::fprintf(stderr, "kv_server: start failed: %s\n", err.c_str());
    return 1;
  }
  signal(SIGINT, OnSignal);
  signal(SIGTERM, OnSignal);
  std::printf("kv_server listening on %s:%u (%u workers, %s)\n",
              opt.host.c_str(), server.port(), opt.workers,
              opt.force_scalar ? "scalar drain" : "batched drain");
  if (server.durable()) {
    const hot::net::RecoveryInfo& r = server.recovery();
    std::printf("durable: dir=%s mode=%s | recovered %" PRIu64
                " keys (snapshot %" PRIu64 ", wal +%" PRIu64 " ops across %"
                PRIu64 " segments%s) in %.3fs + %.3fs build\n",
                opt.data_dir.c_str(),
                hot::persist::DurabilityName(opt.durability), r.records,
                r.snapshot_records, r.wal_records_applied, r.wal_segments,
                r.torn_tail ? ", torn tail truncated" : "",
                r.recover_seconds, r.build_seconds);
  }
  std::fflush(stdout);

  unsigned elapsed = 0;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    if (stats_every != 0 && ++elapsed >= stats_every) {
      elapsed = 0;
      PrintStats(server.StatsSnapshot(), server.durable());
    }
  }
  server.Stop();
  PrintStats(server.StatsSnapshot(), server.durable());
  return 0;
}

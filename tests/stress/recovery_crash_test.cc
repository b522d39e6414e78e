// Crash-injection recovery harness (ISSUE: durability tentpole acceptance).
//
// Each round forks a REAL KvServer into a child process on a persistent
// data directory, drives a pipelined write burst over loopback, and
// SIGKILLs the child at a randomized point mid-burst — after `ack_target`
// replies have been read and with the rest still in flight.  The parent
// then recovers the directory out-of-process (persist/recovery.h) and
// checks the two durability invariants:
//
//   1. no acked write is lost (sync mode): the recovered image reflects at
//      least the first `acked` operations of the burst;
//   2. no un-acked write is half-applied: the image equals EXACTLY
//      baseline + ops[0..k) for a single k in [acked, sent] — writes on
//      one connection execute inline in order, so anything else means a
//      hole or reordering slipped through the WAL.
//
// The data dir persists across rounds (baseline = last verified image), so
// later rounds recover through snapshots taken by earlier incarnations —
// including incarnations killed mid-snapshot (tmp file) or between rename
// and prune (stale records).  A final in-process server restart checks the
// surviving image is actually servable, byte-for-byte, over a socket.
//
// HOT_CRASH_ROUNDS scales the sync-mode round count (default 50).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace hot {
namespace net {
namespace {

KeyRef K(const std::string& s) { return KeyRef(s); }

unsigned EnvRounds(const char* name, unsigned fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return static_cast<unsigned>(std::strtoul(s, nullptr, 10));
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hot_crash_test_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    for (const auto& [seq, p] : persist::ListWalSegments(path)) {
      ::unlink(p.c_str());
    }
    ::unlink(persist::SnapshotPath(path).c_str());
    ::unlink(persist::SnapshotTmpPath(path).c_str());
    ::rmdir(path.c_str());
  }
};

struct MutOp {
  bool is_put;
  std::string key;
  uint64_t value;
};

using Image = std::map<std::string, uint64_t>;

void Apply(Image* img, const MutOp& op) {
  if (op.is_put) {
    (*img)[op.key] = op.value;
  } else {
    img->erase(op.key);
  }
}

// True iff `got` == baseline + ops[0..k) for some k in [lo, hi]; reports
// the matching k.
bool MatchesSomePrefix(const Image& baseline, const std::vector<MutOp>& ops,
                       size_t lo, size_t hi, const Image& got, size_t* k_out) {
  Image cur = baseline;
  for (size_t i = 0; i < lo; ++i) Apply(&cur, ops[i]);
  for (size_t k = lo;; ++k) {
    if (cur == got) {
      *k_out = k;
      return true;
    }
    if (k == hi) return false;
    Apply(&cur, ops[k]);
  }
}

Image RecoverToImage(const std::string& dir) {
  persist::RecoveryResult rec;
  std::string err;
  EXPECT_TRUE(persist::RecoverImage(dir, &rec, &err)) << err;
  Image img;
  for (const persist::RecoveredRecord& r : rec.records) {
    img.emplace(r.key, r.value);
  }
  EXPECT_EQ(img.size(), rec.records.size());
  return img;
}

// Child body: serve `dir` until killed.  Never returns.
[[noreturn]] void ServeUntilKilled(const std::string& dir,
                                   persist::Durability durability,
                                   int port_fd) {
  ServerOptions opt;
  opt.workers = 1;
  opt.data_dir = dir;
  opt.durability = durability;
  opt.wal_flush_ms = 2;  // tight async cadence: more fsync boundaries to
                         // land the SIGKILL between
  opt.snapshot_trigger_bytes = 32 * 1024;  // snapshots happen mid-run
  KvServer server(opt);
  std::string err;
  if (!server.Start(&err)) {
    std::fprintf(stderr, "child start failed: %s\n", err.c_str());
    ::_exit(3);
  }
  uint16_t port = server.port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) ::_exit(4);
  ::close(port_fd);
  for (;;) ::pause();  // SIGKILL is the only way out
}

// One fork / burst / kill / recover-verify round.  Updates *baseline to the
// verified post-crash image and returns the k the image matched at.
void CrashRound(const std::string& dir, persist::Durability durability,
                std::mt19937_64* rng, int key_pool, uint64_t round,
                Image* baseline, bool acked_must_survive) {
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipefd[0]);
    ServeUntilKilled(dir, durability, pipefd[1]);
  }
  ::close(pipefd[1]);
  uint16_t port = 0;
  ASSERT_EQ(::read(pipefd[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)))
      << "child failed to start (round " << round << ")";
  ::close(pipefd[0]);

  // Randomized burst: puts/deletes over a bounded key pool so overwrite
  // and delete-then-reinsert sequences are common.
  size_t sent = 100 + (*rng)() % 300;
  std::vector<MutOp> ops;
  ops.reserve(sent);
  for (size_t i = 0; i < sent; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "ck-%06llu",
                  static_cast<unsigned long long>((*rng)() % key_pool));
    bool is_put = ((*rng)() % 4) != 0;  // 25% deletes
    ops.push_back({is_put, key, (round << 32) | i});
  }
  size_t ack_target = (*rng)() % (sent + 1);

  KvClient c;
  std::string err;
  ASSERT_TRUE(c.Connect("127.0.0.1", port, &err)) << err;
  for (const MutOp& op : ops) {
    if (op.is_put) {
      c.SendPut(K(op.key), op.value);
    } else {
      c.SendDelete(K(op.key));
    }
  }
  ASSERT_TRUE(c.Flush(&err)) << err;
  Reply reply;
  for (size_t i = 0; i < ack_target; ++i) {
    ASSERT_TRUE(c.ReadReply(&reply, &err)) << err << " (ack " << i << ")";
    ASSERT_TRUE(reply.status == kOk || reply.status == kNotFound)
        << "write " << i << " rejected: " << reply.error;
  }

  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL);

  Image got = RecoverToImage(dir);
  size_t lo = acked_must_survive ? ack_target : 0;
  size_t k = 0;
  ASSERT_TRUE(MatchesSomePrefix(*baseline, ops, lo, sent, got, &k))
      << "round " << round << ": recovered image is not baseline + any "
      << "prefix of the burst in [" << lo << ", " << sent << "] (acked "
      << ack_target << ")";
  ASSERT_GE(k, lo) << "acked write lost";
  *baseline = got;
}

TEST(RecoveryCrash, SyncModeNeverLosesAnAckedWrite) {
  TempDir dir;
  unsigned rounds = EnvRounds("HOT_CRASH_ROUNDS", 50);
  std::mt19937_64 rng(20260809);
  Image baseline;
  for (unsigned r = 0; r < rounds; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    CrashRound(dir.path, persist::Durability::kSync, &rng,
               /*key_pool=*/2000, r, &baseline,
               /*acked_must_survive=*/true);
    if (HasFatalFailure()) return;
  }

  // Servability: the final surviving image must come up in-process and
  // serve exactly what recovery promised.
  ServerOptions opt;
  opt.workers = 1;
  opt.data_dir = dir.path;
  opt.durability = persist::Durability::kSync;
  KvServer server(opt);
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  EXPECT_EQ(server.live_keys(), baseline.size());
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  Reply reply;
  ASSERT_TRUE(c.Scan(KeyRef(), 1u << 20, &reply, &err)) << err;
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.scan.size(), baseline.size());
  auto it = baseline.begin();
  for (size_t i = 0; i < reply.scan.size(); ++i, ++it) {
    EXPECT_EQ(reply.scan[i].key, it->first);
    EXPECT_EQ(reply.scan[i].value, it->second);
  }
  server.Stop();
}

// Async/none modes promise no ack durability, but the WAL must still never
// recover to anything but SOME clean prefix — no holes, no half-applied
// frames, no reordering.
TEST(RecoveryCrash, WeakerModesStillRecoverACleanPrefix) {
  for (persist::Durability mode :
       {persist::Durability::kAsync, persist::Durability::kNone}) {
    SCOPED_TRACE(persist::DurabilityName(mode));
    TempDir dir;
    unsigned rounds = std::max(1u, EnvRounds("HOT_CRASH_ROUNDS", 50) / 8);
    std::mt19937_64 rng(777 + static_cast<unsigned>(mode));
    Image baseline;
    for (unsigned r = 0; r < rounds; ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      CrashRound(dir.path, mode, &rng, /*key_pool=*/1000, r, &baseline,
                 /*acked_must_survive=*/false);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace hot

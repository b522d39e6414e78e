// Durable-server tier: KvServer with a data directory, exercised over real
// loopback sockets (net/client.h).  Pins the restart contract — every
// acked write before a clean Stop() is served after the next Start() — in
// all three durability modes, the snapshot trigger + recovery path, the
// manual TriggerSnapshot() hook, and that a bad data dir fails Start()
// loudly instead of serving an empty non-durable index.

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
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

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hot_persist_server_XXXXXX";
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

ServerOptions DurableServer(const std::string& dir,
                            persist::Durability durability) {
  ServerOptions opt;
  opt.workers = 1;
  opt.shards = 4;
  opt.data_dir = dir;
  opt.durability = durability;
  opt.wal_flush_ms = 5;
  opt.recovery_threads = 2;
  return opt;
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key-%05d", i);
  return buf;
}

// Full ordered dump of the served index over the wire.
std::map<std::string, uint64_t> ScanAll(KvClient* c) {
  std::map<std::string, uint64_t> out;
  std::string err;
  Reply reply;
  EXPECT_TRUE(c->Scan(KeyRef(), 1u << 20, &reply, &err)) << err;
  EXPECT_TRUE(reply.ok());
  for (const auto& e : reply.scan) out[e.key] = e.value;
  EXPECT_EQ(out.size(), reply.scan.size()) << "scan returned duplicate keys";
  return out;
}

TEST(PersistServer, RestartRoundTripInEveryDurabilityMode) {
  for (persist::Durability mode :
       {persist::Durability::kNone, persist::Durability::kAsync,
        persist::Durability::kSync}) {
    SCOPED_TRACE(persist::DurabilityName(mode));
    TempDir dir;
    std::map<std::string, uint64_t> oracle;
    {
      KvServer server(DurableServer(dir.path, mode));
      std::string err;
      ASSERT_TRUE(server.Start(&err)) << err;
      ASSERT_TRUE(server.durable());
      EXPECT_EQ(server.recovery().records, 0u);
      KvClient c;
      ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
      Reply reply;
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(c.Put(K(Key(i)), 1000 + i, &reply, &err)) << err;
        ASSERT_TRUE(reply.ok());
        oracle[Key(i)] = 1000 + i;
      }
      for (int i = 0; i < 200; i += 5) {
        ASSERT_TRUE(c.Delete(K(Key(i)), &reply, &err)) << err;
        ASSERT_TRUE(reply.ok());
        oracle.erase(Key(i));
      }
      for (int i = 0; i < 50; ++i) {  // overwrites
        ASSERT_TRUE(c.Put(K(Key(i * 3 + 1)), 9000 + i, &reply, &err)) << err;
        oracle[Key(i * 3 + 1)] = 9000 + i;
      }
      server.Stop();  // clean shutdown flushes every mode
    }
    {
      KvServer server(DurableServer(dir.path, mode));
      std::string err;
      ASSERT_TRUE(server.Start(&err)) << err;
      EXPECT_EQ(server.recovery().records, oracle.size());
      EXPECT_EQ(server.live_keys(), oracle.size());
      KvClient c;
      ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
      EXPECT_EQ(ScanAll(&c), oracle);
      // And the recovered image keeps serving writes with WAL continuity.
      Reply reply;
      ASSERT_TRUE(c.Put(K("post-restart"), 7, &reply, &err)) << err;
      ASSERT_TRUE(reply.ok());
      server.Stop();
    }
    {
      KvServer server(DurableServer(dir.path, mode));
      std::string err;
      ASSERT_TRUE(server.Start(&err)) << err;
      EXPECT_EQ(server.live_keys(), oracle.size() + 1);
      server.Stop();
    }
  }
}

// Racing writers on ONE key across two workers: the server's write-stripe
// ordering holds {WAL append, index apply} together, so the value the live
// index ends up serving is the value with the highest LSN — exactly what
// recovery's last-LSN-wins replay reconstructs.  Without that ordering,
// worker A could win the live index while worker B holds the higher LSN,
// and a restart would silently revert to a value clients saw overwritten.
TEST(PersistServer, ConcurrentSameKeyWritesRecoverToLiveValue) {
  TempDir dir;
  bool live_found = false;
  uint64_t live_value = 0;
  {
    ServerOptions opt = DurableServer(dir.path, persist::Durability::kSync);
    opt.workers = 2;
    KvServer server(opt);
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    constexpr int kClients = 4;
    constexpr int kWrites = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        KvClient c;
        std::string cerr;
        ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &cerr)) << cerr;
        Reply reply;
        for (int i = 0; i < kWrites; ++i) {
          if (t == 0 && i % 3 == 2) {  // deletes race the puts too
            ASSERT_TRUE(c.Delete(K("contended"), &reply, &cerr)) << cerr;
            ASSERT_TRUE(reply.status == kOk || reply.status == kNotFound);
          } else {
            uint64_t v = static_cast<uint64_t>(t) * 1000000 + i;
            ASSERT_TRUE(c.Put(K("contended"), v, &reply, &cerr)) << cerr;
            ASSERT_TRUE(reply.ok());
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    ASSERT_TRUE(c.Get(K("contended"), &reply, &err)) << err;
    live_found = reply.status == kOk;
    live_value = reply.value;
    server.Stop();
  }
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kSync));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    ASSERT_TRUE(c.Get(K("contended"), &reply, &err)) << err;
    EXPECT_EQ(reply.status == kOk, live_found);
    if (live_found && reply.status == kOk) {
      EXPECT_EQ(reply.value, live_value);
    }
    server.Stop();
  }
}

TEST(PersistServer, SnapshotTriggerFiresAndRecoveryUsesIt) {
  TempDir dir;
  std::map<std::string, uint64_t> oracle;
  {
    ServerOptions opt = DurableServer(dir.path, persist::Durability::kNone);
    opt.snapshot_trigger_bytes = 4096;  // a few dozen puts
    KvServer server(opt);
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    for (int i = 0; i < 800; ++i) {
      ASSERT_TRUE(c.Put(K(Key(i)), i, &reply, &err)) << err;
      oracle[Key(i)] = i;
    }
    // The snapshot loop polls every ~100ms; give it a real deadline.
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.StatsSnapshot().snapshots_taken == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ServerStats stats = server.StatsSnapshot();
    ASSERT_GE(stats.snapshots_taken, 1u);
    EXPECT_EQ(stats.snapshot_failures, 0u);
    EXPECT_GE(stats.wal_rotations, 1u);
    server.Stop();
  }
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kNone));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    EXPECT_TRUE(server.recovery().snapshot_loaded);
    EXPECT_EQ(server.recovery().records, oracle.size());
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    EXPECT_EQ(ScanAll(&c), oracle);
    server.Stop();
  }
}

TEST(PersistServer, ManualSnapshotCompactsTheWal) {
  TempDir dir;
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kSync));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(c.Put(K(Key(i)), i, &reply, &err)) << err;
    }
    ASSERT_TRUE(server.TriggerSnapshot(&err)) << err;
    ServerStats stats = server.StatsSnapshot();
    EXPECT_EQ(stats.snapshots_taken, 1u);
    EXPECT_EQ(stats.snapshot_last_records, 300u);
    EXPECT_GE(stats.wal_segments_pruned, 1u);
    server.Stop();
  }
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kSync));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    // Everything should come from the snapshot; the tail is empty.
    EXPECT_TRUE(server.recovery().snapshot_loaded);
    EXPECT_EQ(server.recovery().snapshot_records, 300u);
    EXPECT_EQ(server.recovery().wal_records_applied, 0u);
    EXPECT_EQ(server.live_keys(), 300u);
    server.Stop();
  }
}

// Every PUT appends a record and none is reclaimed, so a long-running
// server can fill its record store.  The full store refuses the PUT with
// kServerError before the WAL append: the refused write is neither
// acknowledged nor logged, and a restart does not bring it back.
TEST(PersistServer, FullRecordStoreRefusesPutsWithoutLoggingThem) {
  TempDir dir;
  constexpr int kCapacity = 8;
  std::map<std::string, uint64_t> oracle;
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kSync),
                    kCapacity);
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    Reply reply;
    for (int i = 0; i < kCapacity; ++i) {
      ASSERT_TRUE(c.Put(K(Key(i)), 1000 + i, &reply, &err)) << err;
      ASSERT_TRUE(reply.ok());
      oracle[Key(i)] = 1000 + i;
    }
    const uint64_t logged = server.StatsSnapshot().wal_appends;
    ASSERT_TRUE(c.Put(K(Key(kCapacity)), 1, &reply, &err)) << err;
    EXPECT_EQ(reply.status, kServerError);
    ASSERT_TRUE(c.Put(K(Key(0)), 2, &reply, &err)) << err;  // overwrite
    EXPECT_EQ(reply.status, kServerError);
    EXPECT_EQ(server.StatsSnapshot().wal_appends, logged);
    EXPECT_EQ(server.store().appended(), static_cast<uint64_t>(kCapacity));
    ASSERT_TRUE(c.Get(K(Key(kCapacity)), &reply, &err)) << err;
    EXPECT_EQ(reply.status, kNotFound);
    ASSERT_TRUE(c.Get(K(Key(0)), &reply, &err)) << err;
    EXPECT_EQ(reply.value, 1000u);
    // Deletes append no record and still work on a full store.
    ASSERT_TRUE(c.Delete(K(Key(1)), &reply, &err)) << err;
    EXPECT_EQ(reply.status, kOk);
    oracle.erase(Key(1));
    server.Stop();
  }
  {
    KvServer server(DurableServer(dir.path, persist::Durability::kSync));
    std::string err;
    ASSERT_TRUE(server.Start(&err)) << err;
    KvClient c;
    ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
    EXPECT_EQ(ScanAll(&c), oracle);
  }
  {
    // A recovered image larger than the store fails Start loudly.
    KvServer server(DurableServer(dir.path, persist::Durability::kSync), 3);
    std::string err;
    EXPECT_FALSE(server.Start(&err));
    EXPECT_NE(err.find("capacity"), std::string::npos) << err;
  }
}

TEST(PersistServer, BadDataDirFailsStartLoudly) {
  ServerOptions opt =
      DurableServer("/nonexistent/hot-persist-dir", persist::Durability::kSync);
  KvServer server(opt);
  std::string err;
  EXPECT_FALSE(server.Start(&err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace net
}  // namespace hot

// Multi-client epoll KV server over the range-sharded ROWEX HOT stack
// (DESIGN.md §12).
//
// Architecture: `workers` event-loop threads, each with its own epoll set.
// Worker 0 owns the listening socket and deals accepted connections to all
// workers round-robin (an eventfd per worker wakes its loop).  A connection
// lives on exactly one worker, so connection state needs no locks; the
// index (RangeShardedIndex<RowexHotTrie>) and the record store are shared
// and internally synchronized.
//
// Batch-aware scheduling — the reason this server exists: within one
// event-loop iteration a worker parses every readable connection's pending
// frames, executes writes (PUT/DELETE) and SCANs inline, but only QUEUES
// point GETs.  At the end of the iteration the queued GETs — across all
// connections — drain as ONE call into the index's memory-level-parallel
// batched lookup (AMAC interleaved descent, hot/batch_lookup.h), falling
// back to a scalar loop when fewer than `batch_low_watermark` are pending
// (a 2-wide "batch" costs more in staging than it recovers in overlap).
// Replies therefore complete out of request order; the protocol's request
// ids are what lets clients cope (net/protocol.h).
//
// Backpressure: a connection whose pending reply bytes exceed
// `high_watermark` stops being read (EPOLLIN dropped) until its output
// drains below `low_watermark` — a slow reader stalls itself, not the
// worker, and its unread requests stay in the kernel socket buffer where
// TCP flow control pushes back on the sender.

#ifndef HOT_NET_SERVER_H_
#define HOT_NET_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hot/rowex.h"
#include "net/protocol.h"
#include "net/record_store.h"
#include "persist/wal.h"
#include "ycsb/range_sharded.h"

namespace hot {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; see KvServer::port() after Start
  unsigned workers = 1;
  unsigned shards = 16;  // range shards over the escaped key space
  // GET scheduling: batches below the low-watermark drain scalar; 0 or 1
  // disables the scalar fallback entirely (everything batches).
  unsigned batch_low_watermark = 4;
  bool force_scalar = false;  // scalar-drain mode (bench baseline)
  // Framing / resource limits.
  size_t max_frame_body = kDefaultMaxFrameBody;
  uint32_t max_scan_limit = kDefaultMaxScanLimit;
  size_t high_watermark = 4u << 20;  // pause reading above this many
  size_t low_watermark = 1u << 20;   // pending reply bytes; resume below

  // Durability (src/persist, DESIGN.md §13).  Empty data_dir = volatile
  // server (no WAL, no snapshots, no recovery) — the pre-§13 behavior.
  // With a data_dir, Start() recovers the image found there (snapshot +
  // WAL tail -> bulk build) and every PUT/DELETE is WAL-appended before
  // its reply; `durability` sets the ack contract (persist/wal.h).
  std::string data_dir;
  persist::Durability durability = persist::Durability::kSync;
  unsigned wal_flush_ms = 50;  // async flusher cadence (kAsync loss bound)
  // Auto-snapshot once the current WAL segment exceeds this many bytes
  // (checked periodically); 0 disables the trigger — snapshots then happen
  // only through TriggerSnapshot().
  uint64_t snapshot_trigger_bytes = 0;
  unsigned recovery_threads = 0;  // bulk-build workers; 0 = hw concurrency
};

// What Start() found and rebuilt from the data directory; all zero/false
// for a volatile server.  Quiescent-exact (recovery runs before workers).
struct RecoveryInfo {
  bool performed = false;        // a data_dir was configured
  bool snapshot_loaded = false;
  bool torn_tail = false;        // newest WAL segment ended mid-frame
  uint64_t records = 0;          // live keys after the merge
  uint64_t snapshot_records = 0;
  uint64_t wal_segments = 0;
  uint64_t wal_records_applied = 0;
  uint64_t wal_records_stale = 0;  // lsn <= snapshot cut (pre-prune crash)
  uint64_t last_lsn = 0;
  double recover_seconds = 0;  // disk -> merged image
  double build_seconds = 0;    // merged image -> store + bulk-built index
};

// Monotonic counters, all relaxed atomics: exact once the server is
// quiescent, approximate while it runs.  The protocol/partial-I/O tests
// lean on connections_* to prove fd hygiene and on the drain counters to
// prove the scheduling mode actually taken.
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_in = 0;
  uint64_t replies_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t scans = 0;
  uint64_t scan_items = 0;
  uint64_t batch_drains = 0;    // LookupBatch calls
  uint64_t batched_gets = 0;    // GETs answered through them
  uint64_t scalar_drains = 0;   // scalar fallback rounds
  uint64_t scalar_gets = 0;     // GETs answered scalar
  uint64_t max_batch = 0;       // widest single drain
  uint64_t protocol_errors = 0;  // fatal framing errors (connection closed)
  uint64_t bad_requests = 0;     // contained per-frame errors
  uint64_t keys_too_long = 0;

  // Durability counters; all zero on a volatile server.  The WAL fields
  // mirror persist::WalStats (group_committed / fsyncs is the group-commit
  // amortization).
  uint64_t wal_appends = 0;
  uint64_t wal_writes = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_sync_commits = 0;
  uint64_t wal_group_committed = 0;
  uint64_t wal_rotations = 0;
  uint64_t wal_segments_pruned = 0;
  uint64_t wal_commit_failures = 0;  // acks refused because fsync failed
  uint64_t snapshots_taken = 0;
  uint64_t snapshot_failures = 0;
  uint64_t snapshot_last_records = 0;  // rows in the newest snapshot

  uint64_t connections_open() const {
    return connections_accepted - connections_closed;
  }
};

class KvServer {
 public:
  using Index =
      ycsb::RangeShardedIndex<RowexHotTrie<RecordKeyExtractor>,
                              RecordKeyExtractor>;

  // The record store holds RecordStore::kMaxRecords records; every PUT
  // appends one, overwrites included, and none is reclaimed.  PUTs past
  // that are refused with kServerError (and never logged).
  explicit KvServer(ServerOptions options = {});
  // Test seam: the same server over a store of `store_capacity` records,
  // so a test reaches the full-store refusal without 2^30 PUTs.
  KvServer(ServerOptions options, uint64_t store_capacity);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  // Binds, listens, and launches the worker threads.  Returns false (with
  // *error set) on any socket failure; the server is then inert and may
  // not be restarted.
  bool Start(std::string* error);

  // Closes the listener and every connection, joins the workers.  Safe to
  // call repeatedly; also called by the destructor.
  void Stop();

  // Port actually bound (resolves options.port == 0). Valid after Start.
  uint16_t port() const { return port_; }

  ServerStats StatsSnapshot() const;

  // Quiescent-only introspection for tests and benches.
  const Index& index() const { return *index_; }
  const RecordStore& store() const { return store_; }
  size_t live_keys() const { return index_->size(); }

  // Durability surface.  TriggerSnapshot runs one full snapshot cycle —
  // rotate the WAL (cut), ordered scan into <data_dir>/snapshot.snap.tmp,
  // atomic rename, prune covered segments — concurrently with serving
  // traffic (the fuzzy-scan protocol in persist/recovery.h makes that
  // safe).  Fails on a volatile server.  Safe from any thread; cycles are
  // serialized.
  bool TriggerSnapshot(std::string* error);
  bool durable() const { return wal_ != nullptr; }
  const RecoveryInfo& recovery() const { return recovery_; }
  uint64_t wal_durable_lsn() const {
    return wal_ ? wal_->durable_lsn() : 0;
  }

  // Runtime toggle of the GET drain mode (bench/net_throughput flips it
  // between phases so batched and scalar runs share one loaded server).
  // Takes effect from the next event-loop iteration.
  void set_force_scalar(bool v) {
    force_scalar_.store(v, std::memory_order_relaxed);
  }
  bool force_scalar() const {
    return force_scalar_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;
  friend struct Worker;

  // Recovery half of Start(): rebuild store_/index_ from data_dir and open
  // the WAL at its resume point.  Runs before any worker thread exists.
  bool RecoverAndOpenWal(std::string* error);
  void SnapshotLoop();  // background auto-snapshot trigger

  // Durable-mode write ordering: the stripe lock covering a key is held
  // across {WAL append, index apply}, so per-key apply order equals LSN
  // order and recovery's last-LSN-wins replay reconstructs exactly the
  // state clients observed — without it, two workers racing on one key
  // could ack A's value live but replay B's after a crash.  Returns an
  // unlocked (empty) guard on a volatile server: with no WAL there is no
  // LSN order to agree with, and the index is internally synchronized.
  // 32 stripes, not more: the snapshot rotate quiesces by holding ALL of
  // them (plus the snapshot and WAL mutexes), and TSan's deadlock
  // detector hard-caps simultaneously held locks per thread at 64.
  static constexpr size_t kWriteStripes = 32;
  std::unique_lock<std::mutex> WriteStripeLock(KeyRef key) {
    if (wal_ == nullptr) return {};
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the raw key
    for (size_t i = 0; i < key.size(); ++i) {
      h = (h ^ key.data()[i]) * 1099511628211ull;
    }
    return std::unique_lock<std::mutex>(write_stripes_[h % kWriteStripes]);
  }

  ServerOptions options_;
  RecordStore store_;
  std::unique_ptr<Index> index_;
  std::unique_ptr<persist::Wal> wal_;
  RecoveryInfo recovery_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::thread snapshot_thread_;
  std::array<std::mutex, kWriteStripes> write_stripes_;
  std::mutex snapshot_mu_;  // serializes snapshot cycles
  std::mutex snapshot_wait_mu_;
  std::condition_variable snapshot_cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> force_scalar_{false};
  std::atomic<unsigned> next_worker_{0};  // round-robin accept dealing

  // One cache line of relaxed counters per stat field would be overkill;
  // a single atomic mirror of ServerStats is enough for test-grade stats.
  struct AtomicStats;
  std::unique_ptr<AtomicStats> stats_;
};

}  // namespace net
}  // namespace hot

#endif  // HOT_NET_SERVER_H_

#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <limits>
#include <mutex>
#include <span>

#include "persist/recovery.h"
#include "persist/snapshot.h"

namespace hot {
namespace net {

namespace {

// epoll_event.data.u64 tags: the two singleton fds get small integers,
// every connection gets its (pointer-aligned, hence > 1) Conn*.
constexpr uint64_t kTagEventFd = 0;
constexpr uint64_t kTagListenFd = 1;

}  // namespace

// --- stats -------------------------------------------------------------------

struct KvServer::AtomicStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> frames_in{0};
  std::atomic<uint64_t> replies_out{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> deletes{0};
  std::atomic<uint64_t> scans{0};
  std::atomic<uint64_t> scan_items{0};
  std::atomic<uint64_t> batch_drains{0};
  std::atomic<uint64_t> batched_gets{0};
  std::atomic<uint64_t> scalar_drains{0};
  std::atomic<uint64_t> scalar_gets{0};
  std::atomic<uint64_t> max_batch{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> bad_requests{0};
  std::atomic<uint64_t> keys_too_long{0};
  std::atomic<uint64_t> wal_commit_failures{0};
  std::atomic<uint64_t> snapshots_taken{0};
  std::atomic<uint64_t> snapshot_failures{0};
  std::atomic<uint64_t> snapshot_last_records{0};

  void MaxBatch(uint64_t n) {
    uint64_t prev = max_batch.load(std::memory_order_relaxed);
    while (n > prev && !max_batch.compare_exchange_weak(
                           prev, n, std::memory_order_relaxed)) {
    }
  }
};

ServerStats KvServer::StatsSnapshot() const {
  const AtomicStats& a = *stats_;
  ServerStats s;
  s.connections_accepted = a.connections_accepted.load();
  s.connections_closed = a.connections_closed.load();
  s.frames_in = a.frames_in.load();
  s.replies_out = a.replies_out.load();
  s.bytes_in = a.bytes_in.load();
  s.bytes_out = a.bytes_out.load();
  s.gets = a.gets.load();
  s.puts = a.puts.load();
  s.deletes = a.deletes.load();
  s.scans = a.scans.load();
  s.scan_items = a.scan_items.load();
  s.batch_drains = a.batch_drains.load();
  s.batched_gets = a.batched_gets.load();
  s.scalar_drains = a.scalar_drains.load();
  s.scalar_gets = a.scalar_gets.load();
  s.max_batch = a.max_batch.load();
  s.protocol_errors = a.protocol_errors.load();
  s.bad_requests = a.bad_requests.load();
  s.keys_too_long = a.keys_too_long.load();
  s.wal_commit_failures = a.wal_commit_failures.load();
  s.snapshots_taken = a.snapshots_taken.load();
  s.snapshot_failures = a.snapshot_failures.load();
  s.snapshot_last_records = a.snapshot_last_records.load();
  if (wal_ != nullptr) {
    persist::WalStats w = wal_->stats();
    s.wal_appends = w.appends;
    s.wal_writes = w.writes;
    s.wal_fsyncs = w.fsyncs;
    s.wal_sync_commits = w.sync_commits;
    s.wal_group_committed = w.group_committed;
    s.wal_rotations = w.rotations;
    s.wal_segments_pruned = w.segments_pruned;
  }
  return s;
}

// --- per-connection state ----------------------------------------------------

namespace {

struct Conn {
  int fd = -1;
  std::vector<uint8_t> in;    // an incomplete frame carried between reads
  std::vector<uint8_t> out;   // replies not yet written
  size_t out_off = 0;         // prefix of `out` already written
  bool want_close = false;    // close once `out` drains (fatal frame error)
  bool dead = false;          // reaped at end of the loop iteration
  bool epollout = false;      // EPOLLOUT currently registered
  bool paused = false;        // EPOLLIN dropped by backpressure
  bool touched = false;       // queued for the end-of-iteration flush

  size_t pending_out() const { return out.size() - out_off; }
};

// One queued GET: the escaped key lives in the worker's batch arena (frames
// are parsed out of a read buffer the next read(2) overwrites, so the key
// bytes must be copied out anyway — copying the escaped form kills two
// birds).
struct PendingGet {
  Conn* conn;
  uint64_t req_id;
  uint32_t key_off;
  uint32_t key_len;
};

}  // namespace

// --- worker ------------------------------------------------------------------

struct KvServer::Worker {
  KvServer* server = nullptr;
  unsigned id = 0;
  int epoll_fd = -1;
  int event_fd = -1;
  bool owns_listener = false;

  std::mutex inbox_mu;
  std::vector<int> inbox;  // fds dealt to this worker by the acceptor

  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<PendingGet> pending;
  std::vector<uint8_t> arena;  // escaped key bytes of `pending`
  std::vector<KeyRef> batch_keys;
  std::vector<std::optional<uint64_t>> batch_out;
  std::vector<uint8_t> esc_scratch;  // escape buffer for inline ops
  std::vector<Conn*> touched;

  ~Worker() {
    for (auto& c : conns) {
      if (c->fd >= 0) ::close(c->fd);
    }
    if (event_fd >= 0) ::close(event_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  bool Init() {
    epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) return false;
    event_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd < 0) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagEventFd;
    return epoll_ctl(epoll_fd, EPOLL_CTL_ADD, event_fd, &ev) == 0;
  }

  void Wake() {
    uint64_t one = 1;
    ssize_t rc = ::write(event_fd, &one, sizeof(one));
    (void)rc;  // EAGAIN just means a wakeup is already pending
  }

  void Deal(int fd) {
    {
      std::lock_guard<std::mutex> guard(inbox_mu);
      inbox.push_back(fd);
    }
    Wake();
  }

  void Run() {
    constexpr int kMaxEvents = 128;
    epoll_event events[kMaxEvents];
    while (server->running_.load(std::memory_order_acquire)) {
      int n = epoll_wait(epoll_fd, events, kMaxEvents, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        uint64_t tag = events[i].data.u64;
        if (tag == kTagEventFd) {
          DrainEventFd();
        } else if (tag == kTagListenFd) {
          AcceptAll();
        } else {
          Conn* c = reinterpret_cast<Conn*>(tag);
          if (c->dead) continue;
          if (events[i].events & (EPOLLHUP | EPOLLERR)) {
            c->dead = true;
            continue;
          }
          if (events[i].events & EPOLLIN) ReadAndParse(c);
          if (!c->dead && (events[i].events & EPOLLOUT)) FlushOut(c);
        }
      }
      DrainGets();
      for (Conn* c : touched) {
        c->touched = false;
        if (!c->dead) FlushOut(c);
      }
      touched.clear();
      Reap();
    }
  }

  void DrainEventFd() {
    uint64_t count;
    while (::read(event_fd, &count, sizeof(count)) > 0) {
    }
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> guard(inbox_mu);
      fds.swap(inbox);
    }
    for (int fd : fds) Adopt(fd);
  }

  void Adopt(int fd) {
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = reinterpret_cast<uint64_t>(conn.get());
    if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      server->stats_->connections_closed.fetch_add(
          1, std::memory_order_relaxed);
      return;
    }
    conns.push_back(std::move(conn));
  }

  void AcceptAll() {
    while (true) {
      int fd = accept4(server->listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN or a transient error: wait for the next
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      server->stats_->connections_accepted.fetch_add(
          1, std::memory_order_relaxed);
      unsigned target =
          server->next_worker_.fetch_add(1, std::memory_order_relaxed) %
          static_cast<unsigned>(server->workers_.size());
      server->workers_[target]->Deal(fd);
    }
  }

  void Touch(Conn* c) {
    if (!c->touched) {
      c->touched = true;
      touched.push_back(c);
    }
  }

  void ReadAndParse(Conn* c) {
    uint8_t buf[64 * 1024];
    while (true) {
      ssize_t n = ::read(c->fd, buf, sizeof(buf));
      if (n > 0) {
        server->stats_->bytes_in.fetch_add(static_cast<uint64_t>(n),
                                           std::memory_order_relaxed);
        Consume(c, buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buf)) break;  // drained
      } else if (n == 0) {
        c->dead = true;  // peer closed; pending replies are undeliverable
        return;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else if (errno == EINTR) {
        continue;
      } else {
        c->dead = true;
        return;
      }
    }
    MaybePause(c);
  }

  // Handles the bytes of one read(2).  Whole frames are parsed in place;
  // only an incomplete trailing frame is copied into c->in.  The next read
  // first tops that frame up — its length prefix, then the body the prefix
  // declares — and parses it from c->in, then goes back to parsing in
  // place.  Bytes after a fatal framing error are dropped unread.
  void Consume(Conn* c, const uint8_t* data, size_t n) {
    while (!c->in.empty() && n > 0 && !c->want_close) {
      const size_t have = c->in.size();
      const size_t frame = have < 4 ? 4 : 4 + size_t{GetU32(c->in.data())};
      const size_t take = std::min(frame - have, n);
      c->in.insert(c->in.end(), data, data + take);
      data += take;
      n -= take;
      if (ParseFrames(c, c->in.data(), c->in.size()) > 0) c->in.clear();
    }
    size_t used = ParseFrames(c, data, n);
    if (used < n && !c->want_close) c->in.assign(data + used, data + n);
  }

  // Handles every complete frame at the front of [data, data + n) and
  // returns the number of bytes they span.
  size_t ParseFrames(Conn* c, const uint8_t* data, size_t n) {
    size_t used = 0;
    const ServerOptions& opt = server->options_;
    while (!c->want_close) {
      const uint8_t* body;
      size_t body_len, consumed;
      FrameVerdict v = NextFrame(data + used, n - used, opt.max_frame_body,
                                 &body, &body_len, &consumed);
      if (v == FrameVerdict::kNeedMore) break;
      if (v == FrameVerdict::kBadLength) {
        // The stream cannot be re-synchronized after an invalid length:
        // reply once (id 0 — the frame never yielded one) and close.
        server->stats_->protocol_errors.fetch_add(1,
                                                  std::memory_order_relaxed);
        ErrorReply(c, 0, kBadFrame, "invalid frame length");
        c->want_close = true;
        break;
      }
      server->stats_->frames_in.fetch_add(1, std::memory_order_relaxed);
      HandleFrame(c, body, body_len);
      used += consumed;
    }
    return used;
  }

  void ErrorReply(Conn* c, uint64_t req_id, uint8_t status,
                  const std::string& message) {
    EncodeErrorReply(&c->out, req_id, status, message);
    server->stats_->replies_out.fetch_add(1, std::memory_order_relaxed);
    Touch(c);
  }

  // Waits out the durability contract of an appended record (persist/wal.h
  // Commit).  True = ack; false = the commit failed (only an fsync/write
  // failure gets here) and a kServerError reply is queued instead.  The op
  // was already applied to the live index — append and apply happen
  // together under the key's write stripe, before this wait — but it was
  // never acknowledged, so recovery is free to drop it.  No-op on a
  // volatile server.
  bool WalCommit(Conn* c, uint64_t req_id, uint64_t lsn) {
    if (server->wal_ == nullptr) return true;
    std::string werr;
    if (server->wal_->Commit(lsn, &werr)) return true;
    server->stats_->wal_commit_failures.fetch_add(1,
                                                  std::memory_order_relaxed);
    ErrorReply(c, req_id, kServerError, "wal commit: " + werr);
    return false;
  }

  void HandleFrame(Conn* c, const uint8_t* body, size_t body_len) {
    AtomicStats& st = *server->stats_;
    Request req;
    std::string perr;
    ParseVerdict v = ParseRequest(body, body_len, &req, &perr);
    if (v != ParseVerdict::kParsedOk) {
      uint8_t status =
          v == ParseVerdict::kParseKeyTooLong ? kKeyTooLong : kBadRequest;
      (status == kKeyTooLong ? st.keys_too_long : st.bad_requests)
          .fetch_add(1, std::memory_order_relaxed);
      ErrorReply(c, req.id, status, perr);
      return;
    }
    switch (req.op) {
      case kOpGet: {
        st.gets.fetch_add(1, std::memory_order_relaxed);
        // Deferred: queue the ESCAPED key; the end-of-iteration drain
        // answers every queued GET in one batched descent.
        uint32_t off = static_cast<uint32_t>(arena.size());
        EscapeKey(req.key, &arena);
        uint32_t len = static_cast<uint32_t>(arena.size()) - off;
        pending.push_back({c, req.id, off, len});
        Touch(c);
        break;
      }
      case kOpPut: {
        st.puts.fetch_add(1, std::memory_order_relaxed);
        if (!KeyFitsIndex(req.key)) {
          st.keys_too_long.fetch_add(1, std::memory_order_relaxed);
          ErrorReply(c, req.id, kKeyTooLong, "escaped key exceeds index limit");
          break;
        }
        // Log before apply, both under the key's write stripe: the WAL's
        // LSN order and the index's apply order agree per key, so
        // recovery's last-LSN-wins replay reproduces exactly what clients
        // observed.  The record slot is taken before the WAL append: a PUT
        // the full store refuses is never logged, so it cannot come back
        // after a restart.  The durability wait (Commit) happens after the
        // stripe is released — group commit still amortizes across keys —
        // and a commit failure refuses the ack: never acknowledge what
        // recovery could not reproduce.
        uint64_t lsn = 0;
        std::optional<uint64_t> id;
        std::optional<uint64_t> prev_id;
        {
          std::unique_lock<std::mutex> stripe =
              server->WriteStripeLock(req.key);
          id = server->store_.Append(req.key, req.value);
          if (id.has_value()) {
            if (server->wal_ != nullptr) {
              lsn = server->wal_->Append(persist::kWalPut, req.key,
                                         req.value);
            }
            KeyRef esc = server->store_.At(*id).escaped_key();
            prev_id = server->index_->Upsert(*id, esc);
          }
        }
        if (!id.has_value()) {
          ErrorReply(c, req.id, kServerError, "record store full");
          break;
        }
        if (!WalCommit(c, req.id, lsn)) break;
        uint64_t prev =
            prev_id ? server->store_.At(*prev_id).value : uint64_t{0};
        EncodePutReply(&c->out, req.id, !prev_id.has_value(), prev);
        st.replies_out.fetch_add(1, std::memory_order_relaxed);
        Touch(c);
        break;
      }
      case kOpDelete: {
        st.deletes.fetch_add(1, std::memory_order_relaxed);
        bool removed = false;
        if (KeyFitsIndex(req.key)) {
          // Logged even when the key turns out absent: replaying a delete
          // of a missing key is a no-op, and logging-before-apply under
          // the write stripe keeps per-key LSN order equal to apply order
          // (see kOpPut).
          uint64_t lsn = 0;
          {
            std::unique_lock<std::mutex> stripe =
                server->WriteStripeLock(req.key);
            if (server->wal_ != nullptr) {
              lsn = server->wal_->Append(persist::kWalDelete, req.key, 0);
            }
            esc_scratch.clear();
            EscapeKey(req.key, &esc_scratch);
            removed = server->index_->Remove(
                KeyRef(esc_scratch.data(), esc_scratch.size()));
          }
          if (!WalCommit(c, req.id, lsn)) break;
        }  // over-long keys cannot be present: kNotFound
        EncodeDeleteReply(&c->out, req.id, removed);
        st.replies_out.fetch_add(1, std::memory_order_relaxed);
        Touch(c);
        break;
      }
      case kOpScan: {
        st.scans.fetch_add(1, std::memory_order_relaxed);
        uint32_t limit =
            std::min(req.scan_limit, server->options_.max_scan_limit);
        esc_scratch.clear();
        EscapeKey(req.key, &esc_scratch);
        ScanReplyBuilder builder(&c->out, req.id);
        server->index_->ScanFrom(
            KeyRef(esc_scratch.data(), esc_scratch.size()), limit,
            [&](uint64_t id) {
              const RecordStore::Record& rec = server->store_.At(id);
              builder.Add(rec.raw_key(), rec.value);
            });
        builder.Finish();
        st.scan_items.fetch_add(builder.count, std::memory_order_relaxed);
        st.replies_out.fetch_add(1, std::memory_order_relaxed);
        Touch(c);
        break;
      }
    }
  }

  // End-of-iteration GET drain: one memory-level-parallel batched descent
  // over every GET parsed this iteration (across all connections), scalar
  // below the low-watermark or in forced-scalar mode.
  void DrainGets() {
    if (pending.empty()) return;
    AtomicStats& st = *server->stats_;
    const size_t n = pending.size();
    batch_keys.resize(n);
    for (size_t i = 0; i < n; ++i) {
      batch_keys[i] =
          KeyRef(arena.data() + pending[i].key_off, pending[i].key_len);
    }
    batch_out.assign(n, std::nullopt);
    unsigned watermark = std::max(2u, server->options_.batch_low_watermark);
    if (!server->force_scalar_.load(std::memory_order_relaxed) &&
        n >= watermark) {
      server->index_->LookupBatch(
          std::span<const KeyRef>(batch_keys.data(), n),
          std::span<std::optional<uint64_t>>(batch_out.data(), n));
      st.batch_drains.fetch_add(1, std::memory_order_relaxed);
      st.batched_gets.fetch_add(n, std::memory_order_relaxed);
      st.MaxBatch(n);
    } else {
      for (size_t i = 0; i < n; ++i) {
        batch_out[i] = server->index_->Lookup(batch_keys[i]);
      }
      st.scalar_drains.fetch_add(1, std::memory_order_relaxed);
      st.scalar_gets.fetch_add(n, std::memory_order_relaxed);
    }
    for (size_t i = 0; i < n; ++i) {
      Conn* c = pending[i].conn;
      if (c->dead) continue;  // peer gone before its answer materialized
      bool found = batch_out[i].has_value();
      uint64_t value =
          found ? server->store_.At(*batch_out[i]).value : uint64_t{0};
      EncodeGetReply(&c->out, pending[i].req_id, found, value);
      st.replies_out.fetch_add(1, std::memory_order_relaxed);
      Touch(c);
    }
    pending.clear();
    arena.clear();
  }

  void FlushOut(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t n = ::write(c->fd, c->out.data() + c->out_off,
                          c->out.size() - c->out_off);
      if (n > 0) {
        c->out_off += static_cast<size_t>(n);
        server->stats_->bytes_out.fetch_add(static_cast<uint64_t>(n),
                                            std::memory_order_relaxed);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        SetEpollOut(c, true);
        MaybePause(c);
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        c->dead = true;
        return;
      }
    }
    c->out.clear();
    c->out_off = 0;
    SetEpollOut(c, false);
    if (c->want_close) {
      c->dead = true;
    } else {
      MaybePause(c);
    }
  }

  void SetEpollOut(Conn* c, bool enable) {
    if (c->epollout == enable) return;
    c->epollout = enable;
    UpdateEpoll(c);
  }

  // Backpressure: drop EPOLLIN while the reply backlog is above the high
  // watermark, restore it once the flush brings it under the low one.
  void MaybePause(Conn* c) {
    const ServerOptions& opt = server->options_;
    bool should_pause = c->pending_out() > opt.high_watermark;
    bool should_resume = c->pending_out() < opt.low_watermark;
    if (!c->paused && should_pause) {
      c->paused = true;
      UpdateEpoll(c);
    } else if (c->paused && should_resume) {
      c->paused = false;
      UpdateEpoll(c);
    }
  }

  void UpdateEpoll(Conn* c) {
    epoll_event ev{};
    ev.events = (c->paused ? 0u : EPOLLIN) | (c->epollout ? EPOLLOUT : 0u);
    ev.data.u64 = reinterpret_cast<uint64_t>(c);
    epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void Reap() {
    for (size_t i = 0; i < conns.size();) {
      if (!conns[i]->dead) {
        ++i;
        continue;
      }
      Conn* c = conns[i].get();
      epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
      ::close(c->fd);
      c->fd = -1;
      server->stats_->connections_closed.fetch_add(1,
                                                   std::memory_order_relaxed);
      conns[i] = std::move(conns.back());
      conns.pop_back();
    }
  }
};

// --- server lifecycle --------------------------------------------------------

KvServer::KvServer(ServerOptions options)
    : KvServer(std::move(options), RecordStore::kMaxRecords) {}

KvServer::KvServer(ServerOptions options, uint64_t store_capacity)
    : options_(std::move(options)),
      store_(store_capacity),
      stats_(std::make_unique<AtomicStats>()) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.shards == 0) options_.shards = 1;
  force_scalar_.store(options_.force_scalar, std::memory_order_relaxed);
  index_ = std::make_unique<Index>(
      ycsb::UniformByteSplitters(options_.shards),
      RecordKeyExtractor(&store_));
}

KvServer::~KvServer() { Stop(); }

bool KvServer::Start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) {
      *error = std::string(what) + ": " + strerror(errno);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  if (started_.exchange(true)) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  // Recovery first: the image must be rebuilt and the WAL open before a
  // single connection can reach HandleFrame.
  if (!options_.data_dir.empty() && !RecoverAndOpenWal(error)) return false;
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (listen(listen_fd_, 512) != 0) return fail("listen");
  socklen_t alen = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen) !=
      0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  running_.store(true, std::memory_order_release);
  for (unsigned w = 0; w < options_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->server = this;
    worker->id = w;
    if (!worker->Init()) {
      running_.store(false, std::memory_order_release);
      Stop();
      return fail("worker init");
    }
    workers_.push_back(std::move(worker));
  }
  // Worker 0 owns the listener.
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kTagListenFd;
    if (epoll_ctl(workers_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) !=
        0) {
      running_.store(false, std::memory_order_release);
      Stop();
      return fail("epoll add listener");
    }
    workers_[0]->owns_listener = true;
  }
  for (auto& worker : workers_) {
    threads_.emplace_back([w = worker.get()]() { w->Run(); });
  }
  if (wal_ != nullptr && options_.snapshot_trigger_bytes > 0) {
    snapshot_thread_ = std::thread([this] { SnapshotLoop(); });
  }
  return true;
}

void KvServer::Stop() {
  bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (was_running) {
    for (auto& worker : workers_) worker->Wake();
  }
  {
    std::lock_guard<std::mutex> lk(snapshot_wait_mu_);
    snapshot_cv_.notify_all();
  }
  if (snapshot_thread_.joinable()) snapshot_thread_.join();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  // Account connections the workers still held when they exited.
  for (auto& worker : workers_) {
    for (auto& c : worker->conns) {
      if (c->fd >= 0) {
        ::close(c->fd);
        c->fd = -1;
        stats_->connections_closed.fetch_add(1, std::memory_order_relaxed);
      }
    }
    worker->conns.clear();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // After the workers: nothing appends anymore, so Close's final sync
  // flush makes every accepted-but-async write durable on clean shutdown.
  if (wal_ != nullptr) wal_->Close();
}

// --- durability --------------------------------------------------------------

bool KvServer::RecoverAndOpenWal(std::string* error) {
  namespace ps = persist;
  using Clock = std::chrono::steady_clock;

  auto t0 = Clock::now();
  ps::RecoveryResult rec;
  if (!ps::RecoverImage(options_.data_dir, &rec, error)) return false;
  auto t1 = Clock::now();

  // Refill the record store in merged (ascending-key) order: ids come out
  // 0..n-1, so the id sequence IS the key-sorted value sequence the bulk
  // build wants.
  const size_t n = rec.records.size();
  std::vector<uint64_t> ids;
  ids.reserve(n);
  for (const ps::RecoveredRecord& r : rec.records) {
    // Every record passed KeyFitsIndex when it was first accepted.
    assert(KeyFitsIndex(r.key_ref()));
    std::optional<uint64_t> id = store_.Append(r.key_ref(), r.value);
    if (!id.has_value()) {
      if (error != nullptr) {
        *error = "recovered image holds " + std::to_string(n) +
                 " keys, more than the record store's capacity of " +
                 std::to_string(store_.capacity());
      }
      return false;
    }
    ids.push_back(*id);
  }

  if (n > 0) {
    // Equi-depth splitters from the recovered escaped keys, so a skewed
    // key space (shared prefixes) redistributes instead of collapsing
    // into one shard of UniformByteSplitters.  Boundary keys must ascend
    // strictly; equal neighbors are skipped (fewer shards, still correct).
    ycsb::SplitterKeys splitters;
    for (unsigned s = 1; s < options_.shards; ++s) {
      KeyRef k = store_.At(ids[n * s / options_.shards]).escaped_key();
      if (!splitters.empty() &&
          KeyRef(splitters.back().data(), splitters.back().size())
                  .Compare(k) >= 0) {
        continue;
      }
      splitters.emplace_back(k.data(), k.data() + k.size());
    }
    if (!splitters.empty()) index_->Reshard(std::move(splitters));
    unsigned threads = options_.recovery_threads != 0
                           ? options_.recovery_threads
                           : std::max(1u, std::thread::hardware_concurrency());
    index_->BulkLoadSorted(std::span<const uint64_t>(ids.data(), n), threads);
  }
  auto t2 = Clock::now();

  recovery_.performed = true;
  recovery_.snapshot_loaded = rec.snapshot_loaded;
  recovery_.torn_tail = rec.torn_tail;
  recovery_.records = n;
  recovery_.snapshot_records = rec.snapshot_records;
  recovery_.wal_segments = rec.wal_segments;
  recovery_.wal_records_applied = rec.wal_records_applied;
  recovery_.wal_records_stale = rec.wal_records_stale;
  recovery_.last_lsn = rec.last_lsn;
  recovery_.recover_seconds = std::chrono::duration<double>(t1 - t0).count();
  recovery_.build_seconds = std::chrono::duration<double>(t2 - t1).count();

  ps::Wal::Options wopt;
  wopt.durability = options_.durability;
  wopt.flush_interval_ms = options_.wal_flush_ms;
  wal_ = std::make_unique<ps::Wal>();
  if (!wal_->Open(options_.data_dir, rec.resume, wopt, error)) {
    wal_.reset();
    return false;
  }
  return true;
}

bool KvServer::TriggerSnapshot(std::string* error) {
  if (wal_ == nullptr) {
    if (error != nullptr) *error = "server has no data_dir (volatile)";
    return false;
  }
  std::lock_guard<std::mutex> cycle(snapshot_mu_);
  auto fail = [&](const std::string& why) {
    stats_->snapshot_failures.fetch_add(1, std::memory_order_relaxed);
    if (error != nullptr) *error = why;
    return false;
  };

  // Rotate first: cut C = last LSN the old segments can contain.  Writes
  // landing during the scan go to the new segment (lsn > C) and replay
  // idempotently whether or not the scan saw them (persist/recovery.h).
  // All write stripes are held across the rotate so no op sits between
  // WAL append and index apply when C is taken: every lsn <= C is applied
  // before the scan below starts, so the snapshot + new segment really
  // cover everything once the old segments are pruned.  Writers stall for
  // the rotate (one flush + fsync), not for the scan.
  std::string err;
  uint64_t cut;
  {
    std::array<std::unique_lock<std::mutex>, kWriteStripes> quiesce;
    for (size_t i = 0; i < kWriteStripes; ++i) {
      quiesce[i] = std::unique_lock<std::mutex>(write_stripes_[i]);
    }
    cut = wal_->Rotate(&err);
  }
  if (!err.empty()) return fail("wal rotate: " + err);

  persist::SnapshotWriter writer;
  if (!writer.Open(persist::SnapshotPath(options_.data_dir), &err)) {
    return fail(err);
  }
  // Global ordered scan; per-shard epoch protection inside the index.  A
  // key upserted mid-scan contributes whichever record id the scan caught
  // — either version replays to the same final state.
  index_->ScanFrom(KeyRef(), std::numeric_limits<size_t>::max(),
                   [&](uint64_t id) {
                     const RecordStore::Record& r = store_.At(id);
                     writer.Add(r.raw_key(), r.value);
                   });
  if (!writer.Finish(cut, &err)) return fail(err);

  // Only after the rename is durable may the covered segments go.
  wal_->PruneBelowCurrent();
  stats_->snapshots_taken.fetch_add(1, std::memory_order_relaxed);
  stats_->snapshot_last_records.store(writer.count(),
                                      std::memory_order_relaxed);
  return true;
}

void KvServer::SnapshotLoop() {
  while (running_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lk(snapshot_wait_mu_);
      snapshot_cv_.wait_for(lk, std::chrono::milliseconds(100), [this] {
        return !running_.load(std::memory_order_acquire);
      });
    }
    if (!running_.load(std::memory_order_acquire)) break;
    if (wal_->segment_bytes() < options_.snapshot_trigger_bytes) continue;
    std::string err;
    (void)TriggerSnapshot(&err);  // failure counted; retried next trigger
  }
}

}  // namespace net
}  // namespace hot

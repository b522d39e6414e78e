// Group-committed write-ahead log with CRC-framed records and a
// torn-tail-tolerant reader (DESIGN.md §13).
//
// The WAL is the durability half of the persistence subsystem: every
// acknowledged PUT/DELETE is appended as one length+CRC32C frame before the
// reply leaves the server, and recovery replays the tail on top of the last
// snapshot.  Recovery-by-rebuild (snapshot + tail -> ParallelBulkBuild)
// keeps the log logical — raw wire key + value, nothing about nodes — so
// the index layout can change without invalidating a byte on disk.
//
// On-disk layout (all integers little-endian):
//
//   segment file  wal-<seq 8 digits>.log
//     u64 magic "HOTWAL01" | u32 version | u32 crc32c(first 12 bytes)
//     frame*
//   frame
//     u32 body_len | u32 crc32c(body) | body
//   body
//     u64 lsn | u8 op (1=put 2=delete) | u32 klen | klen key bytes
//     | u64 value          (put only)
//
// Torn-tail tolerance: a crash can leave a partially written final frame
// (short header, short body, or a body that fails its CRC).  ReadWalSegment
// stops at the FIRST invalid frame and reports the byte offset of the last
// valid one; recovery accepts a torn tail only in the newest segment
// (anything earlier is real corruption) and the writer truncates the tail
// before appending again.  A frame is either wholly recovered or not at all
// — there is no half-applied record.
//
// Group commit: Append() encodes into an in-memory buffer under a mutex
// and assigns the LSN; Commit(lsn) — the sync-durability ack gate — blocks
// until durable_lsn >= lsn.  The first committer becomes the flush leader:
// it swaps the buffer out, writes, fdatasyncs ONCE, and publishes the new
// durable LSN; every waiter whose LSN the batch covered returns without
// issuing its own fsync.  N concurrent writers therefore cost ~1 fsync per
// batch, not per write (stats record the amortization).  Under kAsync and
// kNone an ack means only that the frame sits in the in-memory buffer.  It
// reaches write() on the background flusher's tick every flush interval
// (kAsync also fdatasyncs then), when the buffer passes the write-out
// threshold in Append (256 KiB by default), or on rotation or close.  So in
// either mode a process crash can lose up to one flush interval of acked
// writes, and since kNone never fsyncs, an OS crash can lose more.

#ifndef HOT_PERSIST_WAL_H_
#define HOT_PERSIST_WAL_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bits.h"
#include "common/key.h"
#include "persist/crc32c.h"

namespace hot {
namespace persist {

// Durability of the acknowledgement: what a client may assume about an
// acked write if the server dies immediately after replying.
enum class Durability : uint8_t {
  kNone,   // write() every flush interval, never fsynced: a process crash
           // loses up to one interval of acks, an OS crash more
  kAsync,  // write() + fdatasync every flush interval: a crash loses up to
           // one interval of acks
  kSync,   // group-committed fdatasync before the ack (zero loss)
};

inline const char* DurabilityName(Durability d) {
  switch (d) {
    case Durability::kNone: return "none";
    case Durability::kAsync: return "async";
    case Durability::kSync: return "sync";
  }
  return "?";
}

inline bool DurabilityFromName(const std::string& name, Durability* out) {
  if (name == "none") { *out = Durability::kNone; return true; }
  if (name == "async") { *out = Durability::kAsync; return true; }
  if (name == "sync") { *out = Durability::kSync; return true; }
  return false;
}

enum WalOpKind : uint8_t {
  kWalPut = 1,
  kWalDelete = 2,
};

inline constexpr uint64_t kWalMagic = 0x31304C4157544F48ull;  // "HOTWAL01"
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalFileHeaderBytes = 16;
inline constexpr size_t kWalFrameHeaderBytes = 8;
// Largest legal body: u64 lsn + op + klen + 64 KiB key + u64 value, rounded
// way up.  Anything larger in a length prefix is corruption, not data.
inline constexpr uint32_t kMaxWalBody = 1u << 20;

namespace detail {

inline bool WriteAll(int fd, const uint8_t* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<size_t>(w);
    n -= static_cast<size_t>(w);
  }
  return true;
}

// fsync the directory entry so a freshly created/renamed file survives a
// power cut.  Best-effort: some filesystems reject O_DIRECTORY fsync.
inline void FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace detail

// --- segment naming / discovery ----------------------------------------------

inline std::string WalSegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

// Parses "wal-<digits>.log"; returns false for anything else.
inline bool ParseWalSegmentName(const std::string& name, uint64_t* seq) {
  if (name.size() < 13 || name.compare(0, 4, "wal-") != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  uint64_t s = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    s = s * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = s;
  return true;
}

// All WAL segments in `dir`, sorted by ascending sequence number.
inline std::vector<std::pair<uint64_t, std::string>> ListWalSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    uint64_t seq;
    if (ParseWalSegmentName(e->d_name, &seq)) {
      out.emplace_back(seq, dir + "/" + e->d_name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

// --- reader ------------------------------------------------------------------

struct WalRecord {
  uint64_t lsn = 0;
  uint8_t op = 0;  // kWalPut / kWalDelete
  KeyRef key;      // borrows the reader's buffer; copy to retain
  uint64_t value = 0;
};

struct WalReadResult {
  bool ok = false;          // file readable and header valid
  bool torn = false;        // stopped at an invalid frame before EOF-clean
  uint64_t frames = 0;      // valid frames delivered
  uint64_t last_lsn = 0;    // highest LSN delivered
  uint64_t valid_end = 0;   // byte offset just past the last valid frame
  std::string error;        // set when !ok
};

// Reads every valid frame of one segment in order, stopping cleanly at the
// first invalid one (truncated header/body, hostile length, CRC mismatch).
// The key in each delivered record borrows the read buffer — copy it out if
// it must outlive the callback.
template <typename Fn>
WalReadResult ReadWalSegment(const std::string& path, Fn&& fn) {
  WalReadResult r;
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    r.error = path + ": open: " + std::strerror(errno);
    return r;
  }
  std::vector<uint8_t> data;
  {
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      r.error = path + ": fstat: " + std::strerror(errno);
      ::close(fd);
      return r;
    }
    data.resize(static_cast<size_t>(st.st_size));
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = ::pread(fd, data.data() + off, data.size() - off,
                          static_cast<off_t>(off));
      if (n < 0) {
        if (errno == EINTR) continue;
        r.error = path + ": read: " + std::strerror(errno);
        ::close(fd);
        return r;
      }
      if (n == 0) break;
      off += static_cast<size_t>(n);
    }
    data.resize(off);
  }
  ::close(fd);

  // File header: a file too short for it, or with the wrong magic/CRC, is
  // not a WAL segment at all — that is an error, not a torn tail.
  if (data.size() < kWalFileHeaderBytes) {
    r.error = path + ": shorter than the segment header";
    return r;
  }
  if (GetU64(data.data()) != kWalMagic) {
    r.error = path + ": bad magic (not a WAL segment)";
    return r;
  }
  if (GetU32(data.data() + 8) != kWalVersion) {
    r.error = path + ": unsupported WAL version";
    return r;
  }
  if (GetU32(data.data() + 12) != Crc32c(data.data(), 12)) {
    r.error = path + ": segment header CRC mismatch";
    return r;
  }
  r.ok = true;
  r.valid_end = kWalFileHeaderBytes;

  size_t off = kWalFileHeaderBytes;
  while (true) {
    if (off + kWalFrameHeaderBytes > data.size()) {
      r.torn = off != data.size();
      break;
    }
    uint32_t body_len = GetU32(data.data() + off);
    uint32_t want_crc = GetU32(data.data() + off + 4);
    if (body_len < 13 || body_len > kMaxWalBody ||
        off + kWalFrameHeaderBytes + body_len > data.size()) {
      r.torn = true;  // hostile length or truncated body
      break;
    }
    const uint8_t* body = data.data() + off + kWalFrameHeaderBytes;
    if (Crc32c(body, body_len) != want_crc) {
      r.torn = true;
      break;
    }
    // Body: u64 lsn | u8 op | u32 klen | key | [u64 value].
    WalRecord rec;
    rec.lsn = GetU64(body);
    rec.op = body[8];
    uint32_t klen = GetU32(body + 9);
    size_t expect = 13u + klen + (rec.op == kWalPut ? 8u : 0u);
    if ((rec.op != kWalPut && rec.op != kWalDelete) || expect != body_len) {
      r.torn = true;  // a CRC-valid frame with an impossible body shape
      break;
    }
    rec.key = KeyRef(body + 13, klen);
    if (rec.op == kWalPut) rec.value = GetU64(body + 13 + klen);
    fn(static_cast<const WalRecord&>(rec));
    ++r.frames;
    r.last_lsn = rec.lsn;
    off += kWalFrameHeaderBytes + body_len;
    r.valid_end = off;
  }
  return r;
}

// --- writer ------------------------------------------------------------------

// Where the writer resumes after recovery (persist/recovery.h fills it in).
struct WalResume {
  uint64_t seq = 1;          // segment to continue (or create)
  uint64_t valid_end = 0;    // truncate the existing segment here first
  uint64_t next_lsn = 1;     // first LSN to hand out
  bool segment_exists = false;
};

// Quiescent-exact, concurrently approximate counters (same contract as
// net::ServerStats); surfaced through KvServer stats and kv_server's
// periodic report — the fsync amortization of group commit is
// committed_ops / fsyncs.
struct WalStats {
  uint64_t appends = 0;
  uint64_t append_bytes = 0;
  uint64_t writes = 0;          // write() batches issued
  uint64_t fsyncs = 0;
  uint64_t sync_commits = 0;    // Commit() calls that had to wait or lead
  uint64_t group_committed = 0; // appends made durable by a leader's fsync
  uint64_t rotations = 0;
  uint64_t segments_pruned = 0;
};

class Wal {
 public:
  struct Options {
    Durability durability = Durability::kAsync;
    unsigned flush_interval_ms = 50;     // flusher write(+fsync) cadence
    size_t write_buffer_bytes = 1u << 18;  // inline write-out threshold
  };

  Wal() = default;
  ~Wal() { Close(); }
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Opens (creating the directory entry if needed) the resume segment,
  // truncating any torn tail first, and starts the background flusher.
  bool Open(const std::string& dir, const WalResume& resume, Options options,
            std::string* error) {
    dir_ = dir;
    options_ = options;
    seq_ = resume.seq;
    next_lsn_ = resume.next_lsn;
    std::string path = dir_ + "/" + WalSegmentName(seq_);
    if (resume.segment_exists) {
      fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd_ < 0) return Fail(error, path + ": open");
      uint64_t end = resume.valid_end < kWalFileHeaderBytes
                         ? kWalFileHeaderBytes
                         : resume.valid_end;
      if (::ftruncate(fd_, static_cast<off_t>(end)) != 0) {
        return Fail(error, path + ": ftruncate");
      }
      if (::lseek(fd_, 0, SEEK_END) < 0) return Fail(error, path + ": lseek");
      segment_bytes_ = end;
    } else {
      if (!CreateSegment(path, error)) return false;
    }
    running_.store(true, std::memory_order_release);
    if (options_.durability != Durability::kSync ||
        options_.flush_interval_ms > 0) {
      flusher_ = std::thread([this] { FlusherLoop(); });
    }
    return true;
  }

  // Appends one logical op and returns its LSN.  Thread-safe.  The record
  // is buffered; durability is Commit()'s / the flusher's job.  When the
  // buffer passes the write-out threshold the appender itself becomes the
  // (non-fsync) flush leader so memory stays bounded.
  uint64_t Append(uint8_t op, KeyRef key, uint64_t value) {
    // Body: u64 lsn | u8 op | u32 klen | key | [u64 value].
    const size_t body_len = 13 + key.size() + (op == kWalPut ? 8 : 0);
    const size_t frame_len = kWalFrameHeaderBytes + body_len;
    std::unique_lock<std::mutex> lk(mu_);
    uint64_t lsn = next_lsn_++;
    size_t before = pending_.size();
    pending_.resize(before + frame_len);
    uint8_t* frame = pending_.data() + before;
    uint8_t* body = frame + kWalFrameHeaderBytes;
    StoreU64(body, lsn);
    body[8] = op;
    StoreU32(body + 9, static_cast<uint32_t>(key.size()));
    if (key.size() != 0) std::memcpy(body + 13, key.data(), key.size());
    if (op == kWalPut) StoreU64(body + 13 + key.size(), value);
    StoreU32(frame, static_cast<uint32_t>(body_len));
    StoreU32(frame + 4, Crc32c(body, body_len));
    last_appended_lsn_ = lsn;
    stats_.appends++;
    stats_.append_bytes += frame_len;
    if (pending_.size() >= options_.write_buffer_bytes && !flushing_) {
      // Threshold write-out only when no leader flush is in flight:
      // FlushLocked requires a single leader, and an in-flight leader
      // already swapped the previous buffer out — whoever crosses the
      // threshold next (or the next Commit / flusher tick) drains this
      // one, so the skip leaves memory bounded by one flush's backlog.
      FlushLocked(&lk, /*sync=*/false);
    }
    return lsn;
  }

  // Sync-durability ack gate: returns once every record up to `lsn` is on
  // disk.  First waiter in becomes the group-commit leader.  Under kNone /
  // kAsync this is a no-op (the ack contract is weaker by configuration).
  bool Commit(uint64_t lsn, std::string* error) {
    if (options_.durability != Durability::kSync) return true;
    std::unique_lock<std::mutex> lk(mu_);
    stats_.sync_commits++;
    while (durable_lsn_ < lsn) {
      if (io_error_) {
        if (error != nullptr) *error = io_error_text_;
        return false;
      }
      if (!flushing_) {
        FlushLocked(&lk, /*sync=*/true);
        continue;  // re-check: our LSN was covered by the batch we led
      }
      cv_.wait(lk);
    }
    return true;
  }

  // Manual flush: write out everything appended so far, fdatasync if
  // `sync`.  Used by Close, rotation, and tests.
  bool Flush(bool sync, std::string* error) {
    std::unique_lock<std::mutex> lk(mu_);
    while (flushing_) cv_.wait(lk);
    FlushLocked(&lk, sync);
    if (io_error_) {
      if (error != nullptr) *error = io_error_text_;
      return false;
    }
    return true;
  }

  // Closes the current segment (flushed + fsynced) and opens the next.
  // Returns the last LSN the closed segment can contain — the snapshot
  // cut: every record at or below it lives in pruned-to-be segments, every
  // record above it in the new one.
  uint64_t Rotate(std::string* error) {
    std::unique_lock<std::mutex> lk(mu_);
    while (flushing_) cv_.wait(lk);
    FlushLocked(&lk, /*sync=*/true);
    if (io_error_) {
      if (error != nullptr) *error = io_error_text_;
      return 0;
    }
    uint64_t cut = last_appended_lsn_;
    ::close(fd_);
    fd_ = -1;
    ++seq_;
    std::string path = dir_ + "/" + WalSegmentName(seq_);
    if (!CreateSegment(path, error)) {
      io_error_ = true;
      io_error_text_ = error != nullptr ? *error : "segment create failed";
      return 0;
    }
    stats_.rotations++;
    return cut;
  }

  // Unlinks every segment older than the current one.  Call only after the
  // snapshot covering them is durably renamed into place.
  unsigned PruneBelowCurrent() {
    uint64_t keep;
    {
      std::lock_guard<std::mutex> lk(mu_);
      keep = seq_;
    }
    unsigned pruned = 0;
    for (const auto& [seq, path] : ListWalSegments(dir_)) {
      if (seq < keep && ::unlink(path.c_str()) == 0) ++pruned;
    }
    if (pruned > 0) {
      detail::FsyncDir(dir_);
      std::lock_guard<std::mutex> lk(mu_);
      stats_.segments_pruned += pruned;
    }
    return pruned;
  }

  // Final flush (always fsynced — shutdown is rare, make it clean), stops
  // the flusher, closes the fd.
  void Close() {
    if (running_.exchange(false)) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        cv_.notify_all();
      }
      if (flusher_.joinable()) flusher_.join();
      std::string err;
      Flush(/*sync=*/true, &err);
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  uint64_t durable_lsn() const {
    std::lock_guard<std::mutex> lk(mu_);
    return durable_lsn_;
  }
  uint64_t current_seq() const {
    std::lock_guard<std::mutex> lk(mu_);
    return seq_;
  }
  // Bytes appended to the current segment — the snapshot trigger signal.
  uint64_t segment_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return segment_bytes_ + pending_.size();
  }
  WalStats stats() const {
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
  }

 private:
  bool Fail(std::string* error, const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  }

  bool CreateSegment(const std::string& path, std::string* error) {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd_ < 0) return Fail(error, path + ": create");
    std::vector<uint8_t> header;
    PutU64(&header, kWalMagic);
    PutU32(&header, kWalVersion);
    PutU32(&header, Crc32c(header.data(), 12));
    if (!detail::WriteAll(fd_, header.data(), header.size())) {
      return Fail(error, path + ": header write");
    }
    if (::fdatasync(fd_) != 0) return Fail(error, path + ": header fsync");
    detail::FsyncDir(dir_);
    segment_bytes_ = kWalFileHeaderBytes;
    return true;
  }

  // Leader flush: swaps the buffer out under `lk`, performs the I/O with
  // the lock RELEASED (appenders keep appending into the fresh buffer),
  // republishes state, wakes waiters.  Caller must hold `lk` and see
  // flushing_ == false; returns with `lk` held.
  void FlushLocked(std::unique_lock<std::mutex>* lk, bool sync) {
    assert(!flushing_);
    if (pending_.empty() && (!sync || durable_lsn_ >= written_lsn_)) return;
    flushing_ = true;
    std::vector<uint8_t> batch;
    batch.swap(pending_);
    uint64_t target = last_appended_lsn_;
    uint64_t batch_ops = stats_.appends - written_ops_;
    int fd = fd_;
    lk->unlock();

    bool ok = batch.empty() || detail::WriteAll(fd, batch.data(), batch.size());
    int io_errno = ok ? 0 : errno;  // before relocking can clobber errno
    bool synced = false;
    if (ok && sync) {
      synced = ::fdatasync(fd) == 0;
      if (!synced) io_errno = errno;
    }

    lk->lock();
    if (!ok || (sync && !synced)) {
      io_error_ = true;
      io_error_text_ = std::string("wal ") + (ok ? "fsync" : "write") + ": " +
                       std::strerror(io_errno);
    } else {
      if (!batch.empty()) {
        stats_.writes++;
        segment_bytes_ += batch.size();
        written_ops_ += batch_ops;
        if (target > written_lsn_) written_lsn_ = target;
      }
      if (sync) {
        stats_.fsyncs++;
        if (written_lsn_ > durable_lsn_) {
          stats_.group_committed += written_ops_ - durable_ops_;
          durable_ops_ = written_ops_;
          durable_lsn_ = written_lsn_;
        }
      }
    }
    flushing_ = false;
    cv_.notify_all();
  }

  void FlusherLoop() {
    const bool sync = options_.durability == Durability::kAsync;
    const auto interval = std::chrono::milliseconds(
        options_.flush_interval_ms == 0 ? 50 : options_.flush_interval_ms);
    while (running_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(interval);
      std::unique_lock<std::mutex> lk(mu_);
      if (flushing_) continue;  // a leader is already on it
      FlushLocked(&lk, sync);
    }
  }

  std::string dir_;
  Options options_;
  int fd_ = -1;
  std::thread flusher_;
  std::atomic<bool> running_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<uint8_t> pending_;
  bool flushing_ = false;
  bool io_error_ = false;
  std::string io_error_text_;
  uint64_t seq_ = 1;
  uint64_t next_lsn_ = 1;
  uint64_t last_appended_lsn_ = 0;
  uint64_t written_lsn_ = 0;
  uint64_t durable_lsn_ = 0;
  uint64_t segment_bytes_ = 0;
  uint64_t written_ops_ = 0;
  uint64_t durable_ops_ = 0;
  WalStats stats_;
};

}  // namespace persist
}  // namespace hot

#endif  // HOT_PERSIST_WAL_H_

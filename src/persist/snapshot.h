// File-mapped, CRC-framed snapshot of the served key/value image
// (DESIGN.md §13).
//
// A snapshot is the ordered content of the index at (fuzzily) one point in
// time: raw wire keys and their u64 values, in ascending raw-key order —
// which equals escaped-key order, because the memcomparable escape in
// net/record_store.h preserves lexicographic order.  Together with
// `last_lsn` (the WAL cut the snapshot is anchored to) it reconstructs the
// index: mmap the file, replay WAL records with lsn > last_lsn on top, and
// bulk-build the merged image (persist/recovery.h).
//
// On-disk layout (all integers little-endian):
//
//   header (48 bytes)
//     u64 magic "HOTSNAP1" | u32 version | u32 reserved
//     u64 count | u64 last_lsn | u64 data_bytes | u32 reserved | u32 crc
//     (crc = CRC32C of the preceding 44 bytes)
//   block*      (count records split into ~256 KiB blocks; a record never
//                spans blocks, so a reader can stream block-at-a-time)
//     u32 payload_len | u32 crc32c(payload) | payload
//   payload
//     repeat { u32 klen | klen key bytes | u64 value }
//
// Atomicity: the writer streams into `<path>.tmp`, seeks back to stamp the
// header (count/data_bytes are only known at the end — the source scan is
// fuzzy under concurrent writers), fdatasyncs, THEN renames into place and
// fsyncs the directory.  A crash mid-write leaves only a tmp file that
// recovery ignores and deletes; `<path>` is always either absent or a
// complete, CRC-verifiable image.  Corruption in an installed snapshot
// (flipped bit, truncation) fails header or block CRC validation and is
// reported as an error — unlike a torn WAL tail it can never be silently
// skipped, because the snapshot is the base image, not a replayable tail.
//
// The reader maps the file read-only (MAP_PRIVATE) and walks it
// sequentially; recovery of multi-million-key images is bounded by page-in
// bandwidth, not parse cost.

#ifndef HOT_PERSIST_SNAPSHOT_H_
#define HOT_PERSIST_SNAPSHOT_H_

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/key.h"
#include "persist/crc32c.h"
#include "persist/wal.h"  // detail::WriteAll/FsyncDir

namespace hot {
namespace persist {

inline constexpr uint64_t kSnapshotMagic = 0x3150414E53544F48ull;  // HOTSNAP1
inline constexpr uint32_t kSnapshotVersion = 1;
inline constexpr size_t kSnapshotHeaderBytes = 48;
inline constexpr size_t kSnapshotBlockTarget = 256u * 1024;
inline constexpr uint32_t kMaxSnapshotBlock = 4u << 20;

inline std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.snap";
}
inline std::string SnapshotTmpPath(const std::string& dir) {
  return dir + "/snapshot.snap.tmp";
}

class SnapshotWriter {
 public:
  SnapshotWriter() = default;
  ~SnapshotWriter() { Abort(); }
  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  // Opens `<final_path>.tmp` for streaming.  `final_path` is installed by
  // Finish().
  bool Open(const std::string& final_path, std::string* error) {
    final_path_ = final_path;
    tmp_path_ = final_path + ".tmp";
    fd_ = ::open(tmp_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0644);
    if (fd_ < 0) return Fail(error, tmp_path_ + ": create");
    // Header placeholder; stamped by Finish once count is known.
    std::vector<uint8_t> zeros(kSnapshotHeaderBytes, 0);
    if (!detail::WriteAll(fd_, zeros.data(), zeros.size())) {
      return Fail(error, tmp_path_ + ": header reserve");
    }
    data_bytes_ = 0;
    count_ = 0;
    block_.clear();
    have_last_key_ = false;
    return true;
  }

  // Appends one record.  Keys MUST arrive in strictly ascending byte order
  // (the reader and the recovery merge both rely on sortedness); a
  // violation poisons the writer and Finish() fails.
  bool Add(KeyRef key, uint64_t value) {
    if (fd_ < 0 || error_) return false;
    if (have_last_key_ &&
        KeyRef(last_key_.data(), last_key_.size()).Compare(key) >= 0) {
      error_ = true;
      error_text_ = "snapshot keys not strictly ascending";
      return false;
    }
    last_key_.assign(key.data(), key.data() + key.size());
    have_last_key_ = true;
    PutU32(&block_, static_cast<uint32_t>(key.size()));
    block_.insert(block_.end(), key.data(), key.data() + key.size());
    PutU64(&block_, value);
    ++count_;
    if (block_.size() >= kSnapshotBlockTarget) return FlushBlock();
    return true;
  }

  // Seals the image: flushes the last block, stamps the header, fdatasyncs,
  // renames the tmp file over `final_path`, and fsyncs the directory.
  bool Finish(uint64_t last_lsn, std::string* error) {
    if (fd_ < 0) return Fail(error, "snapshot writer not open");
    if (error_ || (!block_.empty() && !FlushBlock())) {
      if (error != nullptr) *error = error_text_;
      Abort();
      return false;
    }
    std::vector<uint8_t> header;
    PutU64(&header, kSnapshotMagic);
    PutU32(&header, kSnapshotVersion);
    PutU32(&header, 0);
    PutU64(&header, count_);
    PutU64(&header, last_lsn);
    PutU64(&header, data_bytes_);
    PutU32(&header, 0);
    PutU32(&header, Crc32c(header.data(), header.size()));
    if (::pwrite(fd_, header.data(), header.size(), 0) !=
        static_cast<ssize_t>(header.size())) {
      bool r = Fail(error, tmp_path_ + ": header write");
      Abort();
      return r;
    }
    if (::fdatasync(fd_) != 0) {
      bool r = Fail(error, tmp_path_ + ": fsync");
      Abort();
      return r;
    }
    ::close(fd_);
    fd_ = -1;
    if (::rename(tmp_path_.c_str(), final_path_.c_str()) != 0) {
      bool r = Fail(error, tmp_path_ + ": rename");
      ::unlink(tmp_path_.c_str());
      return r;
    }
    size_t slash = final_path_.rfind('/');
    detail::FsyncDir(slash == std::string::npos
                         ? "."
                         : final_path_.substr(0, slash));
    return true;
  }

  // Abandons the tmp file (crash simulation in tests; destructor cleanup).
  void Abort() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
      ::unlink(tmp_path_.c_str());
    }
  }

  uint64_t count() const { return count_; }

 private:
  bool Fail(std::string* error, const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  }

  bool FlushBlock() {
    std::vector<uint8_t> framed;
    framed.reserve(block_.size() + 8);
    PutU32(&framed, static_cast<uint32_t>(block_.size()));
    PutU32(&framed, Crc32c(block_.data(), block_.size()));
    framed.insert(framed.end(), block_.begin(), block_.end());
    if (!detail::WriteAll(fd_, framed.data(), framed.size())) {
      error_ = true;
      error_text_ = tmp_path_ + ": block write: " + std::strerror(errno);
      return false;
    }
    data_bytes_ += framed.size();
    block_.clear();
    return true;
  }

  std::string final_path_, tmp_path_;
  int fd_ = -1;
  std::vector<uint8_t> block_;
  std::vector<uint8_t> last_key_;
  bool have_last_key_ = false;
  uint64_t count_ = 0;
  uint64_t data_bytes_ = 0;
  bool error_ = false;
  std::string error_text_;
};

class SnapshotReader {
 public:
  SnapshotReader() = default;
  ~SnapshotReader() { Close(); }
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  // Maps the file and validates the header.  Block payloads are validated
  // lazily by ForEach (so Open on a multi-GB image is O(1)).
  bool Open(const std::string& path, std::string* error) {
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return Fail(error, path + ": open");
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Fail(error, path + ": fstat");
    }
    size_ = static_cast<size_t>(st.st_size);
    if (size_ < kSnapshotHeaderBytes) {
      ::close(fd);
      return Set(error, path + ": shorter than the snapshot header");
    }
    map_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map_ == MAP_FAILED) {
      map_ = nullptr;
      return Fail(error, path + ": mmap");
    }
    ::madvise(map_, size_, MADV_SEQUENTIAL);
    const uint8_t* h = data();
    if (GetU64(h) != kSnapshotMagic) {
      return Set(error, path + ": bad magic (not a snapshot)");
    }
    if (GetU32(h + 8) != kSnapshotVersion) {
      return Set(error, path + ": unsupported snapshot version");
    }
    if (GetU32(h + 44) != Crc32c(h, 44)) {
      return Set(error, path + ": header CRC mismatch");
    }
    count_ = GetU64(h + 16);
    last_lsn_ = GetU64(h + 24);
    data_bytes_ = GetU64(h + 32);
    if (kSnapshotHeaderBytes + data_bytes_ != size_) {
      return Set(error, path + ": size disagrees with header (truncated?)");
    }
    path_ = path;
    return true;
  }

  // Walks every record in stored (ascending-key) order, validating each
  // block CRC before touching its payload.  Returns false (with *error) on
  // any corruption; records already delivered were from valid blocks.
  template <typename Fn>
  bool ForEach(Fn&& fn, std::string* error) const {
    const uint8_t* p = data() + kSnapshotHeaderBytes;
    const uint8_t* end = data() + size_;
    uint64_t seen = 0;
    while (p < end) {
      if (end - p < 8) return Set(error, path_ + ": truncated block header");
      uint32_t len = GetU32(p);
      uint32_t want = GetU32(p + 4);
      if (len == 0 || len > kMaxSnapshotBlock ||
          static_cast<size_t>(end - p) < 8u + len) {
        return Set(error, path_ + ": invalid block length");
      }
      const uint8_t* payload = p + 8;
      if (Crc32c(payload, len) != want) {
        return Set(error, path_ + ": block CRC mismatch");
      }
      const uint8_t* q = payload;
      const uint8_t* qend = payload + len;
      while (q < qend) {
        if (qend - q < 4) return Set(error, path_ + ": truncated record");
        uint32_t klen = GetU32(q);
        if (static_cast<size_t>(qend - q) < 4u + klen + 8u) {
          return Set(error, path_ + ": record overruns its block");
        }
        fn(KeyRef(q + 4, klen), GetU64(q + 4 + klen));
        ++seen;
        q += 4 + klen + 8;
      }
      p += 8 + len;
    }
    if (seen != count_) {
      return Set(error, path_ + ": record count disagrees with header");
    }
    return true;
  }

  uint64_t count() const { return count_; }
  uint64_t last_lsn() const { return last_lsn_; }

  void Close() {
    if (map_ != nullptr) {
      ::munmap(map_, size_);
      map_ = nullptr;
    }
  }

 private:
  static bool Set(std::string* error, const std::string& text) {
    if (error != nullptr) *error = text;
    return false;
  }
  bool Fail(std::string* error, const std::string& what) {
    return Set(error, what + ": " + std::strerror(errno));
  }
  const uint8_t* data() const { return static_cast<const uint8_t*>(map_); }

  std::string path_;
  void* map_ = nullptr;
  size_t size_ = 0;
  uint64_t count_ = 0;
  uint64_t last_lsn_ = 0;
  uint64_t data_bytes_ = 0;
};

}  // namespace persist
}  // namespace hot

#endif  // HOT_PERSIST_SNAPSHOT_H_

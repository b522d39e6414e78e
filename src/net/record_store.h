// Append-only record storage behind the network KV front-end, plus the
// order-preserving escape that maps arbitrary wire keys onto the tries'
// prefix-free key space.
//
// The tries in this repository store 63-bit values and re-derive key bytes
// through a KeyExtractor (common/extractors.h).  The server therefore keeps
// every PUT as an immutable record { raw wire key, escaped trie key, u64
// value } in an append-only arena and indexes the RECORD ID: the extractor
// returns the escaped key bytes owned by the record, GET resolves id ->
// value, SCAN resolves id -> (raw key, value).  Overwrites and deletes
// leave the superseded record behind (log-structured; reclaiming dead
// records is future work).  RecordStore::appended() minus the index's size
// (KvServer::live_keys()) is the dead-record count; ServerStats does not
// report either yet.  Because nothing is reclaimed, a long-running server
// can fill the store: Append then refuses (capacity()), in every build.
// Append also refuses, in every build, a key whose escaped form the tries
// cannot hold (KeyFitsIndex).
//
// Key escape.  Trie keys must be prefix-free (common/key.h); wire keys are
// arbitrary bytes, so "append a terminator" alone is not enough ("a\0" vs
// "a\0\0").  EscapeKey uses the classic memcomparable encoding:
//
//   0x00        ->  0x00 0x01
//   terminator  ->  0x00 0x00
//
// The image is prefix-free (0x00 0x00 can only appear as the terminator)
// and the map preserves lexicographic order, so escaped-key order equals
// raw-key order and ordered scans over escaped keys yield raw keys in raw
// order.  Escaped length is raw_len + (#0x00 bytes) + 2; keys whose escaped
// form exceeds hot::kMaxKeyBytes are rejected before touching the index
// (protocol kKeyTooLong).
//
// Concurrency: appends take a mutex (PUT throughput is bounded by the
// trie's COW writers anyway); reads are lock-free.  A reader only ever
// resolves ids it obtained from the index, and the record's bytes are fully
// written before the id is published through the trie's release store, so
// the index's own acquire/release synchronization carries the record's
// visibility (the chunk directory uses acquire/release atomics for the same
// reason — a reader may enter a chunk its own thread never saw appended).

#ifndef HOT_NET_RECORD_STORE_H_
#define HOT_NET_RECORD_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "hot/node.h"  // kMaxKeyBytes

namespace hot {
namespace net {

// Escaped length without materializing: raw length + embedded NULs + 2.
inline size_t EscapedKeyLength(KeyRef raw) {
  size_t len = raw.size() + 2;
  const uint8_t* p = raw.data();
  const uint8_t* const end = p + raw.size();
  while (p != end) {
    p = static_cast<const uint8_t*>(std::memchr(p, 0x00, end - p));
    if (p == nullptr) break;
    ++len;
    ++p;
  }
  return len;
}

// Writes the escaped (prefix-free, order-preserving) form of `raw` to
// `dst`, which must have room for EscapedKeyLength(raw) bytes, and returns
// the number of bytes written.  Runs between NUL bytes are copied whole, so
// a key without NULs costs one memchr and one memcpy.
inline size_t EscapeKeyTo(KeyRef raw, uint8_t* dst) {
  uint8_t* d = dst;
  const uint8_t* p = raw.data();
  const uint8_t* const end = p + raw.size();
  while (p != end) {
    const uint8_t* nul =
        static_cast<const uint8_t*>(std::memchr(p, 0x00, end - p));
    const uint8_t* run_end = nul != nullptr ? nul : end;
    std::memcpy(d, p, run_end - p);
    d += run_end - p;
    if (nul == nullptr) break;
    *d++ = 0x00;
    *d++ = 0x01;
    p = nul + 1;
  }
  *d++ = 0x00;
  *d++ = 0x00;
  return static_cast<size_t>(d - dst);
}

// Appends the escaped form of `raw` to *out.  Returns the number of bytes
// appended.
inline size_t EscapeKey(KeyRef raw, std::vector<uint8_t>* out) {
  const size_t before = out->size();
  out->resize(before + EscapedKeyLength(raw));
  return EscapeKeyTo(raw, out->data() + before);
}

// Whether `raw` may be indexed at all (escaped form fits the tries'
// kMaxKeyBytes bound).
inline bool KeyFitsIndex(KeyRef raw) {
  return EscapedKeyLength(raw) <= kMaxKeyBytes;
}

class RecordStore {
 public:
  // Largest capacity a store can be built with.
  static constexpr uint64_t kMaxRecords = uint64_t{1} << 30;

  struct Record {
    uint64_t value;
    uint32_t raw_len;
    uint32_t esc_len;
    const uint8_t* bytes;  // raw_len raw bytes then esc_len escaped bytes

    KeyRef raw_key() const { return KeyRef(bytes, raw_len); }
    KeyRef escaped_key() const { return KeyRef(bytes + raw_len, esc_len); }
  };

  // `capacity` bounds the records the store will ever hold (clamped to
  // kMaxRecords).
  explicit RecordStore(uint64_t capacity = kMaxRecords)
      : capacity_(std::min(capacity, kMaxRecords)) {}
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  // Appends one record and returns its id (dense, starting at 0, <
  // capacity() — valid as a trie value), or nullopt when the store already
  // holds capacity() records or `raw` fails KeyFitsIndex.  The key check
  // holds in every build: recovery appends keys read back from disk, which
  // no earlier check has seen.
  std::optional<uint64_t> Append(KeyRef raw, uint64_t value) {
    size_t esc_len = EscapedKeyLength(raw);
    if (esc_len > kMaxKeyBytes) return std::nullopt;
    std::lock_guard<std::mutex> guard(append_mu_);
    uint64_t id = size_.load(std::memory_order_relaxed);
    if (id >= capacity_) return std::nullopt;
    size_t chunk = static_cast<size_t>(id / kChunkRecords);
    Chunk* c = chunks_[chunk].load(std::memory_order_relaxed);
    if (c == nullptr) {
      // Default-initialized: a record slot and its key bytes are written
      // before the id is handed out, so zeroing them first buys nothing.
      c = new Chunk;
      chunks_[chunk].store(c, std::memory_order_release);
    }
    Record& rec = c->records[id % kChunkRecords];
    // Key bytes live in the chunk-local byte arena when they fit, else in
    // their own allocation; either way the pointer never moves afterwards.
    size_t need = raw.size() + esc_len;
    uint8_t* dst;
    if (c->bytes_used + need <= kChunkBytes) {
      dst = c->bytes + c->bytes_used;
      c->bytes_used += need;
    } else {
      c->overflow.push_back(std::make_unique<uint8_t[]>(need));
      dst = c->overflow.back().get();
    }
    if (raw.size() != 0) std::memcpy(dst, raw.data(), raw.size());
    EscapeKeyTo(raw, dst + raw.size());
    rec.value = value;
    rec.raw_len = static_cast<uint32_t>(raw.size());
    rec.esc_len = static_cast<uint32_t>(esc_len);
    rec.bytes = dst;
    size_.store(id + 1, std::memory_order_relaxed);
    bytes_.fetch_add(need, std::memory_order_relaxed);
    return id;
  }

  // Lock-free; `id` must come from a successful Append whose publication
  // the caller observed (typically through the index).
  const Record& At(uint64_t id) const {
    const Chunk* c = chunks_[static_cast<size_t>(id / kChunkRecords)].load(
        std::memory_order_acquire);
    return c->records[id % kChunkRecords];
  }

  // Appended record count / key-byte footprint (quiescent-only exactness).
  uint64_t appended() const { return size_.load(std::memory_order_relaxed); }
  uint64_t key_bytes() const { return bytes_.load(std::memory_order_relaxed); }
  uint64_t capacity() const { return capacity_; }

  ~RecordStore() {
    for (auto& slot : chunks_) {
      delete slot.load(std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kChunkRecords = 1u << 14;  // 16K records per chunk
  static constexpr size_t kChunkBytes = kChunkRecords * 64;
  static constexpr size_t kMaxChunks = kMaxRecords / kChunkRecords;

  struct Chunk {
    Record records[kChunkRecords];
    uint8_t bytes[kChunkBytes];
    size_t bytes_used = 0;
    std::vector<std::unique_ptr<uint8_t[]>> overflow;
  };

  const uint64_t capacity_;
  std::mutex append_mu_;
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
  std::atomic<uint64_t> size_{0};
  std::atomic<uint64_t> bytes_{0};
};

// KeyExtractor over record ids: the indexed key of record `id` is its
// escaped key, whose bytes the record owns for the store's lifetime.
class RecordKeyExtractor {
 public:
  RecordKeyExtractor() : store_(nullptr) {}
  explicit RecordKeyExtractor(const RecordStore* store) : store_(store) {}

  KeyRef operator()(uint64_t id, KeyScratch&) const {
    return store_->At(id).escaped_key();
  }

  const RecordStore* store() const { return store_; }

 private:
  const RecordStore* store_;
};

}  // namespace net
}  // namespace hot

#endif  // HOT_NET_RECORD_STORE_H_

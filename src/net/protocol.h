// Wire protocol of the network KV front-end (DESIGN.md §12).
//
// Every message — request or reply — is one length-prefixed frame:
//
//   u32  body_len   little-endian, length of everything after this field
//   body
//
// Request body:                       Reply body:
//   u64  request_id                     u64  request_id   (echoed)
//   u8   opcode                         u8   status
//   payload (per opcode)                payload (per status/opcode)
//
// Request payloads:
//   GET    u16 klen | klen key bytes
//   PUT    u16 klen | klen key bytes | u64 value
//   DELETE u16 klen | klen key bytes
//   SCAN   u16 klen | klen key bytes | u32 limit
//
// Reply payloads:
//   GET    kOk: u64 value            kNotFound: empty
//   PUT    kOk: u8 created, and when created == 0 the u64 replaced value
//   DELETE kOk / kNotFound: empty
//   SCAN   kOk: u32 count | count x { u16 klen | key bytes | u64 value }
//   any    kBadFrame/kBadRequest/kKeyTooLong/kServerError:
//          u16 mlen | mlen message bytes
//
// Error containment contract (tests/net_protocol_test.cc pins it):
//   * The 4-byte length prefix is the only thing the server trusts before
//     validation.  body_len outside [kMinBody, kDefaultMaxFrameBody] is a
//     FATAL framing error: the server sends one kBadFrame reply (request
//     id 0 — the frame was never parsed far enough to know one) and closes
//     the connection.  Nothing after an invalid length is interpreted.
//   * Once the declared body is fully buffered, any parse error INSIDE it
//     (unknown opcode, key length inconsistent with the frame, oversized
//     key, zero scan limit) is contained to that frame: the server replies
//     kBadRequest / kKeyTooLong with the frame's request id and keeps the
//     connection; the parser never reads beyond the declared body.
//   * A server-side fault executing a WELL-FORMED write (WAL commit
//     failure) is likewise contained but uses kServerError, so clients can
//     tell a retryable server fault from bad input they must not resend.
//   * Request ids are opaque to the server and echoed verbatim.  Replies
//     may arrive out of request order (batched GETs complete after any
//     writes parsed in the same event-loop iteration) — clients match on
//     the id, never on arrival order.
//
// Keys on the wire are arbitrary byte strings (0x00 bytes allowed) of at
// most kMaxKeyLen bytes; the server maps them onto the tries' prefix-free
// key space with the order-preserving escape in net/record_store.h.
// Integers are little-endian on the wire (this is a socket protocol, not a
// trie key — the big-endian encoding lives behind the escape).

#ifndef HOT_NET_PROTOCOL_H_
#define HOT_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/key.h"

namespace hot {
namespace net {

enum Opcode : uint8_t {
  kOpGet = 1,
  kOpPut = 2,
  kOpDelete = 3,
  kOpScan = 4,
};

enum Status : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kBadFrame = 2,     // fatal: connection closes after this reply
  kBadRequest = 3,   // contained to the frame, connection survives
  kKeyTooLong = 4,   // contained to the frame, connection survives
  kServerError = 5,  // server-side fault (e.g. WAL fsync failure): nothing
                     // wrong with the request, the op was NOT acknowledged;
                     // retryable once the server recovers
};

// Longest key accepted on the wire.  254 raw bytes is the largest length
// whose escaped form (raw + #NUL-bytes + 2, net/record_store.h) can still
// fit the tries' kMaxKeyBytes = 256 — NUL-free keys use it fully; keys with
// embedded NULs may be rejected below this by the escaped-length check.
inline constexpr size_t kMaxKeyLen = 254;

// Smallest valid body: request id + opcode.
inline constexpr size_t kMinBody = 9;

// The server's cap on body_len, far above any legal request (replies can
// be larger; clients size their cap to kDefaultMaxScanLimit).
inline constexpr size_t kDefaultMaxFrameBody = 1u << 20;

// The server's cap on one SCAN request's limit operand.
inline constexpr uint32_t kDefaultMaxScanLimit = 65536;

// --- request encoding (client side) ----------------------------------------

namespace detail {
inline size_t BeginFrame(std::vector<uint8_t>* out, uint64_t id, uint8_t op) {
  size_t len_at = out->size();
  PutU32(out, 0);  // patched by EndFrame
  PutU64(out, id);
  out->push_back(op);
  return len_at;
}
inline void EndFrame(std::vector<uint8_t>* out, size_t len_at) {
  StoreU32(out->data() + len_at,
           static_cast<uint32_t>(out->size() - len_at - 4));
}
inline void PutKey(std::vector<uint8_t>* out, KeyRef key) {
  PutU16(out, static_cast<uint16_t>(key.size()));
  out->insert(out->end(), key.data(), key.data() + key.size());
}
}  // namespace detail

inline void EncodeGet(std::vector<uint8_t>* out, uint64_t id, KeyRef key) {
  size_t at = detail::BeginFrame(out, id, kOpGet);
  detail::PutKey(out, key);
  detail::EndFrame(out, at);
}
inline void EncodePut(std::vector<uint8_t>* out, uint64_t id, KeyRef key,
                      uint64_t value) {
  size_t at = detail::BeginFrame(out, id, kOpPut);
  detail::PutKey(out, key);
  PutU64(out, value);
  detail::EndFrame(out, at);
}
inline void EncodeDelete(std::vector<uint8_t>* out, uint64_t id, KeyRef key) {
  size_t at = detail::BeginFrame(out, id, kOpDelete);
  detail::PutKey(out, key);
  detail::EndFrame(out, at);
}
inline void EncodeScan(std::vector<uint8_t>* out, uint64_t id, KeyRef key,
                       uint32_t limit) {
  size_t at = detail::BeginFrame(out, id, kOpScan);
  detail::PutKey(out, key);
  PutU32(out, limit);
  detail::EndFrame(out, at);
}

// --- request decoding (server side) ----------------------------------------

struct Request {
  uint64_t id = 0;
  uint8_t op = 0;
  KeyRef key;  // view into the frame buffer; valid while the frame is
  uint64_t value = 0;       // PUT
  uint32_t scan_limit = 0;  // SCAN
};

enum class ParseVerdict : uint8_t {
  kParsedOk,
  kParseBadRequest,  // error reply with the frame's id, connection survives
  kParseKeyTooLong,  // ditto
};

// Parses one fully-buffered request body.  `body`/`body_len` delimit
// exactly the declared frame body — the parser never reads outside it, and
// trailing bytes it does not consume make the frame invalid (a frame
// declares its length; padding would hide data the server did not parse).
// On any verdict but kParsedOk, *req.id is still filled whenever the body
// was long enough to contain it (>= kMinBody, guaranteed by the caller's
// length validation), so the error reply can echo it.
inline ParseVerdict ParseRequest(const uint8_t* body, size_t body_len,
                                 Request* req, std::string* error) {
  req->id = GetU64(body);
  req->op = body[8];
  const uint8_t* p = body + 9;
  size_t rest = body_len - 9;
  auto bad = [&](const char* msg) {
    if (error != nullptr) *error = msg;
    return ParseVerdict::kParseBadRequest;
  };
  if (req->op < kOpGet || req->op > kOpScan) return bad("unknown opcode");
  if (rest < 2) return bad("truncated key length");
  uint16_t klen = GetU16(p);
  p += 2;
  rest -= 2;
  if (klen > rest) return bad("key length exceeds frame");
  if (klen > kMaxKeyLen) {
    if (error != nullptr) *error = "key exceeds kMaxKeyLen";
    return ParseVerdict::kParseKeyTooLong;
  }
  req->key = KeyRef(p, klen);
  p += klen;
  rest -= klen;
  switch (req->op) {
    case kOpGet:
    case kOpDelete:
      if (rest != 0) return bad("trailing bytes after key");
      break;
    case kOpPut:
      if (rest != 8) return bad("PUT payload must be exactly 8 value bytes");
      req->value = GetU64(p);
      break;
    case kOpScan:
      if (rest != 4) return bad("SCAN payload must be exactly 4 limit bytes");
      req->scan_limit = GetU32(p);
      if (req->scan_limit == 0) return bad("SCAN limit must be >= 1");
      break;
  }
  return ParseVerdict::kParsedOk;
}

// --- reply encoding (server side) ------------------------------------------
//
// GET, PUT and DELETE replies have a fixed size per outcome: the encoders
// grow *out once and store every field at its offset.

namespace detail {
// Appends a reply frame header for a body of `body_len` bytes and returns
// the first payload byte (body_len - kMinBody bytes are left to fill).
inline uint8_t* BeginFixedReply(std::vector<uint8_t>* out, uint64_t id,
                                uint8_t status, size_t body_len) {
  const size_t at = out->size();
  out->resize(at + 4 + body_len);
  uint8_t* p = out->data() + at;
  StoreU32(p, static_cast<uint32_t>(body_len));
  StoreU64(p + 4, id);
  p[12] = status;
  return p + 13;
}
}  // namespace detail

inline void EncodeGetReply(std::vector<uint8_t>* out, uint64_t id, bool found,
                           uint64_t value) {
  uint8_t* p = detail::BeginFixedReply(out, id, found ? kOk : kNotFound,
                                       kMinBody + (found ? 8 : 0));
  if (found) StoreU64(p, value);
}
inline void EncodePutReply(std::vector<uint8_t>* out, uint64_t id,
                           bool created, uint64_t prev) {
  uint8_t* p =
      detail::BeginFixedReply(out, id, kOk, kMinBody + (created ? 1 : 9));
  p[0] = created ? 1 : 0;
  if (!created) StoreU64(p + 1, prev);
}
inline void EncodeDeleteReply(std::vector<uint8_t>* out, uint64_t id,
                              bool removed) {
  detail::BeginFixedReply(out, id, removed ? kOk : kNotFound, kMinBody);
}
// Scan replies are built incrementally: begin, append entries, end.
struct ScanReplyBuilder {
  std::vector<uint8_t>* out;
  size_t len_at;
  size_t count_at;
  uint32_t count = 0;

  ScanReplyBuilder(std::vector<uint8_t>* o, uint64_t id) : out(o) {
    len_at = detail::BeginFrame(out, id, kOk);
    count_at = out->size();
    PutU32(out, 0);
  }
  void Add(KeyRef raw_key, uint64_t value) {
    detail::PutKey(out, raw_key);
    PutU64(out, value);
    ++count;
  }
  void Finish() {
    StoreU32(out->data() + count_at, count);
    detail::EndFrame(out, len_at);
  }
};
inline void EncodeErrorReply(std::vector<uint8_t>* out, uint64_t id,
                             uint8_t status, const std::string& message) {
  size_t at = detail::BeginFrame(out, id, status);
  PutU16(out, static_cast<uint16_t>(message.size()));
  out->insert(out->end(), message.begin(), message.end());
  detail::EndFrame(out, at);
}

// --- reply decoding (client side) ------------------------------------------

struct ScanEntry {
  std::string key;
  uint64_t value;
};

struct Reply {
  uint64_t id = 0;
  uint8_t status = kOk;
  uint64_t value = 0;  // GET kOk
  bool created = false;
  uint64_t prev = 0;  // PUT kOk, created == false
  std::vector<ScanEntry> scan;
  std::string error;  // error statuses

  bool ok() const { return status == kOk; }
};

// Parses one fully-buffered reply body.  `op` is the opcode of the request
// the caller issued under this id (the reply does not repeat it).  Returns
// false on malformed bodies.
inline bool ParseReply(const uint8_t* body, size_t body_len, uint8_t op,
                       Reply* reply, std::string* error) {
  auto bad = [&](const char* msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (body_len < kMinBody) return bad("reply body too short");
  reply->id = GetU64(body);
  reply->status = body[8];
  const uint8_t* p = body + 9;
  size_t rest = body_len - 9;
  reply->scan.clear();
  reply->error.clear();
  if (reply->status == kBadFrame || reply->status == kBadRequest ||
      reply->status == kKeyTooLong || reply->status == kServerError) {
    if (rest < 2) return bad("truncated error message length");
    uint16_t mlen = GetU16(p);
    if (mlen != rest - 2) return bad("error message length mismatch");
    reply->error.assign(reinterpret_cast<const char*>(p + 2), mlen);
    return true;
  }
  if (reply->status == kNotFound) {
    return rest == 0 ? true : bad("kNotFound reply carries payload");
  }
  if (reply->status != kOk) return bad("unknown reply status");
  switch (op) {
    case kOpGet:
      if (rest != 8) return bad("GET reply payload must be 8 bytes");
      reply->value = GetU64(p);
      return true;
    case kOpPut:
      if (rest < 1) return bad("PUT reply missing created flag");
      reply->created = p[0] != 0;
      if (reply->created) return rest == 1 ? true : bad("PUT reply trailing");
      if (rest != 9) return bad("PUT replace reply must carry prev value");
      reply->prev = GetU64(p + 1);
      return true;
    case kOpDelete:
      return rest == 0 ? true : bad("DELETE reply carries payload");
    case kOpScan: {
      if (rest < 4) return bad("SCAN reply missing count");
      uint32_t count = GetU32(p);
      p += 4;
      rest -= 4;
      // An entry is at least 10 bytes (klen + 8 value bytes); a declared
      // count the body cannot hold must not drive the reserve (a hostile
      // count of 4 billion would otherwise allocate before validation).
      if (count > rest / 10) return bad("SCAN count exceeds reply body");
      reply->scan.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        if (rest < 2) return bad("SCAN entry truncated at key length");
        uint16_t klen = GetU16(p);
        p += 2;
        rest -= 2;
        if (rest < klen + size_t{8}) return bad("SCAN entry truncated");
        reply->scan.push_back(
            {std::string(reinterpret_cast<const char*>(p), klen),
             GetU64(p + klen)});
        p += klen + 8;
        rest -= klen + 8;
      }
      return rest == 0 ? true : bad("SCAN reply trailing bytes");
    }
    default:
      return bad("unknown request opcode for reply");
  }
}

// --- incremental framing ----------------------------------------------------
//
// The state machine both endpoints run over their receive buffers.  Feed()
// style: the caller owns a flat byte buffer of everything received and not
// yet consumed; NextFrame reports whether a complete frame is available,
// where its body starts, and how many bytes to consume.

enum class FrameVerdict : uint8_t {
  kNeedMore,   // fewer bytes than one complete frame
  kHaveFrame,  // *body/*body_len delimit the frame body, *consumed is set
  kBadLength,  // declared body length outside [kMinBody, max_body]: fatal
};

inline FrameVerdict NextFrame(const uint8_t* data, size_t size,
                              size_t max_body, const uint8_t** body,
                              size_t* body_len, size_t* consumed) {
  if (size < 4) return FrameVerdict::kNeedMore;
  uint32_t declared = GetU32(data);
  if (declared < kMinBody || declared > max_body) {
    return FrameVerdict::kBadLength;
  }
  if (size - 4 < declared) return FrameVerdict::kNeedMore;
  *body = data + 4;
  *body_len = declared;
  *consumed = 4 + size_t{declared};
  return FrameVerdict::kHaveFrame;
}

}  // namespace net
}  // namespace hot

#endif  // HOT_NET_PROTOCOL_H_

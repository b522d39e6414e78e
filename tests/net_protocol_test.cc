// Protocol tier for the network front-end (net/protocol.h, net/server.h):
//
//   * codec round-trips for every opcode and every reply shape;
//   * malformed-frame containment against a LIVE server: truncated length
//     prefixes, zero and huge declared lengths, unknown opcodes, oversized
//     keys — each must produce a clean error reply or a clean close, never
//     a crash or an out-of-bounds read (this binary runs under ASan in CI's
//     `net` job);
//   * partial-I/O torture: requests dribbled one byte at a time and replies
//     read one byte at a time must parse identically to bulk I/O;
//   * mid-request disconnects: connections abandoned with half a frame
//     buffered must be fully reaped (no fd/buffer leak, proven through
//     ServerStats::connections_open()).

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/record_store.h"
#include "net/server.h"

namespace hot {
namespace net {
namespace {

using ::testing::Test;

// --- codec round-trips (no sockets) -----------------------------------------

KeyRef K(const char* s) {
  return KeyRef(reinterpret_cast<const uint8_t*>(s), strlen(s));
}

// Frames the encoder produced must come back through NextFrame+ParseRequest
// bit-exact.
TEST(NetProtocolCodec, RequestRoundTripEveryOpcode) {
  std::vector<uint8_t> buf;
  EncodeGet(&buf, 7, K("alpha"));
  EncodePut(&buf, 8, K("beta"), 0xdeadbeefcafe0123ull);
  EncodeDelete(&buf, 9, K("gamma"));
  EncodeScan(&buf, 10, K("delta"), 4096);

  size_t off = 0;
  auto next = [&](Request* req) {
    const uint8_t* body = nullptr;
    size_t body_len = 0, consumed = 0;
    FrameVerdict v = NextFrame(buf.data() + off, buf.size() - off,
                               kDefaultMaxFrameBody, &body, &body_len,
                               &consumed);
    ASSERT_EQ(v, FrameVerdict::kHaveFrame);
    std::string err;
    ASSERT_EQ(ParseRequest(body, body_len, req, &err), ParseVerdict::kParsedOk)
        << err;
    off += consumed;
  };

  Request r;
  next(&r);
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.op, kOpGet);
  EXPECT_EQ(r.key, K("alpha"));
  next(&r);
  EXPECT_EQ(r.id, 8u);
  EXPECT_EQ(r.op, kOpPut);
  EXPECT_EQ(r.key, K("beta"));
  EXPECT_EQ(r.value, 0xdeadbeefcafe0123ull);
  next(&r);
  EXPECT_EQ(r.id, 9u);
  EXPECT_EQ(r.op, kOpDelete);
  EXPECT_EQ(r.key, K("gamma"));
  next(&r);
  EXPECT_EQ(r.id, 10u);
  EXPECT_EQ(r.op, kOpScan);
  EXPECT_EQ(r.key, K("delta"));
  EXPECT_EQ(r.scan_limit, 4096u);
  EXPECT_EQ(off, buf.size());
}

TEST(NetProtocolCodec, ReplyRoundTripEveryShape) {
  std::string err;
  Reply reply;
  {
    std::vector<uint8_t> buf;
    EncodeGetReply(&buf, 1, true, 42);
    ASSERT_TRUE(ParseReply(buf.data() + 4, buf.size() - 4, kOpGet, &reply,
                           &err))
        << err;
    EXPECT_EQ(reply.id, 1u);
    EXPECT_EQ(reply.status, kOk);
    EXPECT_EQ(reply.value, 42u);
  }
  {
    std::vector<uint8_t> buf;
    EncodeGetReply(&buf, 2, false, 0);
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpGet, &reply, &err));
    EXPECT_EQ(reply.status, kNotFound);
  }
  {
    std::vector<uint8_t> buf;
    EncodePutReply(&buf, 3, true, 0);
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpPut, &reply, &err));
    EXPECT_TRUE(reply.created);
  }
  {
    std::vector<uint8_t> buf;
    EncodePutReply(&buf, 4, false, 99);
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpPut, &reply, &err));
    EXPECT_FALSE(reply.created);
    EXPECT_EQ(reply.prev, 99u);
  }
  {
    std::vector<uint8_t> buf;
    EncodeDeleteReply(&buf, 5, true);
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpDelete, &reply, &err));
    EXPECT_EQ(reply.status, kOk);
  }
  {
    std::vector<uint8_t> buf;
    ScanReplyBuilder b(&buf, 6);
    b.Add(K("k1"), 11);
    b.Add(K("k2"), 22);
    b.Finish();
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpScan, &reply, &err))
        << err;
    ASSERT_EQ(reply.scan.size(), 2u);
    EXPECT_EQ(reply.scan[0].key, "k1");
    EXPECT_EQ(reply.scan[0].value, 11u);
    EXPECT_EQ(reply.scan[1].key, "k2");
    EXPECT_EQ(reply.scan[1].value, 22u);
  }
  {
    std::vector<uint8_t> buf;
    EncodeErrorReply(&buf, 7, kBadRequest, "nope");
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpGet, &reply, &err));
    EXPECT_EQ(reply.status, kBadRequest);
    EXPECT_EQ(reply.error, "nope");
  }
  {
    // Server-fault status (WAL commit failure): carries a message like the
    // other error statuses but is distinguishable from bad input.
    std::vector<uint8_t> buf;
    EncodeErrorReply(&buf, 8, kServerError, "wal commit: fsync");
    ASSERT_TRUE(
        ParseReply(buf.data() + 4, buf.size() - 4, kOpPut, &reply, &err));
    EXPECT_EQ(reply.status, kServerError);
    EXPECT_EQ(reply.error, "wal commit: fsync");
  }
}

// The fixed-size reply encoders write every field at its offset; pin the
// exact wire bytes of each outcome, appended after bytes already queued.
TEST(NetProtocolCodec, ReplyEncodersWriteGoldenBytes) {
  const uint64_t id = 0x0102030405060708ull;
  const uint64_t v = 0x1112131415161718ull;
  std::vector<uint8_t> out = {0xee, 0xef};
  EncodeGetReply(&out, id, true, v);
  EncodeGetReply(&out, id, false, v);
  EncodePutReply(&out, id, true, v);
  EncodePutReply(&out, id, false, v);
  EncodeDeleteReply(&out, id, true);
  EncodeDeleteReply(&out, id, false);
#define GOLDEN_ID 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01
#define GOLDEN_VALUE 0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11
  const std::vector<uint8_t> golden = {
      0xee, 0xef,                                           // already queued
      0x11, 0, 0, 0, GOLDEN_ID, kOk, GOLDEN_VALUE,          // GET found
      0x09, 0, 0, 0, GOLDEN_ID, kNotFound,                  // GET not found
      0x0a, 0, 0, 0, GOLDEN_ID, kOk, 1,                     // PUT created
      0x12, 0, 0, 0, GOLDEN_ID, kOk, 0, GOLDEN_VALUE,       // PUT replaced
      0x09, 0, 0, 0, GOLDEN_ID, kOk,                        // DELETE removed
      0x09, 0, 0, 0, GOLDEN_ID, kNotFound,                  // DELETE absent
  };
#undef GOLDEN_ID
#undef GOLDEN_VALUE
  EXPECT_EQ(out, golden);
}

// NextFrame must report kNeedMore for every strict prefix of a frame and
// never touch bytes beyond `size` (ASan-checked via exact-size heap copies).
TEST(NetProtocolCodec, IncrementalFramingEveryPrefix) {
  std::vector<uint8_t> frame;
  EncodePut(&frame, 77, K("incremental"), 123);
  for (size_t len = 0; len < frame.size(); ++len) {
    // Exact-size allocation: one byte past `len` is redzone under ASan.
    std::vector<uint8_t> prefix(frame.begin(), frame.begin() + len);
    const uint8_t* body;
    size_t body_len, consumed;
    EXPECT_EQ(NextFrame(prefix.data(), prefix.size(), kDefaultMaxFrameBody,
                        &body, &body_len, &consumed),
              FrameVerdict::kNeedMore)
        << "prefix length " << len;
  }
  const uint8_t* body;
  size_t body_len, consumed;
  EXPECT_EQ(NextFrame(frame.data(), frame.size(), kDefaultMaxFrameBody, &body,
                      &body_len, &consumed),
            FrameVerdict::kHaveFrame);
  EXPECT_EQ(consumed, frame.size());
}

TEST(NetProtocolCodec, BadDeclaredLengths) {
  const uint8_t* body;
  size_t body_len, consumed;
  // Zero declared length (< kMinBody).
  uint8_t zero[8] = {0, 0, 0, 0, 1, 2, 3, 4};
  EXPECT_EQ(NextFrame(zero, sizeof(zero), kDefaultMaxFrameBody, &body,
                      &body_len, &consumed),
            FrameVerdict::kBadLength);
  // Sub-minimum declared length.
  uint8_t tiny[8] = {8, 0, 0, 0, 1, 2, 3, 4};
  EXPECT_EQ(NextFrame(tiny, sizeof(tiny), kDefaultMaxFrameBody, &body,
                      &body_len, &consumed),
            FrameVerdict::kBadLength);
  // Huge declared length: rejected from the 4 length bytes alone — the
  // server must NOT wait for (or try to buffer) 4 GiB.
  uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_EQ(NextFrame(huge, sizeof(huge), kDefaultMaxFrameBody, &body,
                      &body_len, &consumed),
            FrameVerdict::kBadLength);
}

TEST(NetProtocolCodec, ParseRequestRejectsMalformedBodies) {
  auto parse = [](std::vector<uint8_t> body) {
    // Exact-size heap buffer: any over-read trips ASan.
    Request req;
    return ParseRequest(body.data(), body.size(), &req, nullptr);
  };
  auto body = [](uint8_t op, std::vector<uint8_t> payload) {
    std::vector<uint8_t> b;
    PutU64(&b, 1234);
    b.push_back(op);
    b.insert(b.end(), payload.begin(), payload.end());
    return b;
  };
  // Unknown opcodes.
  EXPECT_EQ(parse(body(0, {})), ParseVerdict::kParseBadRequest);
  EXPECT_EQ(parse(body(99, {})), ParseVerdict::kParseBadRequest);
  // Truncated key length.
  EXPECT_EQ(parse(body(kOpGet, {})), ParseVerdict::kParseBadRequest);
  EXPECT_EQ(parse(body(kOpGet, {5})), ParseVerdict::kParseBadRequest);
  // Key length pointing past the declared body.
  EXPECT_EQ(parse(body(kOpGet, {100, 0, 'a', 'b'})),
            ParseVerdict::kParseBadRequest);
  // Key over the wire limit (frame itself is consistent).
  {
    std::vector<uint8_t> payload;
    PutU16(&payload, kMaxKeyLen + 1);
    payload.insert(payload.end(), kMaxKeyLen + 1, 'x');
    EXPECT_EQ(parse(body(kOpGet, payload)), ParseVerdict::kParseKeyTooLong);
  }
  // PUT without its value / with trailing junk.
  EXPECT_EQ(parse(body(kOpPut, {1, 0, 'k'})), ParseVerdict::kParseBadRequest);
  {
    std::vector<uint8_t> payload = {1, 0, 'k'};
    payload.insert(payload.end(), 9, 0);  // 8 value bytes + 1 extra
    EXPECT_EQ(parse(body(kOpPut, payload)), ParseVerdict::kParseBadRequest);
  }
  // SCAN with a zero limit.
  EXPECT_EQ(parse(body(kOpScan, {1, 0, 'k', 0, 0, 0, 0})),
            ParseVerdict::kParseBadRequest);
  // GET with trailing bytes after the key.
  EXPECT_EQ(parse(body(kOpGet, {1, 0, 'k', 0})),
            ParseVerdict::kParseBadRequest);
}

// Deterministic garbage must never crash or over-read either parser.
TEST(NetProtocolCodec, RandomGarbageNeverOverReads) {
  std::mt19937_64 rng(0xfeedface);
  for (int iter = 0; iter < 5000; ++iter) {
    size_t len = rng() % 64;
    std::vector<uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<uint8_t>(rng());
    if (len >= kMinBody) {
      Request req;
      ParseRequest(junk.data(), junk.size(), &req, nullptr);
    }
    Reply reply;
    std::string err;
    for (uint8_t op : {kOpGet, kOpPut, kOpDelete, kOpScan}) {
      ParseReply(junk.data(), junk.size(), op, &reply, &err);
    }
    const uint8_t* body;
    size_t body_len, consumed;
    NextFrame(junk.data(), junk.size(), kDefaultMaxFrameBody, &body, &body_len,
              &consumed);
  }
}

// --- key escape (net/record_store.h) ----------------------------------------

TEST(NetKeyEscape, OrderPreservingAndPrefixFree) {
  std::mt19937_64 rng(42);
  auto random_key = [&]() {
    size_t len = rng() % 12;
    std::vector<uint8_t> k(len);
    for (auto& b : k) b = static_cast<uint8_t>(rng() % 4);  // NUL-heavy
    return k;
  };
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<uint8_t> a = random_key(), b = random_key();
    std::vector<uint8_t> ea, eb;
    EscapeKey(KeyRef(a.data(), a.size()), &ea);
    EscapeKey(KeyRef(b.data(), b.size()), &eb);
    ASSERT_EQ(ea.size(), EscapedKeyLength(KeyRef(a.data(), a.size())));
    int raw = KeyRef(a.data(), a.size()).Compare(KeyRef(b.data(), b.size()));
    int esc = KeyRef(ea.data(), ea.size()).Compare(KeyRef(eb.data(), eb.size()));
    ASSERT_EQ(raw < 0, esc < 0) << iter;
    ASSERT_EQ(raw == 0, esc == 0) << iter;
    // Prefix-freeness: distinct keys never escape to a prefix of another.
    if (raw != 0) {
      size_t min = std::min(ea.size(), eb.size());
      ASSERT_NE(memcmp(ea.data(), eb.data(), min), 0)
          << "escaped form is a prefix of another";
    }
  }
}

// Byte-at-a-time statement of the escape: the reference EscapeKey's
// memchr/memcpy runs must reproduce.
std::vector<uint8_t> ReferenceEscape(const std::vector<uint8_t>& raw) {
  std::vector<uint8_t> out;
  for (uint8_t b : raw) {
    out.push_back(b);
    if (b == 0x00) out.push_back(0x01);
  }
  out.push_back(0x00);
  out.push_back(0x00);
  return out;
}

TEST(NetKeyEscape, MatchesBytewiseReference) {
  std::mt19937_64 rng(7);
  std::vector<std::vector<uint8_t>> keys = {
      {},                                  // empty key
      std::vector<uint8_t>(1, 0x00),
      std::vector<uint8_t>(16, 0x00),      // all NULs
      std::vector<uint8_t>(254, 0x00),
      std::vector<uint8_t>(kMaxKeyLen, 'k'),  // longest wire key
  };
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> k(rng() % (kMaxKeyLen + 1));
    const unsigned nul_every = i % 3 == 0 ? 0 : 1 + rng() % 32;  // 0 = never
    for (auto& b : k) {
      b = static_cast<uint8_t>(1 + rng() % 255);
      if (nul_every != 0 && rng() % nul_every == 0) b = 0x00;
    }
    keys.push_back(std::move(k));
  }
  for (const auto& raw : keys) {
    const std::vector<uint8_t> expect = ReferenceEscape(raw);
    KeyRef ref(raw.data(), raw.size());
    std::vector<uint8_t> out = {0xab, 0x00, 0xcd};  // appended after
    ASSERT_EQ(EscapeKey(ref, &out), expect.size());
    ASSERT_EQ(out.size(), 3 + expect.size());
    EXPECT_EQ(out[0], 0xab);
    EXPECT_EQ(out[1], 0x00);
    EXPECT_EQ(out[2], 0xcd);
    ASSERT_TRUE(std::equal(expect.begin(), expect.end(), out.begin() + 3))
        << "raw length " << raw.size();
    EXPECT_EQ(EscapedKeyLength(ref), expect.size());
  }
}

TEST(NetRecordStore, AppendRoundTripsRawAndEscapedKeys) {
  std::mt19937_64 rng(11);
  RecordStore store;
  std::vector<std::vector<uint8_t>> raws;
  // Long keys first: more than 1 MiB of key bytes inside the first 16K
  // records outgrows the chunk's shared byte arena (64 B per record), so
  // the later records take the overflow allocation path.
  for (int i = 0; i < 4000; ++i) {
    const bool nuls = i % 4 == 0;
    std::vector<uint8_t> k(nuls ? rng() % 120 : 200 + rng() % 55);
    for (auto& b : k) {
      b = static_cast<uint8_t>(nuls ? rng() % 3 : 1 + rng() % 255);
    }
    ASSERT_TRUE(KeyFitsIndex(KeyRef(k.data(), k.size())));
    std::optional<uint64_t> id =
        store.Append(KeyRef(k.data(), k.size()), 5000 + i);
    ASSERT_TRUE(id.has_value());
    ASSERT_EQ(*id, raws.size());
    raws.push_back(std::move(k));
  }
  ASSERT_GT(store.key_bytes(), uint64_t{1} << 20);
  for (size_t id = 0; id < raws.size(); ++id) {
    const RecordStore::Record& rec = store.At(id);
    EXPECT_EQ(rec.value, 5000 + id);
    KeyRef raw = rec.raw_key();
    ASSERT_EQ(std::vector<uint8_t>(raw.data(), raw.data() + raw.size()),
              raws[id]);
    KeyRef esc = rec.escaped_key();
    ASSERT_EQ(std::vector<uint8_t>(esc.data(), esc.data() + esc.size()),
              ReferenceEscape(raws[id]));
  }
}

// Exhaustion is an ordinary refusal in every build (no assert): Append
// reports it, keeps every record it already holds, and stays full.
TEST(NetRecordStore, AppendRefusesPastCapacity) {
  EXPECT_EQ(RecordStore(~uint64_t{0}).capacity(), RecordStore::kMaxRecords);
  for (uint64_t capacity : {uint64_t{0}, uint64_t{5}, uint64_t{16385}}) {
    SCOPED_TRACE(capacity);
    RecordStore store(capacity);
    for (uint64_t i = 0; i < capacity; ++i) {
      std::string key = "cap-" + std::to_string(i);
      ASSERT_EQ(store.Append(KeyRef(key), i), std::optional<uint64_t>(i));
    }
    EXPECT_FALSE(store.Append(K("one-too-many"), 1).has_value());
    EXPECT_FALSE(store.Append(K("still-full"), 2).has_value());
    EXPECT_EQ(store.appended(), capacity);
    if (capacity > 0) {
      EXPECT_EQ(store.At(capacity - 1).value, capacity - 1);
      EXPECT_EQ(store.At(0).raw_key(), K("cap-0"));
    }
  }
}

// --- live-server harness -----------------------------------------------------

// Raw socket with explicit control over write granularity — KvClient is
// deliberately not used where the point is malformed or fragmented bytes.
struct RawConn {
  int fd = -1;

  ~RawConn() { Close(); }

  bool Connect(uint16_t port) {
    fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    timeval tv{};
    tv.tv_sec = 20;  // blocking reads fail loudly instead of hanging CI
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  void Close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  bool WriteAll(const uint8_t* p, size_t n) {
    size_t off = 0;
    while (off < n) {
      ssize_t w = ::write(fd, p + off, n - off);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) return false;
      off += static_cast<size_t>(w);
    }
    return true;
  }
  bool WriteAll(const std::vector<uint8_t>& v) {
    return WriteAll(v.data(), v.size());
  }

  // One byte per write(2) call — the server must reassemble.
  bool WriteByteByByte(const std::vector<uint8_t>& v) {
    for (uint8_t b : v) {
      if (!WriteAll(&b, 1)) return false;
    }
    return true;
  }

  // Reads exactly n bytes, `chunk` bytes per read(2) call.
  bool ReadExact(uint8_t* p, size_t n, size_t chunk = SIZE_MAX) {
    size_t off = 0;
    while (off < n) {
      ssize_t r = ::read(fd, p + off, std::min(chunk, n - off));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      off += static_cast<size_t>(r);
    }
    return true;
  }

  // Reads one reply frame; false on EOF/timeout.
  bool ReadFrame(std::vector<uint8_t>* frame_body, size_t chunk = SIZE_MAX) {
    uint8_t len[4];
    if (!ReadExact(len, 4, chunk)) return false;
    uint32_t body_len = GetU32(len);
    if (body_len > (64u << 20)) return false;
    frame_body->resize(body_len);
    return ReadExact(frame_body->data(), body_len, chunk);
  }

  // True when the server closed its end.
  bool ExpectEof() {
    uint8_t b;
    while (true) {
      ssize_t r = ::read(fd, &b, 1);
      if (r < 0 && errno == EINTR) continue;
      return r == 0;
    }
  }
};

class NetServerFixture : public Test {
 protected:
  void SetUp() override {
    std::string err;
    ASSERT_TRUE(server_.Start(&err)) << err;
  }

  // Polls until every accepted connection has been reaped.
  bool AwaitAllClosed(uint64_t expected_accepted,
                      std::chrono::seconds deadline = std::chrono::seconds(10)) {
    auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
      ServerStats s = server_.StatsSnapshot();
      if (s.connections_accepted >= expected_accepted &&
          s.connections_open() == 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  // A fresh connection can still PUT+GET — the liveness probe every
  // malformed-input test ends with.
  void AssertServerAlive(const char* key, uint64_t value) {
    KvClient c;
    std::string err;
    ASSERT_TRUE(c.Connect("127.0.0.1", server_.port(), &err)) << err;
    Reply reply;
    ASSERT_TRUE(c.Put(K(key), value, &reply, &err)) << err;
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(c.Get(K(key), &reply, &err)) << err;
    ASSERT_EQ(reply.status, kOk);
    ASSERT_EQ(reply.value, value);
  }

  KvServer server_{[] {
    ServerOptions opt;
    opt.workers = 2;
    return opt;
  }()};
};

// --- malformed frames against the live server --------------------------------

TEST_F(NetServerFixture, TruncatedLengthPrefixThenDisconnect) {
  uint64_t before = server_.StatsSnapshot().connections_accepted;
  {
    RawConn c;
    ASSERT_TRUE(c.Connect(server_.port()));
    uint8_t two[2] = {0x05, 0x00};  // half a length prefix
    ASSERT_TRUE(c.WriteAll(two, 2));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }  // disconnect with the prefix still buffered server-side
  ASSERT_TRUE(AwaitAllClosed(before + 1));
  AssertServerAlive("after-truncated-prefix", 1);
}

TEST_F(NetServerFixture, ZeroDeclaredLengthIsFatalButClean) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  uint8_t zero[4] = {0, 0, 0, 0};
  ASSERT_TRUE(c.WriteAll(zero, 4));
  std::vector<uint8_t> body;
  ASSERT_TRUE(c.ReadFrame(&body));  // one kBadFrame reply, id 0
  Reply reply;
  std::string err;
  ASSERT_TRUE(ParseReply(body.data(), body.size(), 0, &reply, &err)) << err;
  EXPECT_EQ(reply.id, 0u);
  EXPECT_EQ(reply.status, kBadFrame);
  EXPECT_TRUE(c.ExpectEof());  // then the server closes
  EXPECT_GE(server_.StatsSnapshot().protocol_errors, 1u);
  AssertServerAlive("after-zero-length", 2);
}

TEST_F(NetServerFixture, HugeDeclaredLengthIsFatalButClean) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};  // ~2 GiB declared body
  ASSERT_TRUE(c.WriteAll(huge, 4));
  std::vector<uint8_t> body;
  ASSERT_TRUE(c.ReadFrame(&body));
  Reply reply;
  std::string err;
  ASSERT_TRUE(ParseReply(body.data(), body.size(), 0, &reply, &err)) << err;
  EXPECT_EQ(reply.status, kBadFrame);
  EXPECT_TRUE(c.ExpectEof());
  AssertServerAlive("after-huge-length", 3);
}

TEST_F(NetServerFixture, UnknownOpcodeIsContained) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  std::vector<uint8_t> frame;
  PutU32(&frame, 9);  // id + opcode only
  PutU64(&frame, 555);
  frame.push_back(0x63);  // no such opcode
  ASSERT_TRUE(c.WriteAll(frame));
  std::vector<uint8_t> body;
  ASSERT_TRUE(c.ReadFrame(&body));
  Reply reply;
  std::string err;
  ASSERT_TRUE(ParseReply(body.data(), body.size(), 0, &reply, &err)) << err;
  EXPECT_EQ(reply.id, 555u);  // echoed even on error
  EXPECT_EQ(reply.status, kBadRequest);
  // Connection SURVIVES a contained error: a valid request on the same
  // socket still works.
  std::vector<uint8_t> put;
  EncodePut(&put, 556, K("survivor"), 7);
  ASSERT_TRUE(c.WriteAll(put));
  ASSERT_TRUE(c.ReadFrame(&body));
  ASSERT_TRUE(ParseReply(body.data(), body.size(), kOpPut, &reply, &err));
  EXPECT_EQ(reply.id, 556u);
  EXPECT_TRUE(reply.ok());
  EXPECT_GE(server_.StatsSnapshot().bad_requests, 1u);
}

TEST_F(NetServerFixture, OversizedKeyIsContained) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  // Hand-build a GET whose klen exceeds kMaxKeyLen but whose frame is
  // internally consistent (the encoders refuse to build this).
  std::vector<uint8_t> frame;
  const uint16_t klen = kMaxKeyLen + 20;
  PutU32(&frame, static_cast<uint32_t>(9 + 2 + klen));
  PutU64(&frame, 777);
  frame.push_back(kOpGet);
  PutU16(&frame, klen);
  frame.insert(frame.end(), klen, 'K');
  ASSERT_TRUE(c.WriteAll(frame));
  std::vector<uint8_t> body;
  ASSERT_TRUE(c.ReadFrame(&body));
  Reply reply;
  std::string err;
  ASSERT_TRUE(ParseReply(body.data(), body.size(), 0, &reply, &err)) << err;
  EXPECT_EQ(reply.id, 777u);
  EXPECT_EQ(reply.status, kKeyTooLong);
  EXPECT_GE(server_.StatsSnapshot().keys_too_long, 1u);
  // Still contained: the connection keeps working.
  std::vector<uint8_t> get;
  EncodeGet(&get, 778, K("absent"));
  ASSERT_TRUE(c.WriteAll(get));
  ASSERT_TRUE(c.ReadFrame(&body));
  ASSERT_TRUE(ParseReply(body.data(), body.size(), kOpGet, &reply, &err));
  EXPECT_EQ(reply.status, kNotFound);
}

// A key whose ESCAPED form exceeds the index limit (raw length is legal but
// it is all NUL bytes, which double under the escape) must be rejected
// per-key, not crash the trie.
TEST_F(NetServerFixture, NulHeavyKeyOverEscapedLimitIsContained) {
  std::vector<uint8_t> nuls(kMaxKeyLen, 0);  // escapes to 2*254+2 > 256
  ASSERT_FALSE(KeyFitsIndex(KeyRef(nuls.data(), nuls.size())));
  KvClient c;
  std::string err;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_.port(), &err)) << err;
  Reply reply;
  ASSERT_TRUE(c.Put(KeyRef(nuls.data(), nuls.size()), 1, &reply, &err));
  EXPECT_EQ(reply.status, kKeyTooLong);
  // DELETE of such a key: kNotFound (it cannot be present).
  ASSERT_TRUE(c.Delete(KeyRef(nuls.data(), nuls.size()), &reply, &err));
  EXPECT_EQ(reply.status, kNotFound);
  // Short NUL-y keys are fine and round-trip exactly.
  std::vector<uint8_t> shorty = {0, 1, 0, 0, 2};
  ASSERT_TRUE(c.Put(KeyRef(shorty.data(), shorty.size()), 77, &reply, &err));
  EXPECT_TRUE(reply.ok());
  ASSERT_TRUE(c.Scan(KeyRef(), 10, &reply, &err));
  ASSERT_TRUE(reply.ok());
  bool seen = false;
  for (const ScanEntry& e : reply.scan) {
    if (e.key == std::string(shorty.begin(), shorty.end())) {
      seen = true;
      EXPECT_EQ(e.value, 77u);
    }
  }
  EXPECT_TRUE(seen) << "NUL-bearing key lost its original bytes in SCAN";
}

// --- partial I/O torture -----------------------------------------------------

TEST_F(NetServerFixture, OneByteWritesAndReads) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  // Each phase is written ONE BYTE per write(2) call and its reply read ONE
  // BYTE per read(2) call.  Phases are awaited so a deferred GET never
  // shares a batch window with a write to the same key (the batch drain
  // answers GETs with end-of-iteration state, by design).
  auto roundtrip = [&](const std::vector<uint8_t>& stream, uint8_t op,
                       Reply* reply) {
    ASSERT_TRUE(c.WriteByteByByte(stream));
    std::vector<uint8_t> body;
    ASSERT_TRUE(c.ReadFrame(&body, /*chunk=*/1));
    ASSERT_GE(body.size(), kMinBody);
    std::string err;
    ASSERT_TRUE(ParseReply(body.data(), body.size(), op, reply, &err)) << err;
  };
  std::vector<uint8_t> stream;
  Reply reply;
  EncodePut(&stream, 1, K("dribble"), 1001);
  roundtrip(stream, kOpPut, &reply);
  EXPECT_TRUE(reply.ok());
  EXPECT_TRUE(reply.created);
  stream.clear();
  EncodeGet(&stream, 2, K("dribble"));
  roundtrip(stream, kOpGet, &reply);
  EXPECT_EQ(reply.status, kOk);
  EXPECT_EQ(reply.value, 1001u);
  stream.clear();
  EncodeScan(&stream, 3, K("dribble"), 5);
  roundtrip(stream, kOpScan, &reply);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.scan.size(), 1u);
  EXPECT_EQ(reply.scan[0].key, "dribble");
  EXPECT_EQ(reply.scan[0].value, 1001u);
  stream.clear();
  EncodeDelete(&stream, 4, K("dribble"));
  roundtrip(stream, kOpDelete, &reply);
  EXPECT_EQ(reply.status, kOk);  // removed
  stream.clear();
  EncodeGet(&stream, 5, K("dribble"));
  roundtrip(stream, kOpGet, &reply);
  EXPECT_EQ(reply.status, kNotFound);
}

TEST_F(NetServerFixture, RandomFragmentationTorture) {
  std::mt19937_64 rng(2026);
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  constexpr int kOps = 200;
  std::vector<uint8_t> stream;
  for (int i = 0; i < kOps; ++i) {
    std::string key = "frag-" + std::to_string(i % 37);
    if (i % 3 == 0) {
      EncodePut(&stream, static_cast<uint64_t>(i) + 1, KeyRef(key),
                static_cast<uint64_t>(i));
    } else {
      EncodeGet(&stream, static_cast<uint64_t>(i) + 1, KeyRef(key));
    }
  }
  // Write in random 1..7 byte chunks.
  size_t off = 0;
  while (off < stream.size()) {
    size_t n = std::min<size_t>(1 + rng() % 7, stream.size() - off);
    ASSERT_TRUE(c.WriteAll(stream.data() + off, n));
    off += n;
  }
  int got = 0;
  while (got < kOps) {
    std::vector<uint8_t> body;
    ASSERT_TRUE(c.ReadFrame(&body));
    ++got;
  }
  ServerStats s = server_.StatsSnapshot();
  EXPECT_GE(s.frames_in, static_cast<uint64_t>(kOps));
  EXPECT_EQ(s.protocol_errors, 0u);
}

// The server parses whole frames straight out of each read and carries only
// an incomplete trailing frame to the next read.  Every write here ends
// mid-frame — inside the length prefix, right after it, inside the id, at
// the opcode, inside the key, one byte short — and the next write completes
// that frame.  The client awaits the replies of every complete frame before
// writing on, so each write reaches the server as its own read and both
// receive paths alternate.
TEST_F(NetServerFixture, ReadsEndingMidFrameAlternateWithCompletingReads) {
  RawConn c;
  ASSERT_TRUE(c.Connect(server_.port()));
  // Even frames PUT a fresh key; odd frames GET the key the previous frame
  // wrote (a PUT executes inline when parsed, before the iteration's GETs
  // drain, so the GET sees it however the reads fall).
  constexpr int kFrames = 48;
  std::vector<uint8_t> stream;
  std::vector<size_t> frame_start;
  auto key_of = [](int i) {
    return "mid-" + std::to_string(i) + std::string(i * 5 % 97, 'x');
  };
  for (int i = 0; i < kFrames; ++i) {
    frame_start.push_back(stream.size());
    if (i % 2 == 0) {
      EncodePut(&stream, static_cast<uint64_t>(i) + 1, KeyRef(key_of(i)),
                1000 + static_cast<uint64_t>(i));
    } else {
      EncodeGet(&stream, static_cast<uint64_t>(i) + 1,
                KeyRef(key_of(i - 1)));
    }
  }
  frame_start.push_back(stream.size());

  // Cut inside frame i at a rotating offset; every third frame is left
  // whole so some reads also carry a complete frame in the middle.
  const size_t kCuts[] = {1, 2, 3, 4, 7, 12, 13, 15};
  std::vector<size_t> cuts;
  for (int i = 1; i < kFrames; ++i) {
    if (i % 3 == 2) continue;
    size_t len = frame_start[i + 1] - frame_start[i];
    size_t at = kCuts[i % 8] < len ? kCuts[i % 8] : len - 1;
    if (i % 5 == 0) at = len - 1;  // one byte short
    cuts.push_back(frame_start[i] + at);
  }
  cuts.push_back(stream.size());

  int replied = 0;
  std::vector<bool> seen(kFrames, false);
  size_t sent = 0;
  for (size_t cut : cuts) {
    ASSERT_TRUE(c.WriteAll(stream.data() + sent, cut - sent));
    sent = cut;
    int complete = 0;
    while (complete < kFrames && frame_start[complete + 1] <= sent) {
      ++complete;
    }
    for (; replied < complete; ++replied) {
      std::vector<uint8_t> body;
      ASSERT_TRUE(c.ReadFrame(&body));
      ASSERT_GE(body.size(), kMinBody);
      const uint64_t i = GetU64(body.data()) - 1;
      ASSERT_LT(i, static_cast<uint64_t>(complete));
      ASSERT_FALSE(seen[i]) << "frame " << i << " answered twice";
      seen[i] = true;
      Reply reply;
      std::string err;
      ASSERT_TRUE(ParseReply(body.data(), body.size(),
                             i % 2 == 0 ? kOpPut : kOpGet, &reply, &err))
          << err;
      ASSERT_EQ(reply.status, kOk) << "frame " << i;
      if (i % 2 == 0) {
        EXPECT_TRUE(reply.created) << "frame " << i;
      } else {
        EXPECT_EQ(reply.value, 1000 + i - 1) << "frame " << i;
      }
    }
  }
  EXPECT_EQ(replied, kFrames);
  ServerStats s = server_.StatsSnapshot();
  EXPECT_EQ(s.frames_in, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.bad_requests, 0u);
}

// --- mid-request disconnect / leak hygiene -----------------------------------

TEST_F(NetServerFixture, MidRequestDisconnectLeaksNothing) {
  uint64_t before = server_.StatsSnapshot().connections_accepted;
  constexpr int kConns = 32;
  for (int i = 0; i < kConns; ++i) {
    RawConn c;
    ASSERT_TRUE(c.Connect(server_.port()));
    // A valid header promising more bytes than we will ever send.
    std::vector<uint8_t> half;
    PutU32(&half, 100);
    PutU64(&half, static_cast<uint64_t>(i));
    half.push_back(kOpPut);
    ASSERT_TRUE(c.WriteAll(half));
    // Destructor disconnects with the request half-delivered.
  }
  ASSERT_TRUE(AwaitAllClosed(before + kConns));
  ServerStats s = server_.StatsSnapshot();
  EXPECT_EQ(s.connections_open(), 0u);
  // Nothing half-parsed leaked into the index.
  EXPECT_EQ(server_.live_keys(), 0u);
  AssertServerAlive("after-disconnect-storm", 4);
}

// Disconnect while replies are still owed (queued GETs whose connection
// dies before the batch drain answers them).
TEST_F(NetServerFixture, DisconnectWithOwedRepliesLeaksNothing) {
  KvClient seed;
  std::string err;
  ASSERT_TRUE(seed.Connect("127.0.0.1", server_.port(), &err)) << err;
  Reply reply;
  for (int i = 0; i < 64; ++i) {
    std::string key = "owed-" + std::to_string(i);
    ASSERT_TRUE(seed.Put(KeyRef(key), static_cast<uint64_t>(i), &reply, &err));
  }
  uint64_t before = server_.StatsSnapshot().connections_accepted;
  for (int round = 0; round < 8; ++round) {
    RawConn c;
    ASSERT_TRUE(c.Connect(server_.port()));
    std::vector<uint8_t> burst;
    for (int i = 0; i < 64; ++i) {
      std::string key = "owed-" + std::to_string(i);
      EncodeGet(&burst, static_cast<uint64_t>(i) + 1, KeyRef(key));
    }
    ASSERT_TRUE(c.WriteAll(burst));
    // Close immediately: many GETs are now in flight toward a dead socket.
  }
  seed.Close();  // connections_open() must reach exactly zero
  ASSERT_TRUE(AwaitAllClosed(before + 8));
  EXPECT_EQ(server_.StatsSnapshot().connections_open(), 0u);
  AssertServerAlive("after-owed-replies", 5);
}

}  // namespace
}  // namespace net
}  // namespace hot

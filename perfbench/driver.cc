// End-to-end, layer-by-layer benchmark of the served HOT KV store: one
// durable KvServer (src/net over RangeShardedIndex<RowexHotTrie>, WAL and
// snapshots from src/persist) driven over loopback sockets by KvClient.
//
//   hotkv_bench --workload NAME --seed N --seconds S --trace 0|1
//               --data-dir DIR
//
// A run has four parts.
//
//   1. Set-up, five times.  A snapshot of kKeys seeded keys is written into
//      a fresh data directory (untimed), then the clock runs from
//      KvServer::Start -- restart-by-rebuild recovery: snapshot read, bulk
//      build -- until every client connection has had one GET answered.
//      setup_s is the median of the five; the last server stays up.
//   2. Every thread of the process is pinned to one CPU, then two seconds
//      of warm-up and `seconds` of measurement.  One client thread
//      multiplexes every connection round by round: a burst of `depth`
//      requests per connection, flush all, read all (closed loop).  A
//      request's latency runs from its burst's flush to its reply.  The
//      measurement is cut into 0.25 s windows; the end-to-end metrics come
//      from the quietest few of them (see QuietWindows).
//   3. Every reply is checked.  Values encode (key index << 32 | version);
//      a connection only writes keys of its own partition, so each PUT must
//      return exactly the version before it, and a GET must carry its own
//      key's index and a version between the newest one acknowledged before
//      the request was sent and the newest one sent.
//   4. --trace 1 reports per-layer metrics instead of end-to-end ones:
//      server counter ratios over the measured window, and spans timed
//      around direct calls into each layer (frame parse, key escape, trie
//      descent batched and scalar, record resolve, reply encode, WAL append,
//      WAL fsync, idle round trip) on a sample of the workload's requests.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sched.h>

#include "common/key.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/record_store.h"
#include "net/server.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace {

using hot::KeyRef;
using hot::SplitMix64;
using hot::net::KvClient;
using hot::net::KvServer;
using hot::net::Reply;
using hot::net::ServerOptions;
using hot::net::ServerStats;
using hot::persist::Durability;
namespace fs = std::filesystem;

// Key universe.  2^19 keys of 20 bytes: the trie plus the record store is
// far past the last-level cache, so descents miss in cache as they do in a
// real deployment, while the process stays small.
constexpr uint32_t kKeys = 1u << 19;
constexpr int kSetupRepeats = 5;
constexpr double kWarmupSeconds = 2.0;
constexpr double kWindowSeconds = 0.25;
constexpr size_t kQuietWindows = 3;
// One reply in kLatencyStride has its latency kept (7 is coprime to every
// burst size, so the kept replies rotate through burst positions).
constexpr uint64_t kLatencyStride = 7;

// Closed-loop traffic mix of GETs and PUTs on uniformly drawn keys.  Every
// PUT overwrites an existing key and no workload deletes, so no operation
// is expected to fail.
struct Workload {
  const char* name;
  unsigned conns;
  unsigned depth;    // requests per connection per round
  unsigned get_pct;  // the rest are PUTs
  Durability durability;
};

// BENCHMARK.json records why each workload exists.
constexpr Workload kWorkloads[] = {
    {"get-deep", 8, 32, 100, Durability::kSync},
    {"mixed", 8, 16, 90, Durability::kAsync},
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "hotkv_bench: %s\n", why.c_str());
  std::exit(1);
}

// Bijective 64-bit mix (the SplitMix64 finalizer): distinct key indexes
// give distinct keys, and the seed reshuffles the whole key set.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// Key index -> 20 wire bytes: "user" + 16 hex digits.
class KeySpace {
 public:
  static constexpr size_t kLen = 20;

  explicit KeySpace(uint64_t seed) : salt_(Mix(seed ^ 0x5eedull)) {}

  void Make(uint32_t k, char* out) const {
    static const char kHex[] = "0123456789abcdef";
    uint64_t h = Mix(k + salt_);
    std::memcpy(out, "user", 4);
    for (int i = 0; i < 16; ++i) out[4 + i] = kHex[(h >> (60 - 4 * i)) & 15];
  }
  std::string Str(uint32_t k) const {
    std::string s(kLen, '\0');
    Make(k, s.data());
    return s;
  }

 private:
  uint64_t salt_;
};

uint64_t Value(uint32_t k, uint32_t version) {
  return (uint64_t{k} << 32) | version;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of raw samples (reorders `v`).
double Percentile(std::vector<uint32_t>& v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// The replies that landed in one measurement window: how many, and the
// latencies (ns) of the sampled ones.
struct Window {
  uint64_t replies = 0;
  std::vector<uint32_t> latency_ns;
};

// The end-to-end figures of a run, from its quiet windows: the
// kQuietWindows windows that answered the most replies.  On a shared host
// the CPU the benchmark runs on loses speed to other tenants for seconds to
// minutes at a time, and they never speed it up, so the quiet windows track
// the code and the rest track the neighbours.  Throughput is the median
// rate of the quiet windows, and the median latency the median of theirs.
struct EndToEnd {
  double kops, p50_us;
};

EndToEnd QuietWindows(std::vector<Window>& windows, double window_s) {
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              return a.replies > b.replies;
            });
  windows.resize(std::min(windows.size(), kQuietWindows));
  std::vector<double> kops, p50;
  for (Window& w : windows) {
    kops.push_back(static_cast<double>(w.replies) / window_s / 1e3);
    p50.push_back(Percentile(w.latency_ns, 50) / 1e3);
  }
  return {Median(kops), Median(p50)};
}

// --- set-up ------------------------------------------------------------------

// Writes the initial image (every key at version 0) as an installed
// snapshot: what a clean shutdown of a loaded server leaves behind.
void WriteSnapshot(const std::string& dir,
                   const std::vector<std::pair<std::string, uint32_t>>& sorted) {
  fs::create_directories(dir);
  hot::persist::SnapshotWriter w;
  std::string err;
  if (!w.Open(hot::persist::SnapshotPath(dir), &err)) Die("snapshot: " + err);
  for (const auto& [key, k] : sorted) {
    if (!w.Add(KeyRef(key), Value(k, 0))) Die("snapshot add failed");
  }
  if (!w.Finish(0, &err)) Die("snapshot: " + err);
}

struct Conn {
  KvClient client;
  unsigned index = 0;
  uint64_t flush_ns = 0;
};

std::vector<std::unique_ptr<Conn>> ConnectAll(uint16_t port, unsigned n) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (unsigned i = 0; i < n; ++i) {
    auto c = std::make_unique<Conn>();
    c->index = i;
    std::string err;
    if (!c->client.Connect("127.0.0.1", port, &err)) Die("connect: " + err);
    conns.push_back(std::move(c));
  }
  return conns;
}

// Pins every thread of the process -- the client, the server's event loop,
// its WAL flusher -- to the last CPU it may run on.  Client and server hand
// each round back and forth; across CPUs every hand-off is a cross-CPU
// wake-up whose price swings with what the rest of the host does, while on
// one CPU it is a local context switch, so a run measures what a request
// costs.  Threads started later inherit the pin.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    Die("sched_getaffinity failed");
  }
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &allowed)) cpu = i;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) Die("cannot list /proc/self/task");
  while (const dirent* e = readdir(tasks)) {
    if (e->d_name[0] == '.') continue;
    if (sched_setaffinity(std::atoi(e->d_name), sizeof(one), &one) != 0) {
      Die(std::string("cannot pin thread ") + e->d_name);
    }
  }
  closedir(tasks);
}

// --- traffic -----------------------------------------------------------------

struct Request {
  uint8_t op;
  uint32_t k;
  uint32_t version;  // PUT: version written; GET: acked floor at send
};

class Driver {
 public:
  Driver(const Workload& w, uint64_t seed)
      : w_(w),
        rng_(Mix(seed ^ 0x7a11c0ffeeull)),
        part_size_(kKeys / w.conns),
        issued_(kKeys, 0),
        acked_(kKeys, 0),
        pending_(w.conns),
        base_id_(w.conns, 0) {}

  // Runs rounds until `end_ns`.  Replies landing in [start_ns, end_ns) are
  // recorded into `windows`, split evenly over that span; nullptr records
  // nothing (warm-up).
  void Run(const KeySpace& keys, std::vector<std::unique_ptr<Conn>>& conns,
           uint64_t start_ns, uint64_t end_ns, std::vector<Window>* windows) {
    while (NowNs() < end_ns) {
      for (auto& c : conns) Burst(keys, *c);
      for (auto& c : conns) {
        uint64_t flushed = c->flush_ns;
        Collect(*c, [&](uint64_t now) {
          if (windows == nullptr || now < start_ns || now >= end_ns) return;
          size_t wi = static_cast<size_t>((now - start_ns) * windows->size() /
                                          (end_ns - start_ns));
          Window& win = (*windows)[wi];
          if (win.replies++ % kLatencyStride == 0) {
            win.latency_ns.push_back(static_cast<uint32_t>(
                std::min<uint64_t>(now - flushed, UINT32_MAX)));
          }
        });
      }
    }
  }

  // Requests drawn exactly as connection `conn` draws them.
  std::vector<Request> Sample(size_t n, unsigned conn) {
    std::vector<Request> out(n);
    for (Request& r : out) r = Draw(conn);
    return out;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::string& first_error() const { return first_error_; }

 private:
  Request Draw(unsigned conn) {
    Request r{};
    r.k = static_cast<uint32_t>(rng_.NextBounded(part_size_) * w_.conns + conn);
    r.op = rng_.NextBounded(100) < w_.get_pct ? hot::net::kOpGet
                                              : hot::net::kOpPut;
    return r;
  }

  void Burst(const KeySpace& keys, Conn& c) {
    std::vector<Request>& pend = pending_[c.index];
    pend.clear();
    char key[KeySpace::kLen];
    for (unsigned d = 0; d < w_.depth; ++d) {
      Request r = Draw(c.index);
      keys.Make(r.k, key);
      KeyRef kr(reinterpret_cast<const uint8_t*>(key), sizeof(key));
      uint64_t id;
      if (r.op == hot::net::kOpGet) {
        r.version = acked_[r.k];
        id = c.client.SendGet(kr);
      } else {
        r.version = ++issued_[r.k];
        id = c.client.SendPut(kr, Value(r.k, r.version));
      }
      if (d == 0) base_id_[c.index] = id;  // ids of one client are dense
      pend.push_back(r);
      ++attempted_;
    }
    std::string err;
    if (!c.client.Flush(&err)) Die("flush: " + err);
    c.flush_ns = NowNs();
  }

  template <typename OnDone>
  void Collect(Conn& c, OnDone&& on_done) {
    const std::vector<Request>& pend = pending_[c.index];
    std::string err;
    for (size_t i = 0; i < pend.size(); ++i) {
      Reply reply;
      if (!c.client.ReadReply(&reply, &err)) Die("read: " + err);
      uint64_t slot = reply.id - base_id_[c.index];
      if (slot >= pend.size()) Die("reply for an id never sent");
      Check(pend[slot], reply);
      on_done(NowNs());
    }
  }

  void Fail(const std::string& why) {
    if (failed_++ == 0) first_error_ = why;
  }

  void Check(const Request& r, const Reply& reply) {
    if (reply.status != hot::net::kOk) {
      Fail("status " + std::to_string(reply.status) + " " + reply.error);
      return;
    }
    if (r.op == hot::net::kOpGet) {
      uint32_t ver = static_cast<uint32_t>(reply.value);
      if ((reply.value >> 32) != r.k || ver < r.version ||
          ver > issued_[r.k]) {
        Fail("GET value mismatch");
      }
      return;
    }
    if (reply.created || reply.prev != Value(r.k, r.version - 1)) {
      Fail("PUT previous value mismatch");
    }
    acked_[r.k] = std::max(acked_[r.k], r.version);
  }

  const Workload& w_;
  SplitMix64 rng_;
  const uint64_t part_size_;
  std::vector<uint32_t> issued_;  // newest version sent, per key
  std::vector<uint32_t> acked_;   // newest version acknowledged, per key
  std::vector<std::vector<Request>> pending_;  // per connection, id order
  std::vector<uint64_t> base_id_;              // first id of each burst
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_error_;
};

// --- layer spans -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Times `body(i)` for i in [0, n), `reps` times; median ns per call.
template <typename Body>
double NsPerCall(size_t n, int reps, Body&& body) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) body(i);
    per.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(n));
  }
  return Median(per);
}

// Spans around direct calls into each layer a request crosses, on the
// workload's own requests, against the idle server's live index and store.
void LayerSpans(const KvServer& server, const std::vector<Request>& sample,
                const KeySpace& keys, size_t batch_width,
                const std::string& probe_dir, std::vector<Metric>* out) {
  constexpr int kReps = 5;
  const size_t n = sample.size();
  std::vector<std::string> raw(n);
  for (size_t i = 0; i < n; ++i) raw[i] = keys.Str(sample[i].k);
  uint64_t sink = 0;

  // Frame parse: framing + request decode over the bytes the client sends.
  std::vector<uint8_t> wire;
  for (size_t i = 0; i < n; ++i) {
    if (sample[i].op == hot::net::kOpGet) {
      hot::net::EncodeGet(&wire, i, KeyRef(raw[i]));
    } else {
      hot::net::EncodePut(&wire, i, KeyRef(raw[i]), i);
    }
  }
  size_t off = 0;
  out->push_back({"frame_parse_ns", NsPerCall(n, kReps, [&](size_t i) {
                    if (i == 0) off = 0;
                    const uint8_t* body = nullptr;
                    size_t body_len = 0, consumed = 0;
                    hot::net::NextFrame(wire.data() + off, wire.size() - off,
                                        hot::net::kDefaultMaxFrameBody, &body,
                                        &body_len, &consumed);
                    hot::net::Request req;
                    hot::net::ParseRequest(body, body_len, &req, nullptr);
                    sink += req.key.size();
                    off += consumed;
                  }),
                  "ns"});

  // Key escape into the tries' prefix-free key space.
  std::vector<uint8_t> esc;
  out->push_back({"key_escape_ns", NsPerCall(n, kReps, [&](size_t i) {
                    esc.clear();
                    hot::net::EscapeKey(KeyRef(raw[i]), &esc);
                    sink += esc.size();
                  }),
                  "ns"});

  std::vector<uint8_t> arena;
  std::vector<size_t> offs(n + 1);
  for (size_t i = 0; i < n; ++i) {
    offs[i] = arena.size();
    hot::net::EscapeKey(KeyRef(raw[i]), &arena);
  }
  offs[n] = arena.size();
  std::vector<KeyRef> escaped(n);
  for (size_t i = 0; i < n; ++i) {
    escaped[i] = KeyRef(arena.data() + offs[i], offs[i + 1] - offs[i]);
  }

  // Trie descent: batched at the width the server drained, and scalar.
  const KvServer::Index& index = server.index();
  std::vector<std::optional<uint64_t>> ids(n);
  out->push_back(
      {"trie_descent_batched_ns",
       NsPerCall((n + batch_width - 1) / batch_width, kReps,
                 [&](size_t b) {
                   size_t i = b * batch_width;
                   size_t m = std::min(batch_width, n - i);
                   index.LookupBatch(
                       std::span<const KeyRef>(escaped.data() + i, m),
                       std::span<std::optional<uint64_t>>(ids.data() + i, m));
                 }) /
           static_cast<double>(batch_width),
       "ns"});
  out->push_back({"trie_descent_scalar_ns", NsPerCall(n, kReps, [&](size_t i) {
                    sink += index.Lookup(escaped[i]).value_or(0);
                  }),
                  "ns"});
  for (size_t i = 0; i < n; ++i) {
    if (!ids[i].has_value()) Die("layer spans: sampled key not in the index");
  }

  // Record resolve: record id -> value, as the GET drain does per reply.
  const hot::net::RecordStore& store = server.store();
  out->push_back({"record_resolve_ns", NsPerCall(n, kReps, [&](size_t i) {
                    sink += store.At(*ids[i]).value;
                  }),
                  "ns"});

  // Reply encode into a connection's output buffer.
  std::vector<uint8_t> reply;
  out->push_back({"reply_encode_ns", NsPerCall(n, kReps, [&](size_t i) {
                    if (i % 1024 == 0) reply.clear();
                    hot::net::EncodeGetReply(&reply, i, true, i);
                  }),
                  "ns"});

  // WAL: the buffered, CRC-framed append every write pays, then the fsync
  // a sync-mode commit waits for, on a scratch log beside the server's.
  {
    fs::create_directories(probe_dir);
    hot::persist::Wal wal;
    hot::persist::Wal::Options opt;
    opt.durability = Durability::kSync;
    opt.flush_interval_ms = 0;
    std::string err;
    if (!wal.Open(probe_dir, hot::persist::WalResume{}, opt, &err)) {
      Die("wal probe: " + err);
    }
    uint64_t lsn = 0;
    out->push_back({"wal_append_ns", NsPerCall(n, 1, [&](size_t i) {
                      lsn = wal.Append(hot::persist::kWalPut, KeyRef(raw[i]),
                                       i);
                    }),
                    "ns"});
    if (!wal.Commit(lsn, &err)) Die("wal probe commit: " + err);
    std::vector<double> per;
    uint64_t deadline = NowNs() + 500'000'000ull;
    for (size_t i = 0; i < 200 && (i < 20 || NowNs() < deadline); ++i) {
      uint64_t l = wal.Append(hot::persist::kWalPut, KeyRef(raw[i % n]), i);
      uint64_t t0 = NowNs();
      if (!wal.Commit(l, &err)) Die("wal probe commit: " + err);
      per.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    out->push_back({"wal_fsync_us", Median(per), "us"});
    wal.Close();
    fs::remove_all(probe_dir);
  }

  // Idle round trip: one unpipelined GET at a time on an idle server -- the
  // socket, wake-up and event-loop floor under every request.
  {
    KvClient c;
    std::string err;
    if (!c.Connect("127.0.0.1", server.port(), &err)) Die("connect: " + err);
    std::vector<double> per;
    for (size_t i = 0; i < 1000; ++i) {
      Reply r;
      uint64_t t0 = NowNs();
      if (!c.Get(KeyRef(raw[i % n]), &r, &err)) Die("idle GET: " + err);
      per.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      sink += r.value;
    }
    out->push_back({"idle_get_rtt_us", Median(per), "us"});
  }
  // Consumed so no timed loop body is dead code.
  if (sink == 1) std::fprintf(stderr, "sink\n");
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
};

Args ParseArgs(int argc, char** argv) {
  if (argc % 2 != 1) Die("every flag takes one value");
  Args a;
  for (int i = 1; i < argc; i += 2) {
    std::string flag = argv[i], v = argv[i + 1];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--data-dir") a.data_dir = v;
    else Die("unknown flag " + flag);
  }
  if (a.data_dir.empty()) Die("--data-dir is required");
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args a = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) Die("unknown workload '" + a.workload + "'");

  KeySpace keys(a.seed);
  std::vector<std::pair<std::string, uint32_t>> sorted(kKeys);
  for (uint32_t k = 0; k < kKeys; ++k) sorted[k] = {keys.Str(k), k};
  std::sort(sorted.begin(), sorted.end());

  ServerOptions opt;
  opt.durability = w->durability;
  std::unique_ptr<KvServer> server;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<double> setup_s, recover_ms, build_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    conns.clear();
    server.reset();
    opt.data_dir = a.data_dir + "/server-" + std::to_string(rep);
    fs::remove_all(opt.data_dir);
    WriteSnapshot(opt.data_dir, sorted);
    uint64_t t0 = NowNs();
    server = std::make_unique<KvServer>(opt);
    std::string err;
    if (!server->Start(&err)) Die("server start: " + err);
    conns = ConnectAll(server->port(), w->conns);
    for (auto& c : conns) {
      Reply r;
      if (!c->client.Get(KeyRef(sorted[c->index].first), &r, &err)) {
        Die("first GET: " + err);
      }
      if (r.status != hot::net::kOk) Die("first GET: key missing");
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    recover_ms.push_back(server->recovery().recover_seconds * 1e3);
    build_ms.push_back(server->recovery().build_seconds * 1e3);
    if (server->live_keys() != kKeys) Die("recovery lost keys");
  }
  std::vector<std::pair<std::string, uint32_t>>().swap(sorted);

  PinToOneCpu();
  Driver driver(*w, a.seed);
  uint64_t warm_end = NowNs() + static_cast<uint64_t>(kWarmupSeconds * 1e9);
  driver.Run(keys, conns, 0, warm_end, nullptr);

  const size_t nwin = std::max<size_t>(
      4, static_cast<size_t>(a.seconds / kWindowSeconds + 0.5));
  std::vector<Window> windows(nwin);
  ServerStats before = server->StatsSnapshot();
  uint64_t appended_before = server->store().appended();
  uint64_t t0 = NowNs();
  uint64_t t1 = t0 + static_cast<uint64_t>(a.seconds * 1e9);
  driver.Run(keys, conns, t0, t1, &windows);
  ServerStats after = server->StatsSnapshot();
  uint64_t appended = server->store().appended() - appended_before;

  const bool correct = driver.failed() == 0;
  if (!correct) {
    std::fprintf(stderr, "hotkv_bench: %" PRIu64 " replies failed; first: %s\n",
                 driver.failed(), driver.first_error().c_str());
  }
  std::vector<Metric> metrics;
  if (!a.trace) {
    EndToEnd e =
        QuietWindows(windows, a.seconds / static_cast<double>(nwin));
    metrics.push_back({"throughput_kops", e.kops, "kop/s"});
    metrics.push_back({"latency_p50_us", e.p50_us, "us"});
    metrics.push_back({"setup_s", Median(setup_s), "s"});
  } else {
    uint64_t gets = after.gets - before.gets;
    uint64_t puts = after.puts - before.puts;
    uint64_t batched = after.batched_gets - before.batched_gets;
    uint64_t drained = batched + (after.scalar_gets - before.scalar_gets);
    uint64_t drains = (after.batch_drains - before.batch_drains) +
                      (after.scalar_drains - before.scalar_drains);
    double gets_per_drain = Ratio(drained, drains);
    metrics.push_back({"gets_per_drain", gets_per_drain, "count"});
    metrics.push_back({"batched_get_pct", 100.0 * Ratio(batched, gets), "%"});
    metrics.push_back(
        {"wal_fsyncs_per_kput",
         1000.0 * Ratio(after.wal_fsyncs - before.wal_fsyncs, puts), "count"});
    metrics.push_back({"records_per_put", Ratio(appended, puts), "count"});
    metrics.push_back({"reply_bytes_per_op",
                       Ratio(after.bytes_out - before.bytes_out,
                             after.replies_out - before.replies_out),
                       "B"});
    metrics.push_back({"recovery_read_ms", Median(recover_ms), "ms"});
    metrics.push_back({"recovery_build_ms", Median(build_ms), "ms"});
    // The sample follows the workload's key popularity from a separate
    // stream; a workload without GETs is timed at a 64-wide batch.
    Driver sampler(*w, a.seed ^ 0xa5a5a5a5ull);
    std::vector<Request> sample;
    for (unsigned c = 0; c < w->conns; ++c) {
      std::vector<Request> part = sampler.Sample((1u << 16) / w->conns, c);
      sample.insert(sample.end(), part.begin(), part.end());
    }
    size_t width =
        drains == 0 ? 64
                    : std::clamp<size_t>(
                          static_cast<size_t>(gets_per_drain + 0.5), 1, 4096);
    LayerSpans(*server, sample, keys, width, a.data_dir + "/wal-probe",
               &metrics);
  }

  conns.clear();
  server->Stop();
  server.reset();
  fs::remove_all(a.data_dir);
  PrintResult(correct, driver.attempted(), driver.failed(), metrics);
  return 0;
}

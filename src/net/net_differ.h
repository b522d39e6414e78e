// Differential trace replay THROUGH THE PROTOCOL LAYER (the `net` fuzz
// arm): the same testing/trace.h traces the in-process differ executes
// against adapters are here driven through a loopback KvServer over real
// sockets, and every reply is diffed against the Patricia oracle.
//
// Scheduling mirrors the YCSB driver's batched-read grouping so the replay
// actually exercises the server's batch-drain path and its out-of-order
// completions: consecutive lookup ops are pipelined (sent without awaiting
// replies) up to `pipeline_width`, any other op first drains the pipeline.
// The oracle answer for a pipelined GET is computed AT SEND TIME — sound
// because only lookups sit in a pipeline window, so the oracle cannot
// change under it.  Replies are matched by request id, never arrival order.
//
// Audit ops diff the server's ENTIRE content against the oracle through
// chunked SCANs (resume from the last returned key, skipping keys <= it —
// the escape in net/record_store.h preserves raw-key order, so raw-key
// resumption is exact).
//
// Keys that the wire or the index rejects (raw length > kMaxKeyLen, or
// escaped form over the tries' limit) are part of the differential too:
// the server must answer kKeyTooLong and the oracle skips the op, keeping
// both sides in lockstep.

#ifndef HOT_NET_NET_DIFFER_H_
#define HOT_NET_NET_DIFFER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "net/client.h"
#include "net/record_store.h"
#include "net/server.h"
#include "patricia/patricia.h"
#include "testing/keyspace.h"
#include "testing/trace.h"

namespace hot {
namespace net {

struct NetDiffOptions {
  unsigned pipeline_width = 24;  // consecutive lookups per pipelined flush
  uint32_t scan_chunk = 512;     // audit full-scan chunk size
  ServerOptions server;          // workers / watermarks / scalar mode
};

struct NetDiffResult {
  bool ok = true;
  size_t ops_executed = 0;
  size_t failed_op = 0;
  std::string error;
  ServerStats stats;  // snapshot at completion (batch vs scalar evidence)

  std::string Describe() const {
    if (ok) return "ok after " + std::to_string(ops_executed) + " ops";
    std::ostringstream oss;
    oss << "FAIL at op " << failed_op << ": " << error;
    return oss.str();
  }
};

namespace net_detail {

template <typename Extractor>
class NetTraceRunner {
 public:
  NetTraceRunner(const testing::KeySpace& ks, const Extractor& extractor,
                 const NetDiffOptions& opts)
      : ks_(ks), extractor_(extractor), opts_(opts), oracle_(extractor) {}

  NetDiffResult Run(const testing::Trace& trace) {
    NetDiffResult res;
    const size_t n = ks_.size();
    if (n == 0) {
      res.error = "empty keyspace";
      res.ok = trace.ops.empty();
      return res;
    }
    KvServer server(opts_.server);
    std::string err;
    if (!server.Start(&err)) {
      res.ok = false;
      res.error = "server start: " + err;
      return res;
    }
    if (!client_.Connect("127.0.0.1", server.port(), &err)) {
      res.ok = false;
      res.error = "connect: " + err;
      return res;
    }
    for (size_t op_i = 0; op_i < trace.ops.size(); ++op_i) {
      testing::Op op = trace.ops[op_i];
      op.idx %= static_cast<uint32_t>(n);
      if (!Step(op, &err)) {
        res.ok = false;
        res.failed_op = op_i;
        res.error = err;
        res.ops_executed = op_i;
        res.stats = FinishStats(&server);
        return res;
      }
      ++res.ops_executed;
    }
    if (!DrainPipeline(&err)) {
      res.ok = false;
      res.failed_op = trace.ops.size();
      res.error = err;
    }
    res.stats = FinishStats(&server);
    return res;
  }

 private:
  ServerStats FinishStats(KvServer* server) {
    client_.Close();
    server->Stop();
    return server->StatsSnapshot();
  }

  KeyRef KeyAt(uint32_t idx, KeyScratch& scratch) const {
    return extractor_(ks_.ValueOf(idx), scratch);
  }

  static bool WireRejects(KeyRef key) {
    return key.size() > kMaxKeyLen || !KeyFitsIndex(key);
  }

  bool Fail(std::string* err, const std::string& msg) {
    *err = msg;
    return false;
  }

  // Expects `reply` (already matched by id) for a key the server must
  // reject; oracle state is untouched.
  bool DiffRejected(const Reply& reply, const char* what, std::string* err) {
    if (reply.status != kKeyTooLong) {
      return Fail(err, std::string(what) +
                           ": over-long key not answered kKeyTooLong "
                           "(status " +
                           std::to_string(reply.status) + ")");
    }
    return true;
  }

  bool Step(const testing::Op& op, std::string* err) {
    using testing::OpKind;
    KeyScratch scratch;
    switch (op.kind) {
      case OpKind::kLookup: {
        KeyRef key = KeyAt(op.idx, scratch);
        InFlight f;
        f.idx = op.idx;
        f.rejected = WireRejects(key);
        f.expected = f.rejected ? std::nullopt : oracle_.Lookup(key);
        uint64_t id = client_.SendGet(key);
        inflight_[id] = f;
        if (inflight_.size() >= opts_.pipeline_width) {
          return DrainPipeline(err);
        }
        return true;
      }
      case OpKind::kInsert:
      case OpKind::kUpsert: {
        if (!DrainPipeline(err)) return false;
        uint64_t v = ks_.ValueOf(op.idx);
        KeyRef key = KeyAt(op.idx, scratch);
        Reply reply;
        if (!client_.Put(key, v, &reply, err)) return false;
        if (WireRejects(key)) return DiffRejected(reply, "Put", err);
        bool inserted = oracle_.Insert(v);
        if (!reply.ok()) {
          return Fail(err, "Put(key " + std::to_string(op.idx) +
                               "): status " + std::to_string(reply.status) +
                               " " + reply.error);
        }
        if (reply.created != inserted) {
          return Fail(err, "Put(key " + std::to_string(op.idx) +
                               "): oracle created=" +
                               std::to_string(inserted) + ", server created=" +
                               std::to_string(reply.created));
        }
        if (!reply.created && reply.prev != v) {
          return Fail(err, "Put(key " + std::to_string(op.idx) +
                               "): replaced prev " +
                               std::to_string(reply.prev) + ", expected " +
                               std::to_string(v));
        }
        return true;
      }
      case OpKind::kRemove: {
        if (!DrainPipeline(err)) return false;
        KeyRef key = KeyAt(op.idx, scratch);
        Reply reply;
        if (!client_.Delete(key, &reply, err)) return false;
        if (WireRejects(key)) {
          // Wire-rejected deletes answer kNotFound (the key cannot be
          // present) or kKeyTooLong depending on which limit tripped.
          if (reply.status != kNotFound && reply.status != kKeyTooLong) {
            return Fail(err, "Delete(over-long key): status " +
                                 std::to_string(reply.status));
          }
          return true;
        }
        bool want = oracle_.Remove(key);
        bool got = reply.status == kOk;
        if (reply.status != kOk && reply.status != kNotFound) {
          return Fail(err, "Delete(key " + std::to_string(op.idx) +
                               "): status " + std::to_string(reply.status) +
                               " " + reply.error);
        }
        if (want != got) {
          return Fail(err, "Delete(key " + std::to_string(op.idx) +
                               "): oracle " + std::to_string(want) +
                               ", server " + std::to_string(got));
        }
        return true;
      }
      case OpKind::kLowerBound: {
        if (!DrainPipeline(err)) return false;
        KeyRef key = KeyAt(op.idx, scratch);
        if (WireRejects(key)) return true;  // no defined wire semantics
        Reply reply;
        if (!client_.Scan(key, 1, &reply, err)) return false;
        if (!reply.ok()) {
          return Fail(err, "LowerBound scan status " +
                               std::to_string(reply.status));
        }
        std::optional<uint64_t> want;
        oracle_.ScanFrom(key, [&](uint64_t v) {
          want = v;
          return false;
        });
        if (want.has_value() != !reply.scan.empty()) {
          return Fail(err, "LowerBound(key " + std::to_string(op.idx) +
                               "): oracle " +
                               (want ? std::to_string(*want) : "none") +
                               ", server " +
                               (reply.scan.empty()
                                    ? "none"
                                    : std::to_string(reply.scan[0].value)));
        }
        if (want && reply.scan[0].value != *want) {
          return Fail(err, "LowerBound(key " + std::to_string(op.idx) +
                               "): oracle value " + std::to_string(*want) +
                               ", server value " +
                               std::to_string(reply.scan[0].value));
        }
        if (want) {
          KeyScratch ws;
          KeyRef wk = extractor_(*want, ws);
          if (KeyRef(reply.scan[0].key).Compare(wk) != 0) {
            return Fail(err, "LowerBound(key " + std::to_string(op.idx) +
                                 "): server returned wrong key bytes");
          }
        }
        return true;
      }
      case OpKind::kScan:
        if (!DrainPipeline(err)) return false;
        return DiffScan(op, err);
      case OpKind::kBulkLoad: {
        if (!DrainPipeline(err)) return false;
        const std::vector<uint64_t>& sorted = ks_.SortedValues();
        size_t m = std::min<size_t>(op.arg ? op.arg : 1, sorted.size());
        for (size_t i = 0; i < m; ++i) {
          uint64_t v = sorted[i];
          KeyScratch s;
          KeyRef key = extractor_(v, s);
          Reply reply;
          if (!client_.Put(key, v, &reply, err)) return false;
          if (WireRejects(key)) {
            if (!DiffRejected(reply, "BulkLoad Put", err)) return false;
            continue;
          }
          bool inserted = oracle_.Insert(v);
          if (!reply.ok() || reply.created != inserted) {
            return Fail(err, "BulkLoad-as-Put diverged at sorted value " +
                                 std::to_string(i));
          }
        }
        return true;
      }
      case OpKind::kAudit:
        if (!DrainPipeline(err)) return false;
        return Audit(err);
    }
    return Fail(err, "unreachable op kind");
  }

  bool DrainPipeline(std::string* err) {
    if (inflight_.empty()) return true;
    if (!client_.Flush(err)) return false;
    size_t want = inflight_.size();
    for (size_t i = 0; i < want; ++i) {
      Reply reply;
      if (!client_.ReadReply(&reply, err)) return false;
      auto it = inflight_.find(reply.id);
      if (it == inflight_.end()) {
        return Fail(err, "reply for unknown request id " +
                             std::to_string(reply.id));
      }
      const InFlight& f = it->second;
      if (f.rejected) {
        if (!DiffRejected(reply, "Get", err)) return false;
      } else if (reply.status == kOk) {
        if (!f.expected || *f.expected != reply.value) {
          return Fail(err,
                      "Get(key " + std::to_string(f.idx) + "): oracle " +
                          (f.expected ? std::to_string(*f.expected) : "none") +
                          ", server " + std::to_string(reply.value));
        }
      } else if (reply.status == kNotFound) {
        if (f.expected) {
          return Fail(err, "Get(key " + std::to_string(f.idx) +
                               "): oracle " + std::to_string(*f.expected) +
                               ", server miss");
        }
      } else {
        return Fail(err, "Get(key " + std::to_string(f.idx) + "): status " +
                             std::to_string(reply.status) + " " + reply.error);
      }
      inflight_.erase(it);
    }
    if (!inflight_.empty()) {
      return Fail(err, "pipeline drain left " +
                           std::to_string(inflight_.size()) +
                           " requests unanswered");
    }
    return true;
  }

  bool DiffScan(const testing::Op& op, std::string* err) {
    KeyScratch scratch;
    KeyRef key = KeyAt(op.idx, scratch);
    if (WireRejects(key)) return true;
    uint32_t limit = std::min<uint32_t>(
        op.arg ? op.arg : 1, kDefaultMaxScanLimit);
    Reply reply;
    if (!client_.Scan(key, limit, &reply, err)) return false;
    if (!reply.ok()) {
      return Fail(err, "Scan status " + std::to_string(reply.status) + " " +
                           reply.error);
    }
    std::vector<uint64_t> want;
    oracle_.ScanFrom(key, [&](uint64_t v) {
      want.push_back(v);
      return want.size() < limit;
    });
    return DiffScanResults(want, reply.scan, "Scan(key " +
                                                 std::to_string(op.idx) + ")",
                           err);
  }

  bool DiffScanResults(const std::vector<uint64_t>& want,
                       const std::vector<ScanEntry>& got,
                       const std::string& what, std::string* err) {
    if (want.size() != got.size()) {
      return Fail(err, what + ": oracle " + std::to_string(want.size()) +
                           " values, server " + std::to_string(got.size()));
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (got[i].value != want[i]) {
        return Fail(err, what + ": first diff at position " +
                             std::to_string(i) + ": oracle " +
                             std::to_string(want[i]) + ", server " +
                             std::to_string(got[i].value));
      }
      KeyScratch ws;
      KeyRef wk = extractor_(want[i], ws);
      if (KeyRef(got[i].key).Compare(wk) != 0) {
        return Fail(err, what + ": key bytes diverge at position " +
                             std::to_string(i));
      }
    }
    return true;
  }

  // Full-content differential via chunked scans with raw-key resumption.
  bool Audit(std::string* err) {
    std::vector<uint64_t> want;
    want.reserve(oracle_.size());
    oracle_.ScanFrom(KeyRef(), [&](uint64_t v) {
      want.push_back(v);
      return true;
    });
    std::vector<ScanEntry> got;
    std::string last;
    bool first = true;
    while (true) {
      Reply reply;
      KeyRef start = first ? KeyRef() : KeyRef(last);
      if (!client_.Scan(start, opts_.scan_chunk, &reply, err)) return false;
      if (!reply.ok()) {
        return Fail(err, "audit scan status " +
                             std::to_string(reply.status) + " " + reply.error);
      }
      size_t fresh = 0;
      for (ScanEntry& e : reply.scan) {
        // Resumption re-delivers keys <= last; drop them.
        if (!first && KeyRef(e.key).Compare(KeyRef(last)) <= 0) continue;
        got.push_back(std::move(e));
        ++fresh;
      }
      if (reply.scan.size() < opts_.scan_chunk) break;  // exhausted
      if (fresh == 0) {
        return Fail(err, "audit scan failed to advance past resume key");
      }
      last = got.back().key;
      first = false;
    }
    return DiffScanResults(want, got, "audit full-scan", err);
  }

  struct InFlight {
    uint32_t idx = 0;
    bool rejected = false;
    std::optional<uint64_t> expected;
  };

  const testing::KeySpace& ks_;
  Extractor extractor_;
  NetDiffOptions opts_;
  PatriciaTrie<Extractor> oracle_;
  KvClient client_;
  std::map<uint64_t, InFlight> inflight_;
};

}  // namespace net_detail

// Replays `trace` through a loopback KvServer against the Patricia oracle.
inline NetDiffResult RunTraceOverNet(const testing::Trace& trace,
                                     const NetDiffOptions& opts = {}) {
  testing::KeySpace ks = trace.BuildKeys();
  if (ks.is_string) {
    StringTableExtractor ex(&ks.strings);
    net_detail::NetTraceRunner<StringTableExtractor> runner(ks, ex, opts);
    return runner.Run(trace);
  }
  U64KeyExtractor ex;
  net_detail::NetTraceRunner<U64KeyExtractor> runner(ks, ex, opts);
  return runner.Run(trace);
}

}  // namespace net
}  // namespace hot

#endif  // HOT_NET_NET_DIFFER_H_

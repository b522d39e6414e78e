// End-to-end differential tier for the KV server (net/server.h):
//
//   * sync-op sanity over a real socket (created flags, replaced values,
//     scan contents);
//   * out-of-order completion: pipelined GETs defer into the end-of-
//     iteration batch drain while writes reply inline, so arrival order is
//     NOT request order — clients must match by id, and this test pins both
//     that reordering happens and that every reply is correct;
//   * seeded mixed-op traces (testing/trace.h) replayed through loopback
//     sockets via net/net_differ.h, every reply diffed against the Patricia
//     oracle, across integer and string keyspace families — with the
//     scheduler both in batched and forced-scalar mode (same trace, same
//     answers, different drain counters);
//   * 4 client threads hammering ONE server concurrently over disjoint key
//     ranges, each diffing its own replies against its own oracle, scans
//     checked for global sortedness and key/value consistency, followed by
//     a quiesced full-content audit against the union oracle.

#include <algorithm>
#include <atomic>
#include <memory>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/extractors.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/net_differ.h"
#include "net/server.h"
#include "patricia/patricia.h"
#include "testing/keyspace.h"
#include "testing/trace.h"

namespace hot {
namespace net {
namespace {

KeyRef K(const std::string& s) { return KeyRef(s); }

ServerOptions SmallServer(unsigned workers = 1) {
  ServerOptions opt;
  opt.workers = workers;
  return opt;
}

TEST(NetServer, SyncOpsBasics) {
  KvServer server(SmallServer());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;

  Reply reply;
  ASSERT_TRUE(c.Put(K("apple"), 1, &reply, &err));
  EXPECT_TRUE(reply.ok());
  EXPECT_TRUE(reply.created);
  ASSERT_TRUE(c.Put(K("apple"), 2, &reply, &err));
  EXPECT_TRUE(reply.ok());
  EXPECT_FALSE(reply.created);
  EXPECT_EQ(reply.prev, 1u);  // the value it replaced
  ASSERT_TRUE(c.Put(K("banana"), 3, &reply, &err));
  ASSERT_TRUE(c.Put(K("cherry"), 4, &reply, &err));

  ASSERT_TRUE(c.Get(K("apple"), &reply, &err));
  EXPECT_EQ(reply.status, kOk);
  EXPECT_EQ(reply.value, 2u);
  ASSERT_TRUE(c.Get(K("durian"), &reply, &err));
  EXPECT_EQ(reply.status, kNotFound);

  ASSERT_TRUE(c.Scan(K("b"), 10, &reply, &err));
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.scan.size(), 2u);
  EXPECT_EQ(reply.scan[0].key, "banana");
  EXPECT_EQ(reply.scan[0].value, 3u);
  EXPECT_EQ(reply.scan[1].key, "cherry");
  EXPECT_EQ(reply.scan[1].value, 4u);

  ASSERT_TRUE(c.Delete(K("banana"), &reply, &err));
  EXPECT_EQ(reply.status, kOk);
  ASSERT_TRUE(c.Delete(K("banana"), &reply, &err));
  EXPECT_EQ(reply.status, kNotFound);
  EXPECT_EQ(server.live_keys(), 2u);
}

// Pipelined GETs around an inline-answered PUT: the PUT's reply overtakes
// the GETs queued before it.  Correctness is id-matched; the reordering
// itself is asserted to actually occur (across attempts — a single
// iteration window is all it takes with one flushed burst).
TEST(NetServer, OutOfOrderBatchedCompletions) {
  KvServer server(SmallServer());
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  Reply reply;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        c.Put(K("ooo-" + std::to_string(i)), 1000 + i, &reply, &err));
  }

  bool observed_reorder = false;
  for (int attempt = 0; attempt < 50 && !observed_reorder; ++attempt) {
    // One burst: 8 GETs then a PUT, flushed as a single write.
    std::vector<uint64_t> get_ids;
    for (int i = 0; i < 8; ++i) {
      get_ids.push_back(c.SendGet(K("ooo-" + std::to_string(i))));
    }
    uint64_t put_id = c.SendPut(K("ooo-probe"), 7);
    ASSERT_TRUE(c.Flush(&err)) << err;
    std::map<uint64_t, Reply> replies;
    std::vector<uint64_t> arrival;
    while (replies.size() < 9) {
      Reply r;
      ASSERT_TRUE(c.ReadReply(&r, &err)) << err;
      arrival.push_back(r.id);
      replies[r.id] = std::move(r);
    }
    // Every GET answered correctly regardless of order.
    for (int i = 0; i < 8; ++i) {
      const Reply& r = replies[get_ids[i]];
      ASSERT_EQ(r.status, kOk);
      ASSERT_EQ(r.value, 1000u + static_cast<unsigned>(i));
    }
    ASSERT_TRUE(replies[put_id].ok());
    // Reordered iff the PUT (sent last) was answered before some GET.
    if (arrival.front() == put_id) observed_reorder = true;
  }
  EXPECT_TRUE(observed_reorder)
      << "batched GETs never completed out of request order";
  ServerStats s = server.StatsSnapshot();
  EXPECT_GT(s.batch_drains, 0u) << "wide GET bursts never took the batch path";
  EXPECT_GE(s.max_batch, 8u);
}

// --- seeded trace differentials over loopback --------------------------------

class NetTraceDifferential
    : public ::testing::TestWithParam<hot::testing::KeySpaceKind> {};

TEST_P(NetTraceDifferential, BatchedModeMatchesOracle) {
  hot::testing::TraceGenConfig cfg;
  cfg.kind = GetParam();
  cfg.n = 1500;
  cfg.seed = 0x5eed0001;
  cfg.num_ops = 15000;
  cfg.audit_every = 3000;
  hot::testing::Trace trace = hot::testing::GenerateTrace(cfg);

  NetDiffOptions opts;
  opts.pipeline_width = 24;
  opts.server = SmallServer();
  NetDiffResult res = RunTraceOverNet(trace, opts);
  EXPECT_TRUE(res.ok) << res.Describe();
  // The pipelined lookups must actually have exercised the batch drain.
  EXPECT_GT(res.stats.batch_drains, 0u);
  EXPECT_EQ(res.stats.protocol_errors, 0u);
}

TEST_P(NetTraceDifferential, ScalarModeMatchesOracle) {
  hot::testing::TraceGenConfig cfg;
  cfg.kind = GetParam();
  cfg.n = 1000;
  cfg.seed = 0x5eed0002;
  cfg.num_ops = 8000;
  cfg.audit_every = 4000;
  hot::testing::Trace trace = hot::testing::GenerateTrace(cfg);

  NetDiffOptions opts;
  opts.pipeline_width = 24;
  opts.server = SmallServer();
  opts.server.force_scalar = true;
  NetDiffResult res = RunTraceOverNet(trace, opts);
  EXPECT_TRUE(res.ok) << res.Describe();
  EXPECT_EQ(res.stats.batch_drains, 0u);
  EXPECT_GT(res.stats.scalar_gets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Keyspaces, NetTraceDifferential,
    ::testing::Values(hot::testing::KeySpaceKind::kUniform,
                      hot::testing::KeySpaceKind::kDense,
                      hot::testing::KeySpaceKind::kPrefix,
                      hot::testing::KeySpaceKind::kUrl,
                      hot::testing::KeySpaceKind::kEmail),
    [](const auto& info) {
      return std::string(hot::testing::KeySpaceKindName(info.param));
    });

// --- 4 concurrent client threads against one server --------------------------

// Each thread owns a disjoint quarter of the keyspace indices, so its
// private Patricia oracle stays exact under concurrency.  SCANs cross
// ownership boundaries; they are checked for strict global key order and
// for key/value consistency (the value returned with a key must be the
// value whose extractor image IS that key — any torn read or misrouted
// bucket breaks one of the two).
TEST(NetServer, FourClientThreadsDifferential) {
  constexpr unsigned kThreads = 4;
  constexpr uint32_t kN = 4000;
  constexpr int kOpsPerThread = 8000;

  hot::testing::KeySpace ks = hot::testing::BuildKeySpace(
      hot::testing::KeySpaceKind::kEmail, kN, 0xc0ffee);
  ASSERT_EQ(ks.size(), kN);
  StringTableExtractor extractor(&ks.strings);

  KvServer server(SmallServer(/*workers=*/2));
  std::string err;
  ASSERT_TRUE(server.Start(&err)) << err;

  std::atomic<bool> failed{false};
  std::vector<std::string> errors(kThreads);
  std::vector<std::unique_ptr<PatriciaTrie<StringTableExtractor>>> oracles;
  for (unsigned t = 0; t < kThreads; ++t) {
    oracles.push_back(
        std::make_unique<PatriciaTrie<StringTableExtractor>>(extractor));
  }

  auto worker = [&](unsigned t) {
    auto fail = [&](const std::string& what) {
      errors[t] = what;
      failed.store(true);
    };
    KvClient c;
    std::string cerr;
    if (!c.Connect("127.0.0.1", server.port(), &cerr)) {
      return fail("connect: " + cerr);
    }
    PatriciaTrie<StringTableExtractor>& oracle = *oracles[t];
    const uint32_t lo = t * (kN / kThreads);
    const uint32_t hi = (t + 1) * (kN / kThreads);
    std::mt19937_64 rng(1000 + t);
    // In-flight pipelined GETs: id -> (key idx, expected at send time).
    std::map<uint64_t, std::pair<uint32_t, std::optional<uint64_t>>> inflight;
    auto drain = [&]() -> bool {
      if (inflight.empty()) return true;
      if (!c.Flush(&cerr)) {
        fail("flush: " + cerr);
        return false;
      }
      size_t want = inflight.size();
      for (size_t i = 0; i < want; ++i) {
        Reply r;
        if (!c.ReadReply(&r, &cerr)) {
          fail("read: " + cerr);
          return false;
        }
        auto it = inflight.find(r.id);
        if (it == inflight.end()) {
          fail("unknown reply id");
          return false;
        }
        std::optional<uint64_t> want_v = it->second.second;
        if (want_v.has_value() != (r.status == kOk) ||
            (want_v && *want_v != r.value)) {
          fail("GET diverged on key idx " + std::to_string(it->second.first));
          return false;
        }
        inflight.erase(it);
      }
      return true;
    };
    for (int op = 0; op < kOpsPerThread && !failed.load(); ++op) {
      uint32_t idx = lo + static_cast<uint32_t>(rng() % (hi - lo));
      uint64_t v = ks.ValueOf(idx);
      KeyScratch scratch;
      KeyRef key = extractor(v, scratch);
      unsigned dice = rng() % 100;
      if (dice < 45) {  // pipelined lookup
        std::optional<uint64_t> expect = oracle.Lookup(key);
        inflight[c.SendGet(key)] = {idx, expect};
        if (inflight.size() >= 16 && !drain()) return;
      } else if (dice < 75) {  // put
        if (!drain()) return;
        bool inserted = oracle.Insert(v);
        Reply r;
        if (!c.Put(key, v, &r, &cerr)) return fail("put: " + cerr);
        if (!r.ok() || r.created != inserted) {
          return fail("PUT created flag diverged at idx " +
                      std::to_string(idx));
        }
        if (!r.created && r.prev != v) {
          return fail("PUT prev value diverged at idx " + std::to_string(idx));
        }
      } else if (dice < 90) {  // delete
        if (!drain()) return;
        bool want = oracle.Remove(key);
        Reply r;
        if (!c.Delete(key, &r, &cerr)) return fail("delete: " + cerr);
        if ((r.status == kOk) != want) {
          return fail("DELETE diverged at idx " + std::to_string(idx));
        }
      } else {  // cross-ownership scan: order + key/value consistency
        if (!drain()) return;
        Reply r;
        if (!c.Scan(key, 32, &r, &cerr)) return fail("scan: " + cerr);
        if (!r.ok()) return fail("scan status");
        for (size_t i = 0; i < r.scan.size(); ++i) {
          if (i > 0 &&
              KeyRef(r.scan[i - 1].key).Compare(KeyRef(r.scan[i].key)) >= 0) {
            return fail("scan results out of order");
          }
          KeyScratch s2;
          KeyRef image = extractor(r.scan[i].value, s2);
          if (image.Compare(KeyRef(r.scan[i].key)) != 0) {
            return fail("scan key/value inconsistency");
          }
        }
      }
    }
    drain();
  };

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_FALSE(failed.load() && !errors[t].empty())
        << "thread " << t << ": " << errors[t];
  }
  ASSERT_FALSE(failed.load());

  // Quiesced: full-content audit against the union of the 4 oracles
  // (disjoint idx ranges, so the union is well-defined).
  std::vector<uint64_t> want;
  for (auto& oracle : oracles) {
    oracle->ScanFrom(KeyRef(), [&](uint64_t v) {
      want.push_back(v);
      return true;
    });
  }
  std::sort(want.begin(), want.end(), [&](uint64_t a, uint64_t b) {
    KeyScratch sa, sb;
    return extractor(a, sa).Compare(extractor(b, sb)) < 0;
  });
  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port(), &err)) << err;
  std::vector<ScanEntry> got;
  std::string last;
  bool first = true;
  while (true) {
    Reply r;
    ASSERT_TRUE(c.Scan(first ? KeyRef() : KeyRef(last), 512, &r, &err)) << err;
    ASSERT_TRUE(r.ok());
    for (ScanEntry& e : r.scan) {
      if (!first && KeyRef(e.key).Compare(KeyRef(last)) <= 0) continue;
      got.push_back(std::move(e));
    }
    if (r.scan.size() < 512) break;
    ASSERT_FALSE(got.empty());
    last = got.back().key;
    first = false;
  }
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(server.live_keys(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].value, want[i]) << "audit diverged at position " << i;
    KeyScratch s2;
    ASSERT_EQ(KeyRef(got[i].key).Compare(extractor(want[i], s2)), 0)
        << "audit key bytes diverged at position " << i;
  }
  ServerStats s = server.StatsSnapshot();
  EXPECT_GT(s.batch_drains, 0u);
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.bad_requests, 0u);
}

}  // namespace
}  // namespace net
}  // namespace hot

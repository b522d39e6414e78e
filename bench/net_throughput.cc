// E15: network KV throughput — batched vs scalar GET drain over real
// sockets (DESIGN.md §12, EXPERIMENTS.md E15).
//
// One in-process KvServer is loaded once over the wire, then measured in
// closed-loop GET phases at each connection count, first with the scalar
// drain forced and then with the batched drain (KvServer::set_force_scalar
// flips the mode at runtime so both arms share one loaded index).  The
// driver is a single thread multiplexing all connections round-based: it
// writes a burst of `depth` pipelined GETs to every connection, flushes
// them all, then reads every reply — so one server event-loop iteration
// sees connections*depth pending GETs and the batch scheduler gets the
// window the issue's acceptance ratio is about.  A final mixed phase
// (GET/PUT/DELETE/SCAN) records per-op-type latency percentiles.
//
// Latency is stamped per connection at its burst flush and recorded at
// reply read, so it includes a round's queueing delay; that inflation is
// identical across modes and connection counts read in the same order,
// which is what makes the percentile columns comparable.
//
//   net_throughput [--smoke] [--keys N] [--ops N] [--depth D]
//                  [--workers W] [--scan-len L] [--seed S]
//
// Writes BENCH_net_throughput.json; tools/check_net_gate.py gates the
// batched/scalar ratio at 8 connections.

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/json_out.h"
#include "common/key.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/histogram.h"

namespace {

using hot::KeyRef;
using hot::SplitMix64;
using hot::bench::BenchJson;
using hot::bench::JsonObject;
using hot::net::KvClient;
using hot::net::KvServer;
using hot::net::Reply;
using hot::net::ServerOptions;
using hot::net::ServerStats;
using hot::obs::LatencyHistogram;

struct Args {
  bool smoke = false;
  uint64_t keys = 2'000'000;
  uint64_t ops = 400'000;  // per phase, across all connections
  unsigned depth = 64;     // pipelined GETs per connection per round
  unsigned workers = 1;
  uint32_t scan_len = 16;
  uint64_t seed = 0x9e24;
  std::vector<unsigned> conns = {1, 2, 4, 8, 16};
};

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t MakeKey(uint64_t idx, char* buf) {
  return static_cast<size_t>(
      snprintf(buf, 32, "user%012" PRIu64, idx));
}

[[noreturn]] void Die(const char* fmt, const std::string& detail) {
  fprintf(stderr, fmt, detail.c_str());
  fputc('\n', stderr);
  exit(1);
}

// Subtraction of two snapshots — what one phase did.
ServerStats Delta(const ServerStats& after, const ServerStats& before) {
  ServerStats d;
  d.gets = after.gets - before.gets;
  d.batch_drains = after.batch_drains - before.batch_drains;
  d.batched_gets = after.batched_gets - before.batched_gets;
  d.scalar_drains = after.scalar_drains - before.scalar_drains;
  d.scalar_gets = after.scalar_gets - before.scalar_gets;
  d.max_batch = after.max_batch;  // high-water, not differential
  return d;
}

std::vector<std::unique_ptr<KvClient>> ConnectAll(unsigned n, uint16_t port) {
  std::vector<std::unique_ptr<KvClient>> clients;
  clients.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    auto c = std::make_unique<KvClient>();
    std::string err;
    if (!c->Connect("127.0.0.1", port, &err)) Die("connect: %s", err);
    clients.push_back(std::move(c));
  }
  return clients;
}

// Loads [0, keys) as PUTs through one pipelined connection — the index the
// phases run against is built by the same wire path they measure.
void LoadKeys(uint16_t port, uint64_t keys) {
  KvClient c;
  std::string err;
  if (!c.Connect("127.0.0.1", port, &err)) Die("load connect: %s", err);
  constexpr unsigned kWindow = 256;
  char buf[32];
  uint64_t t0 = NowNs();
  for (uint64_t k = 0; k < keys; ++k) {
    size_t len = MakeKey(k, buf);
    c.SendPut(KeyRef(reinterpret_cast<const uint8_t*>(buf), len), k);
    if (c.outstanding() >= kWindow) {
      if (!c.Flush(&err)) Die("load flush: %s", err);
      while (c.outstanding() > kWindow / 2) {
        Reply r;
        if (!c.ReadReply(&r, &err)) Die("load read: %s", err);
        if (!r.ok()) Die("load PUT failed: %s", r.error);
      }
    }
  }
  if (!c.Flush(&err)) Die("load flush: %s", err);
  while (c.outstanding() > 0) {
    Reply r;
    if (!c.ReadReply(&r, &err)) Die("load read: %s", err);
    if (!r.ok()) Die("load PUT failed: %s", r.error);
  }
  double secs = static_cast<double>(NowNs() - t0) / 1e9;
  printf("loaded %" PRIu64 " keys in %.2fs (%.3f Mops wire PUT)\n", keys,
         secs, static_cast<double>(keys) / secs / 1e6);
}

struct PhaseResult {
  uint64_t ops = 0;
  double secs = 0;
  std::unique_ptr<LatencyHistogram> lat =
      std::make_unique<LatencyHistogram>();
  ServerStats delta;
  double mops() const {
    return secs > 0 ? static_cast<double>(ops) / secs / 1e6 : 0;
  }
};

// Closed-loop uniform GET phase: rounds of depth-wide bursts per
// connection until `target_ops` total GETs have completed.
PhaseResult RunGetPhase(KvServer& server, uint16_t port, unsigned nconns,
                        unsigned depth, uint64_t target_ops, uint64_t keys,
                        uint64_t seed) {
  auto clients = ConnectAll(nconns, port);
  SplitMix64 rng(seed);
  char buf[32];
  std::string err;
  PhaseResult res;

  auto round = [&](bool record) {
    std::vector<uint64_t> flush_ns(nconns);
    for (unsigned ci = 0; ci < nconns; ++ci) {
      for (unsigned d = 0; d < depth; ++d) {
        size_t len = MakeKey(rng.NextBounded(keys), buf);
        clients[ci]->SendGet(
            KeyRef(reinterpret_cast<const uint8_t*>(buf), len));
      }
      if (!clients[ci]->Flush(&err)) Die("get flush: %s", err);
      flush_ns[ci] = NowNs();
    }
    for (unsigned ci = 0; ci < nconns; ++ci) {
      while (clients[ci]->outstanding() > 0) {
        Reply r;
        if (!clients[ci]->ReadReply(&r, &err)) Die("get read: %s", err);
        if (r.status != hot::net::kOk && r.status != hot::net::kNotFound)
          Die("get error: %s", r.error);
        if (record) res.lat->Record(NowNs() - flush_ns[ci]);
      }
    }
  };

  for (int w = 0; w < 3; ++w) round(false);  // warm the mode switch in

  ServerStats before = server.StatsSnapshot();
  uint64_t t0 = NowNs();
  uint64_t per_round = static_cast<uint64_t>(nconns) * depth;
  uint64_t rounds = (target_ops + per_round - 1) / per_round;
  for (uint64_t i = 0; i < rounds; ++i) round(true);
  res.secs = static_cast<double>(NowNs() - t0) / 1e9;
  res.ops = rounds * per_round;
  res.delta = Delta(server.StatsSnapshot(), before);
  return res;
}

// Mixed phase at one connection count, batched mode: per-op-type
// histograms for GET / PUT / DELETE / SCAN under one roof.
struct MixedResult {
  uint64_t total_ops = 0;
  double secs = 0;
  // Indexed by opcode - 1 (kOpGet..kOpScan).
  std::unique_ptr<LatencyHistogram> lat[4] = {
      std::make_unique<LatencyHistogram>(),
      std::make_unique<LatencyHistogram>(),
      std::make_unique<LatencyHistogram>(),
      std::make_unique<LatencyHistogram>()};
  uint64_t counts[4] = {0, 0, 0, 0};
};

MixedResult RunMixedPhase(uint16_t port, unsigned nconns, unsigned depth,
                          uint64_t target_ops, uint64_t keys,
                          uint32_t scan_len, uint64_t seed) {
  auto clients = ConnectAll(nconns, port);
  SplitMix64 rng(seed);
  char buf[32];
  std::string err;
  MixedResult res;
  // id -> opcode per connection (ids are per-client).
  std::vector<std::unordered_map<uint64_t, uint8_t>> optype(nconns);

  uint64_t t0 = NowNs();
  uint64_t per_round = static_cast<uint64_t>(nconns) * depth;
  uint64_t rounds = (target_ops + per_round - 1) / per_round;
  for (uint64_t i = 0; i < rounds; ++i) {
    std::vector<uint64_t> flush_ns(nconns);
    for (unsigned ci = 0; ci < nconns; ++ci) {
      for (unsigned d = 0; d < depth; ++d) {
        uint64_t k = rng.NextBounded(keys);
        size_t len = MakeKey(k, buf);
        KeyRef key(reinterpret_cast<const uint8_t*>(buf), len);
        uint64_t pick = rng.NextBounded(100);
        uint64_t id;
        uint8_t op;
        if (pick < 70) {
          id = clients[ci]->SendGet(key);
          op = hot::net::kOpGet;
        } else if (pick < 85) {
          id = clients[ci]->SendPut(key, k);
          op = hot::net::kOpPut;
        } else if (pick < 95) {
          id = clients[ci]->SendDelete(key);
          op = hot::net::kOpDelete;
        } else {
          id = clients[ci]->SendScan(key, scan_len);
          op = hot::net::kOpScan;
        }
        optype[ci][id] = op;
      }
      if (!clients[ci]->Flush(&err)) Die("mixed flush: %s", err);
      flush_ns[ci] = NowNs();
    }
    for (unsigned ci = 0; ci < nconns; ++ci) {
      while (clients[ci]->outstanding() > 0) {
        Reply r;
        if (!clients[ci]->ReadReply(&r, &err)) Die("mixed read: %s", err);
        if (r.status != hot::net::kOk && r.status != hot::net::kNotFound)
          Die("mixed error: %s", r.error);
        auto it = optype[ci].find(r.id);
        if (it == optype[ci].end()) Die("mixed: unknown reply id%s", "");
        unsigned slot = it->second - 1;
        optype[ci].erase(it);
        res.lat[slot]->Record(NowNs() - flush_ns[ci]);
        res.counts[slot]++;
      }
    }
  }
  res.secs = static_cast<double>(NowNs() - t0) / 1e9;
  res.total_ops = rounds * per_round;
  return res;
}

void AddLatencyColumns(JsonObject& row, const LatencyHistogram& h) {
  row.Add("p50_us", static_cast<double>(h.ValueAtPercentile(50)) / 1e3)
      .Add("p99_us", static_cast<double>(h.ValueAtPercentile(99)) / 1e3)
      .Add("p999_us", static_cast<double>(h.ValueAtPercentile(99.9)) / 1e3)
      .Add("max_us", static_cast<double>(h.max()) / 1e3);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      a.smoke = true;
      a.keys = 200'000;
      a.ops = 60'000;
      a.conns = {2, 8};
      continue;
    }
    if (i + 1 >= argc) {
      fprintf(stderr, "missing value for %s\n", arg.c_str());
      return 2;
    }
    std::string v = argv[++i];
    if (arg == "--keys") a.keys = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--ops") a.ops = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--depth")
      a.depth = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    else if (arg == "--workers")
      a.workers = static_cast<unsigned>(std::strtoul(v.c_str(), nullptr, 10));
    else if (arg == "--scan-len")
      a.scan_len =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    else if (arg == "--seed")
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else {
      fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  ServerOptions opt;
  opt.workers = a.workers;
  KvServer server(opt);
  std::string err;
  if (!server.Start(&err)) Die("server start: %s", err);

  printf("net_throughput: %" PRIu64 " keys, %" PRIu64 " GETs/phase, depth %u"
         "%s\n",
         a.keys, a.ops, a.depth, a.smoke ? " [smoke]" : "");
  LoadKeys(server.port(), a.keys);

  BenchJson json("net_throughput");
  json.meta()
      .Add("keys", a.keys)
      .Add("ops_per_phase", a.ops)
      .Add("depth", a.depth)
      .Add("workers", a.workers)
      .Add("smoke", a.smoke);

  printf("%6s %8s %10s %9s %9s %9s %11s\n", "conns", "mode", "mops",
         "p50(us)", "p99(us)", "p999(us)", "batched/scalar");
  double scalar_at_8 = 0, batched_at_8 = 0;
  uint64_t phase_seed = a.seed;
  for (unsigned nc : a.conns) {
    double mops_by_mode[2] = {0, 0};
    for (int batched = 0; batched <= 1; ++batched) {
      server.set_force_scalar(batched == 0);
      PhaseResult r = RunGetPhase(server, server.port(), nc, a.depth, a.ops,
                                  a.keys, phase_seed++);
      mops_by_mode[batched] = r.mops();
      printf("%6u %8s %10.3f %9.1f %9.1f %9.1f %7" PRIu64 "/%-7" PRIu64
             "\n",
             nc, batched ? "batched" : "scalar", r.mops(),
             static_cast<double>(r.lat->ValueAtPercentile(50)) / 1e3,
             static_cast<double>(r.lat->ValueAtPercentile(99)) / 1e3,
             static_cast<double>(r.lat->ValueAtPercentile(99.9)) / 1e3,
             r.delta.batched_gets, r.delta.scalar_gets);
      JsonObject row;
      row.Add("phase", "get")
          .Add("mode", batched ? "batched" : "scalar")
          .Add("conns", nc)
          .Add("depth", a.depth)
          .Add("ops", r.ops)
          .Add("secs", r.secs)
          .Add("mops", r.mops())
          .Add("batched_gets", r.delta.batched_gets)
          .Add("scalar_gets", r.delta.scalar_gets)
          .Add("batch_drains", r.delta.batch_drains);
      AddLatencyColumns(row, *r.lat);
      json.AddResult(row);
    }
    if (nc == 8) {
      scalar_at_8 = mops_by_mode[0];
      batched_at_8 = mops_by_mode[1];
    }
  }

  // Mixed phase at the top connection count, batched mode (the deployed
  // configuration), for per-op-type percentiles.
  server.set_force_scalar(false);
  unsigned mixed_conns = a.conns.back();
  MixedResult m = RunMixedPhase(server.port(), mixed_conns, a.depth, a.ops,
                                a.keys, a.scan_len, phase_seed++);
  static const char* kOpNames[4] = {"get", "put", "delete", "scan"};
  double mixed_mops =
      m.secs > 0 ? static_cast<double>(m.total_ops) / m.secs / 1e6 : 0;
  printf("mixed @%u conns: %.3f Mops over %" PRIu64 " ops\n", mixed_conns,
         mixed_mops, m.total_ops);
  {
    JsonObject row;
    row.Add("phase", "mixed")
        .Add("mode", "batched")
        .Add("op", "all")
        .Add("conns", mixed_conns)
        .Add("ops", m.total_ops)
        .Add("secs", m.secs)
        .Add("mops", mixed_mops);
    json.AddResult(row);
  }
  for (int t = 0; t < 4; ++t) {
    if (m.counts[t] == 0) continue;
    printf("  %-6s %9" PRIu64 " ops  p50 %7.1fus  p99 %7.1fus  p999 "
           "%7.1fus\n",
           kOpNames[t], m.counts[t],
           static_cast<double>(m.lat[t]->ValueAtPercentile(50)) / 1e3,
           static_cast<double>(m.lat[t]->ValueAtPercentile(99)) / 1e3,
           static_cast<double>(m.lat[t]->ValueAtPercentile(99.9)) / 1e3);
    JsonObject row;
    row.Add("phase", "mixed")
        .Add("mode", "batched")
        .Add("op", kOpNames[t])
        .Add("conns", mixed_conns)
        .Add("ops", m.counts[t]);
    AddLatencyColumns(row, *m.lat[t]);
    json.AddResult(row);
  }

  // The acceptance row: batched vs scalar GET throughput at 8 connections.
  if (scalar_at_8 > 0) {
    double ratio = batched_at_8 / scalar_at_8;
    printf("gate: batched %.3f / scalar %.3f Mops at 8 conns = %.2fx\n",
           batched_at_8, scalar_at_8, ratio);
    JsonObject row;
    row.Add("phase", "gate")
        .Add("conns", 8u)
        .Add("scalar_mops", scalar_at_8)
        .Add("batched_mops", batched_at_8)
        .Add("ratio", ratio);
    json.AddResult(row);
  }

  json.WriteFile();
  server.Stop();
  return 0;
}

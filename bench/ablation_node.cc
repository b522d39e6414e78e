// Node-engineering ablation (google-benchmark): isolates the §4
// micro-design choices —
//   * PEXT-based dense partial-key extraction vs bit-by-bit scalar
//     extraction, per mask layout (single / multi-8/16/32),
//   * AVX2 comply search vs scalar comply search, per partial-key width,
//   * full node search (extract + comply) SIMD vs scalar,
//   * PDEP sparse-key recoding vs shift-based scalar recoding,
//   * end-to-end lookups with and without node prefetching (§4.5).

#include <benchmark/benchmark.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/extractors.h"
#include "common/rng.h"
#include "hot/logical_node.h"
#include "hot/node_search.h"
#include "hot/trie.h"

namespace hot {
namespace {

// Builds a full 32-entry node whose discriminative bits stress the given
// layout, plus a batch of random probe keys.
struct NodeFixture {
  MemoryCounter counter;
  NodePool alloc{&counter};
  NodeRef node;
  std::vector<std::array<uint8_t, 64>> keys;

  explicit NodeFixture(NodeType want) {
    LogicalNode ln;
    ln.height = 1;
    ln.count = kMaxFanout;
    ln.num_bits = kMaxDiscBits;
    switch (MaskSlots(want)) {
      case 0:  // single mask: bits within one 8-byte window
        for (unsigned i = 0; i < ln.num_bits; ++i) {
          ln.bits[i] = static_cast<uint16_t>(i * 2);
        }
        break;
      case 8:  // 8 distinct bytes, wide apart
        for (unsigned i = 0; i < ln.num_bits; ++i) {
          ln.bits[i] = static_cast<uint16_t>((i / 4) * 64 + (i % 4));
        }
        break;
      case 16:  // 16 distinct bytes
        for (unsigned i = 0; i < ln.num_bits; ++i) {
          ln.bits[i] = static_cast<uint16_t>((i / 2) * 64 + (i % 2));
        }
        break;
      default:  // 31 distinct bytes
        for (unsigned i = 0; i < ln.num_bits; ++i) {
          ln.bits[i] = static_cast<uint16_t>(i * 64 + 3);
        }
        break;
    }
    ln.sparse[0] = 0;
    for (unsigned i = 1; i < ln.count; ++i) {
      ln.sparse[i] = ln.sparse[i - 1] | LogicalNode::RankBit(i - 1);
    }
    for (unsigned i = 0; i < ln.count; ++i) {
      ln.entries[i] = HotEntry::MakeTid(i);
    }
    node = Encode(ln, alloc);

    SplitMix64 rng(7);
    keys.resize(256);
    for (auto& k : keys) {
      for (auto& b : k) b = static_cast<uint8_t>(rng.Next());
    }
  }

  ~NodeFixture() { FreeNode(alloc, node); }

  KeyRef Key(size_t i) const {
    return KeyRef(keys[i % keys.size()].data(), keys[i % keys.size()].size());
  }
};

NodeType TypeFromArg(int64_t arg) {
  switch (arg) {
    case 0:
      return NodeType::kSingleMask32;
    case 1:
      return NodeType::kMultiMask8x32;
    case 2:
      return NodeType::kMultiMask16x32;
    default:
      return NodeType::kMultiMask32x32;
  }
}

void BM_ExtractPext(benchmark::State& state) {
  NodeFixture fx(TypeFromArg(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExtractDensePartialKey(fx.node, fx.Key(i++)));
  }
}
BENCHMARK(BM_ExtractPext)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ExtractScalar(benchmark::State& state) {
  NodeFixture fx(TypeFromArg(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExtractDensePartialKeyScalar(fx.node, fx.Key(i++)));
  }
}
BENCHMARK(BM_ExtractScalar)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ComplySimd(benchmark::State& state) {
  NodeFixture fx(NodeType::kSingleMask32);
  uint32_t dense = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComplyMask(fx.node, dense++));
  }
}
BENCHMARK(BM_ComplySimd);

void BM_ComplyScalar(benchmark::State& state) {
  NodeFixture fx(NodeType::kSingleMask32);
  uint32_t dense = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComplyMaskScalar(fx.node, dense++));
  }
}
BENCHMARK(BM_ComplyScalar);

void BM_SearchNodeSimd(benchmark::State& state) {
  NodeFixture fx(TypeFromArg(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SearchNode(fx.node, fx.Key(i++)));
  }
}
BENCHMARK(BM_SearchNodeSimd)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_SearchNodeScalar(benchmark::State& state) {
  NodeFixture fx(TypeFromArg(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SearchNodeScalar(fx.node, fx.Key(i++)));
  }
}
BENCHMARK(BM_SearchNodeScalar)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_RecodePdep(benchmark::State& state) {
  // The §4.4 PDEP recode: add one discriminative bit to 32 sparse keys.
  SplitMix64 rng(3);
  std::vector<uint32_t> sparse(kMaxFanout);
  for (auto& s : sparse) s = static_cast<uint32_t>(rng.Next());
  uint32_t keep = 0xFFFFBFFF;  // insert a 0 at one position
  for (auto _ : state) {
    uint32_t acc = 0;
    for (uint32_t s : sparse) acc ^= Pdep32(s, keep);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RecodePdep);

void BM_RecodeScalar(benchmark::State& state) {
  SplitMix64 rng(3);
  std::vector<uint32_t> sparse(kMaxFanout);
  for (auto& s : sparse) s = static_cast<uint32_t>(rng.Next());
  for (auto _ : state) {
    uint32_t acc = 0;
    for (uint32_t s : sparse) {
      uint32_t hi = s & 0xFFFFC000, lo = s & 0x00003FFF;
      acc ^= hi | (lo >> 1);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RecodeScalar);

// End-to-end point lookups over a 1M-key trie; the no-prefetch arm
// quantifies the §4.5 optimization.
struct TrieFixture {
  HotTrie<U64KeyExtractor> trie;
  std::vector<uint64_t> lookups;
  TrieFixture() {
    SplitMix64 rng(11);
    for (int i = 0; i < 1000000; ++i) {
      uint64_t v = rng.Next() >> 1;
      trie.Insert(v);
      lookups.push_back(v);
    }
  }
};

void BM_TrieLookup(benchmark::State& state) {
  static TrieFixture fx;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fx.trie.Lookup(U64Key(fx.lookups[i++ % fx.lookups.size()]).ref()));
  }
}
BENCHMARK(BM_TrieLookup);

// The §4.5 prefetch ablation proper: the same descent loop as
// HotTrie::Lookup with the prefetch compiled in or out, so the no-prefetch
// arm carries no residual branch in the measured loop.
template <bool kPrefetch>
uint64_t DescendRaw(uint64_t root, KeyRef key) {
  uint64_t cur = root;
  while (HotEntry::IsNode(cur)) {
    if constexpr (kPrefetch) PrefetchNode(cur);
    NodeRef node = NodeRef::FromEntry(cur);
    cur = node.values()[SearchNode(node, key)];
  }
  return cur;
}

template <bool kPrefetch>
void BM_TrieLookupArm(benchmark::State& state) {
  static TrieFixture fx;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(DescendRaw<kPrefetch>(
        fx.trie.root_entry(),
        U64Key(fx.lookups[i++ % fx.lookups.size()]).ref()));
  }
}
BENCHMARK_TEMPLATE(BM_TrieLookupArm, true)->Name("BM_TrieLookupPrefetch");
BENCHMARK_TEMPLATE(BM_TrieLookupArm, false)->Name("BM_TrieLookupNoPrefetch");

}  // namespace
}  // namespace hot

// Custom main instead of BENCHMARK_MAIN(): default to writing
// BENCH_ablation_node.json (google-benchmark's native JSON format) next to
// the console report, matching the BENCH_<name>.json convention of the
// other bench binaries.  An explicit --benchmark_out= wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_ablation_node.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Bulk loading with height-optimized packing (paper §3.1).
//
// For static data, Kovács & Kiss solved optimal height/cardinality
// partitioning of a tree into bounded-fanout pieces; the paper's dynamic
// algorithm approximates that incrementally.  This builder constructs the
// partition directly from sorted input, bottom-up:
//
//   * a range of <= 32 keys becomes one compound node (height 1),
//   * a larger range is partitioned by repeatedly severing the root BiNode
//     of its largest remaining piece (never more than k pieces) until every
//     piece fits the next level's capacity 32^(h-1); pieces are built
//     recursively and joined under one compound node.
//
// The result is a valid HOT (it passes the full validator) with height
// ceil(log_k n) — plus at most one extra level when the key distribution's
// Patricia shape cannot be packed perfectly near a capacity boundary — for
// any key distribution, including the adversarial monotone orders that
// degrade incremental insertion (DESIGN.md "Deviations"), and nodes at
// maximum fill, which also minimizes memory.
//
// Parallel build (ParallelBulkBuild): the severing partition cuts only at
// discriminative bits — each piece is a complete Patricia subtrie of the
// key set — so pieces are independent build units.  The driver expands the
// top of the recursion serially into a plan tree (pure binary searches, no
// allocation), hands the leaf ranges to N workers, then grafts the
// finished subtrie roots under the internal compound nodes serially,
// bottom-up.  Because the partition and the per-piece recursion are
// byte-for-byte the serial algorithm, the parallel output has the same
// logical structure — same nodes, same heights, same key→value map — as a
// serial build of the same input (DESIGN.md §11).
//
// Allocation: every node comes from the trie's NodePool, on the building
// thread's own stripe.  Each parallel worker is a freshly started thread,
// so (up to NodePool::kStripes workers) each carves from and first-touches
// its own bump arena, with no cross-thread contention.
//
// Duplicate keys: the sorted input must be duplicate-free; a duplicate is
// detected (adjacent equal keys always reach a shared Mismatch) and
// rejected with std::invalid_argument.  Nodes built before the throw stay
// in the pool's arena until the pool is destroyed — the tree root is never
// published, so the trie remains empty and usable.
//
// Complexity: O(n log n) mismatch computations, O(n) node constructions.

#ifndef HOT_HOT_BULK_LOAD_H_
#define HOT_HOT_BULK_LOAD_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"
#include "hot/logical_node.h"
#include "hot/node.h"
#include "hot/node_pool.h"

namespace hot {
namespace detail {

// One packed subtree piece during bulk construction.
struct BulkRange {
  size_t lo;       // first key index (inclusive)
  size_t hi;       // last key index (exclusive)
  uint64_t entry;  // built entry (tid or node), filled bottom-up
};

template <typename KeyExtractor>
class BulkBuilder {
 public:
  BulkBuilder(const KeyExtractor& extractor, const uint64_t* values, size_t n,
              NodePool& alloc)
      : extractor_(extractor), values_(values), n_(n), alloc_(alloc) {}

  // Returns the root entry for values_[0..n), which must be sorted by key
  // and duplicate-free.
  uint64_t Build() {
    if (n_ == 0) return HotEntry::kEmpty;
    return BuildRange(0, n_);
  }

  // --- building blocks shared with ParallelBulkBuild ------------------------

  // Builds the subtrie over keys [lo, hi) and returns its entry.
  uint64_t BuildSubrange(size_t lo, size_t hi) { return BuildRange(lo, hi); }

  // The severing partition of [lo, hi) into <= kMaxFanout adjacent pieces,
  // each a complete Patricia subtrie.  Requires hi - lo > kMaxFanout.
  // Partition by severing root BiNodes, largest piece first.  Pieces stay
  // sorted and adjacent.  Splitting continues past the point where every
  // piece fits the next level's capacity `cap` (32^(h-1) for minimal h with
  // 32^h >= n): using the full fanout budget shrinks the children, which
  // softens the near-boundary cases where perfect packing at `cap` is
  // impossible (pieces below `cap/k` are never split — they are already
  // single-node material).
  void PartitionPieces(size_t lo, size_t hi,
                       std::vector<BulkRange>* pieces) const {
    size_t n = hi - lo;
    assert(n > kMaxFanout);
    // Capacity of the next level: the smallest power of k whose square
    // covers n... i.e. 32^(h-1) for minimal h with 32^h >= n.
    size_t cap = kMaxFanout;
    while (cap * kMaxFanout < n) cap *= kMaxFanout;

    *pieces = {{lo, hi, 0}};
    size_t floor_size = std::max<size_t>(cap / kMaxFanout, kMaxFanout);
    for (;;) {
      size_t largest = pieces->size();
      size_t largest_size = floor_size;
      for (size_t i = 0; i < pieces->size(); ++i) {
        size_t sz = (*pieces)[i].hi - (*pieces)[i].lo;
        if (sz > largest_size) {
          largest = i;
          largest_size = sz;
        }
      }
      if (largest == pieces->size() || pieces->size() >= kMaxFanout) break;
      BulkRange piece = (*pieces)[largest];
      unsigned bit = Mismatch(piece.lo, piece.hi - 1);
      size_t m = Boundary(piece.lo, piece.hi, bit);
      assert(m > piece.lo && m < piece.hi);
      (*pieces)[largest] = {piece.lo, m, 0};
      pieces->insert(pieces->begin() + static_cast<long>(largest) + 1,
                     {m, piece.hi, 0});
    }
  }

  // Builds one compound node over the given adjacent pieces (entries
  // already filled): the local Patricia trie over piece boundaries, encoded
  // via CollectBits/AssignSparse recursions.
  uint64_t BuildNodeOver(const std::vector<BulkRange>& pieces,
                         unsigned height) {
    return BuildNode(pieces, height);
  }

 private:
  KeyRef KeyAt(size_t i, KeyScratch& scratch) const {
    return extractor_(values_[i], scratch);
  }

  // First bit at which keys i and j differ.  Rejects duplicates: any pair
  // of equal keys in sorted input eventually becomes the [i, j] extremes of
  // some partition/collect range (equal keys can never be severed apart),
  // so every duplicate reaches this check.
  unsigned Mismatch(size_t i, size_t j) const {
    KeyScratch si, sj;
    size_t p = FirstMismatchBit(KeyAt(i, si), KeyAt(j, sj));
    if (p == kNoMismatch) {
      throw std::invalid_argument("BulkLoad: input contains duplicate keys");
    }
    return static_cast<unsigned>(p);
  }

  // First index in [lo, hi) whose key has bit `pos` set.  The range is a
  // Patricia subtree sharing its prefix above `pos`, so the bit is
  // monotone over the sorted range.
  size_t Boundary(size_t lo, size_t hi, unsigned pos) const {
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      KeyScratch scratch;
      if (KeyAt(mid, scratch).Bit(pos) == 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  uint64_t BuildRange(size_t lo, size_t hi) {
    size_t n = hi - lo;
    if (n == 1) return HotEntry::MakeTid(values_[lo]);
    if (n <= kMaxFanout) {
      std::vector<BulkRange> leaves;
      leaves.reserve(n);
      for (size_t i = lo; i < hi; ++i) {
        leaves.push_back({i, i + 1, HotEntry::MakeTid(values_[i])});
      }
      return BuildNode(leaves, /*height=*/1);
    }

    std::vector<BulkRange> pieces;
    PartitionPieces(lo, hi, &pieces);

    unsigned height = 1;
    for (auto& piece : pieces) {
      piece.entry = BuildRange(piece.lo, piece.hi);
      height = std::max(height, 1 + EntryHeight(piece.entry));
    }
    return BuildNode(pieces, height);
  }

  uint64_t BuildNode(const std::vector<BulkRange>& pieces, unsigned height) {
    LogicalNode ln;
    ln.height = height;
    ln.count = static_cast<unsigned>(pieces.size());
    ln.num_bits = 0;
    CollectBits(pieces, 0, pieces.size(), &ln);
    // Sort + dedup the discriminative bits (positions can repeat across
    // subtrees).
    std::sort(ln.bits, ln.bits + ln.num_bits);
    ln.num_bits = static_cast<unsigned>(
        std::unique(ln.bits, ln.bits + ln.num_bits) - ln.bits);
    assert(ln.num_bits >= 1 && ln.num_bits <= kMaxDiscBits);
    AssignSparse(pieces, 0, pieces.size(), 0, &ln);
    for (size_t i = 0; i < pieces.size(); ++i) {
      ln.entries[i] = pieces[i].entry;
    }
    return Encode(ln, alloc_).ToEntry();
  }

  // The BiNode bit severing pieces [from, to): the first mismatch between
  // the smallest key of the first piece and the largest key of the last.
  unsigned RootBitOf(const std::vector<BulkRange>& pieces, size_t from,
                     size_t to) const {
    return Mismatch(pieces[from].lo, pieces[to - 1].hi - 1);
  }

  // First piece in [from, to) on the 1-side of `pos`.
  size_t PieceBoundary(const std::vector<BulkRange>& pieces, size_t from,
                       size_t to, unsigned pos) const {
    while (from < to) {
      size_t mid = from + (to - from) / 2;
      KeyScratch scratch;
      if (KeyAt(pieces[mid].lo, scratch).Bit(pos) == 0) {
        from = mid + 1;
      } else {
        to = mid;
      }
    }
    return from;
  }

  void CollectBits(const std::vector<BulkRange>& pieces, size_t from,
                   size_t to, LogicalNode* ln) const {
    if (to - from <= 1) return;
    unsigned bit = RootBitOf(pieces, from, to);
    assert(ln->num_bits < kMaxFanout);
    ln->bits[ln->num_bits++] = static_cast<uint16_t>(bit);
    size_t m = PieceBoundary(pieces, from, to, bit);
    CollectBits(pieces, from, m, ln);
    CollectBits(pieces, m, to, ln);
  }

  void AssignSparse(const std::vector<BulkRange>& pieces, size_t from,
                    size_t to, uint32_t prefix, LogicalNode* ln) const {
    if (to - from == 1) {
      ln->sparse[from] = prefix;
      return;
    }
    unsigned bit = RootBitOf(pieces, from, to);
    bool exists;
    unsigned rank = BitRank(*ln, bit, &exists);
    assert(exists);
    size_t m = PieceBoundary(pieces, from, to, bit);
    AssignSparse(pieces, from, m, prefix, ln);
    AssignSparse(pieces, m, to, prefix | LogicalNode::RankBit(rank), ln);
  }

  const KeyExtractor& extractor_;
  const uint64_t* values_;
  size_t n_;
  NodePool& alloc_;
};

// Parallel bottom-up build: same output structure as a serial BulkBuilder
// over the same sorted input, computed on up to `threads` workers.
//
//   Phase 1 (serial)   — expand the top of the BuildRange recursion into a
//                        plan tree: every expansion uses PartitionPieces,
//                        so every cut is at a discriminative bit (BiNode-
//                        consistent) and every piece an independent subtrie.
//                        Pieces at or below the grain become leaf tasks.
//   Phase 2 (parallel) — workers claim leaf tasks (largest first, via an
//                        atomic cursor) and run the ordinary serial
//                        recursion on them, allocating from their own
//                        thread's pool stripe.
//   Phase 3 (serial)   — graft: internal plan nodes are encoded bottom-up
//                        over their children's finished entries, exactly as
//                        BuildRange would have after its recursive calls.
//
// A worker exception (duplicate keys, allocation failure) is rethrown on
// the calling thread after all workers join; as with a serial throw, any
// nodes already built stay in the arena until the pool is destroyed and no
// root is published.
template <typename KeyExtractor>
uint64_t ParallelBulkBuild(const KeyExtractor& extractor,
                           const uint64_t* values, size_t n, NodePool& pool,
                           unsigned threads) {
  if (n == 0) return HotEntry::kEmpty;
  BulkBuilder<KeyExtractor> serial(extractor, values, n, pool);
  if (threads <= 1 || n <= kMaxFanout * kMaxFanout) return serial.Build();

  struct Plan {
    size_t parent;        // index into `plans`; root uses (size_t)-1
    size_t parent_piece;  // which of the parent's pieces this plan fills
    std::vector<BulkRange> pieces;
  };
  struct LeafTask {
    size_t plan, piece, size;
  };
  std::vector<Plan> plans;
  std::vector<LeafTask> tasks;

  // ~4 tasks per worker for load balance; never below one compound node's
  // next-level capacity, so tasks stay coarse enough to amortize claiming.
  const size_t grain = std::max<size_t>(n / (size_t{threads} * 4),
                                        kMaxFanout * kMaxFanout);
  plans.push_back({static_cast<size_t>(-1), 0, {}});
  serial.PartitionPieces(0, n, &plans[0].pieces);
  for (size_t pi = 0; pi < plans.size(); ++pi) {
    for (size_t j = 0; j < plans[pi].pieces.size(); ++j) {
      const BulkRange piece = plans[pi].pieces[j];  // copy: plans may grow
      size_t sz = piece.hi - piece.lo;
      if (sz > grain) {
        plans.push_back({pi, j, {}});
        serial.PartitionPieces(piece.lo, piece.hi, &plans.back().pieces);
      } else {
        tasks.push_back({pi, j, sz});
      }
    }
  }
  // Largest-first claiming approximates LPT scheduling: big subtries start
  // early, stragglers are small.
  std::sort(tasks.begin(), tasks.end(),
            [](const LeafTask& a, const LeafTask& b) { return a.size > b.size; });

  // At most kStripes workers, so freshly started ones get distinct stripes.
  const unsigned workers = static_cast<unsigned>(std::min<size_t>(
      {threads, tasks.size(), NodePool::kStripes}));
  std::atomic<size_t> cursor{0};
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> crew;
  crew.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    crew.emplace_back([&, w] {
      // A fresh thread, so a stripe of its own: every node this worker
      // builds is carved from (and first-touched in) its own bump arena.
      BulkBuilder<KeyExtractor> builder(extractor, values, n, pool);
      try {
        for (;;) {
          size_t t = cursor.fetch_add(1, std::memory_order_relaxed);
          if (t >= tasks.size()) break;
          BulkRange& piece = plans[tasks[t].plan].pieces[tasks[t].piece];
          piece.entry = builder.BuildSubrange(piece.lo, piece.hi);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : crew) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  // Graft bottom-up.  Children always appear after their parent in `plans`
  // (appended during expansion), so a reverse sweep sees every child entry
  // before its parent encodes.
  for (size_t pi = plans.size(); pi-- > 0;) {
    Plan& p = plans[pi];
    unsigned height = 1;
    for (const BulkRange& piece : p.pieces) {
      height = std::max(height, 1 + EntryHeight(piece.entry));
    }
    uint64_t entry = serial.BuildNodeOver(p.pieces, height);
    if (pi == 0) return entry;
    plans[p.parent].pieces[p.parent_piece].entry = entry;
  }
  return HotEntry::kEmpty;  // unreachable: plans is never empty
}

}  // namespace detail
}  // namespace hot

#endif  // HOT_HOT_BULK_LOAD_H_

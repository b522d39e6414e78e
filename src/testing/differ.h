// Differential trace executor (tentpole check #2).
//
// Replays a Trace simultaneously against the binary Patricia trie — the
// oracle: ~100 lines of obviously-correct pointer code — and an index under
// test, diffing every result:
//
//   * insert/upsert/remove return values and size()
//   * point lookups (hit and miss)
//   * lower_bound (a 1-element ScanFrom)
//   * bounded ordered scans, element by element
//   * at every audit op: the FULL ordered scan output, the batched lookup
//     path (LookupBatch) over a ring of recently touched keys re-checked
//     against freshly computed oracle answers, the deep structural audit
//     (audit.h) for HOT trees or CheckStructure for the competitor indexes,
//     and the per-leaf height differential: every leaf's compound depth
//     must be at most its Patricia BiNode depth
//
// The executor is deterministic: a (trace, index kind) pair either passes or
// fails at a fixed op, which is what makes shrinking (shrink.h) and replay
// (tools/fuzz_replay) work.

#ifndef HOT_TESTING_DIFFER_H_
#define HOT_TESTING_DIFFER_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "art/art.h"
#include "btree/btree.h"
#include "common/extractors.h"
#include "common/key.h"
#include "hot/rowex.h"
#include "hot/trie.h"
#include "masstree/masstree.h"
#include "obs/telemetry.h"
#include "patricia/patricia.h"
#include "testing/adapters.h"
#include "testing/audit.h"
#include "testing/trace.h"
#include "ycsb/adapters.h"

namespace hot {
namespace testing {

struct DiffOptions {
  bool deep_audit = true;    // run audit.h / CheckStructure at audit ops
  size_t batch_window = 64;  // recently-touched keys cross-checked batched
};

struct DiffResult {
  bool ok = true;
  size_t ops_executed = 0;
  size_t failed_op = 0;  // index into trace.ops of the diverging op
  std::string error;
  AuditStats last_audit;  // filled for HOT-family indexes

  std::string Describe() const {
    if (ok) return "ok after " + std::to_string(ops_executed) + " ops";
    std::ostringstream oss;
    oss << "FAIL at op " << failed_op << ": " << error;
    return oss.str();
  }
};

// The index-under-test kinds.
inline constexpr const char* kIndexNames[] = {"hot", "rowex", "art",
                                              "masstree", "btree"};
inline constexpr unsigned kNumIndexes = std::size(kIndexNames);

namespace detail {

inline std::string OptToString(const std::optional<uint64_t>& v) {
  return v ? std::to_string(*v) : std::string("none");
}

template <typename Index, typename KeyExtractor>
class TraceRunner {
 public:
  TraceRunner(const KeySpace& ks, const KeyExtractor& extractor,
              const DiffOptions& opts)
      : ks_(ks), extractor_(extractor), opts_(opts), index_(extractor),
        oracle_(extractor) {}

  DiffResult Run(const Trace& trace) {
    DiffResult res;
    const size_t n = ks_.size();
    if (n == 0) {
      res.error = "empty keyspace";
      res.ok = trace.ops.empty();
      return res;
    }
    for (size_t op_i = 0; op_i < trace.ops.size(); ++op_i) {
      Op op = trace.ops[op_i];
      op.idx %= static_cast<uint32_t>(n);  // stay valid under shrinking
      std::string err;
      if (!Step(op, op_i == 0, &err)) {
        res.ok = false;
        res.failed_op = op_i;
        res.error = err;
        res.ops_executed = op_i;
        res.last_audit = last_audit_;
        return res;
      }
      ++res.ops_executed;
    }
    res.last_audit = last_audit_;
    return res;
  }

 private:
  KeyRef KeyAt(uint32_t idx, KeyScratch& scratch) const {
    return extractor_(ks_.ValueOf(idx), scratch);
  }

  void Touch(uint32_t idx) {
    if (opts_.batch_window == 0) return;
    if (recent_.size() < opts_.batch_window) {
      recent_.push_back(idx);
    } else {
      recent_[recent_pos_ % recent_.size()] = idx;
    }
    ++recent_pos_;
  }

  bool Step(const Op& op, bool first, std::string* err) {
    std::ostringstream oss;
    auto fail = [&]() {
      *err = oss.str();
      return false;
    };
    KeyScratch scratch;
    switch (op.kind) {
      case OpKind::kInsert: {
        uint64_t v = ks_.ValueOf(op.idx);
        bool want = oracle_.Insert(v);
        bool got = index_.Insert(v);
        Touch(op.idx);
        if (want != got) {
          oss << "Insert(key " << op.idx << "): oracle " << want << ", index "
              << got;
          return fail();
        }
        break;
      }
      case OpKind::kUpsert: {
        uint64_t v = ks_.ValueOf(op.idx);
        bool inserted = oracle_.Insert(v);
        std::optional<uint64_t> prev = IndexUpsert(index_, v);
        Touch(op.idx);
        std::optional<uint64_t> want =
            inserted ? std::nullopt : std::optional<uint64_t>(v);
        if (prev != want) {
          oss << "Upsert(key " << op.idx << "): oracle prev "
              << OptToString(want) << ", index prev " << OptToString(prev);
          return fail();
        }
        break;
      }
      case OpKind::kRemove: {
        KeyRef key = KeyAt(op.idx, scratch);
        bool want = oracle_.Remove(key);
        bool got = index_.Remove(key);
        if (want != got) {
          oss << "Remove(key " << op.idx << "): oracle " << want << ", index "
              << got;
          return fail();
        }
        break;
      }
      case OpKind::kLookup: {
        KeyRef key = KeyAt(op.idx, scratch);
        std::optional<uint64_t> want = oracle_.Lookup(key);
        std::optional<uint64_t> got = index_.Lookup(key);
        Touch(op.idx);
        if (want != got) {
          oss << "Lookup(key " << op.idx << "): oracle " << OptToString(want)
              << ", index " << OptToString(got);
          return fail();
        }
        break;
      }
      case OpKind::kLowerBound: {
        KeyRef key = KeyAt(op.idx, scratch);
        std::optional<uint64_t> want = OracleLowerBound(key);
        std::optional<uint64_t> got = IndexLowerBound(index_, key);
        Touch(op.idx);
        if (want != got) {
          oss << "LowerBound(key " << op.idx << "): oracle "
              << OptToString(want) << ", index " << OptToString(got);
          return fail();
        }
        break;
      }
      case OpKind::kScan: {
        KeyRef key = KeyAt(op.idx, scratch);
        std::vector<uint64_t> want, got;
        oracle_.ScanFrom(key, [&](uint64_t v) {
          want.push_back(v);
          return want.size() < op.arg;
        });
        index_.ScanFrom(key, op.arg, [&](uint64_t v) { got.push_back(v); });
        if (want != got) {
          oss << "Scan(key " << op.idx << ", limit " << op.arg
              << "): oracle " << want.size() << " values, index " << got.size()
              << DescribeFirstDiff(want, got);
          return fail();
        }
        break;
      }
      case OpKind::kBulkLoad: {
        if (!first || !index_.empty()) {
          // Bulk load mid-trace degenerates to inserts (shrinking may have
          // removed the guarantee that the tree is empty).
          const std::vector<uint64_t>& sorted = ks_.SortedValues();
          size_t m = std::min<size_t>(op.arg ? op.arg : 1, sorted.size());
          for (size_t i = 0; i < m; ++i) {
            uint64_t v = sorted[i];
            bool want = oracle_.Insert(v);
            bool got = index_.Insert(v);
            if (want != got) {
              oss << "BulkLoad-as-insert diverged at sorted value " << i;
              return fail();
            }
          }
          break;
        }
        const std::vector<uint64_t>& sorted = ks_.SortedValues();
        size_t m = std::min<size_t>(op.arg ? op.arg : 1, sorted.size());
        std::vector<uint64_t> prefix(sorted.begin(), sorted.begin() + m);
        IndexBulkLoad(index_, prefix);
        for (uint64_t v : prefix) oracle_.Insert(v);
        break;
      }
      case OpKind::kAudit:
        return Audit(err);
    }
    if (index_.size() != oracle_.size()) {
      oss << "size mismatch after op: oracle " << oracle_.size() << ", index "
          << index_.size();
      return fail();
    }
    return true;
  }

  std::optional<uint64_t> OracleLowerBound(KeyRef key) const {
    std::optional<uint64_t> out;
    oracle_.ScanFrom(key, [&](uint64_t v) {
      out = v;
      return false;
    });
    return out;
  }

  static std::string DescribeFirstDiff(const std::vector<uint64_t>& want,
                                       const std::vector<uint64_t>& got) {
    size_t n = std::min(want.size(), got.size());
    for (size_t i = 0; i < n; ++i) {
      if (want[i] != got[i]) {
        std::ostringstream oss;
        oss << "; first diff at position " << i << ": oracle " << want[i]
            << ", index " << got[i];
        return oss.str();
      }
    }
    return "";
  }

  bool Audit(std::string* err) {
    std::ostringstream oss;
    auto fail = [&]() {
      *err = oss.str();
      return false;
    };
    // Full ordered-scan differential: every stored value, in key order.
    {
      std::vector<uint64_t> want, got;
      want.reserve(oracle_.size());
      got.reserve(oracle_.size());
      oracle_.ScanFrom(KeyRef(), [&](uint64_t v) {
        want.push_back(v);
        return true;
      });
      index_.ScanFrom(KeyRef(), oracle_.size() + 1,
                      [&](uint64_t v) { got.push_back(v); });
      if (want != got) {
        oss << "audit full-scan mismatch: oracle " << want.size()
            << " values, index " << got.size()
            << DescribeFirstDiff(want, got);
        return fail();
      }
    }
    // Batched lookups over the recently-touched ring, each slot re-checked
    // against a freshly computed scalar oracle answer.
    if (!recent_.empty()) {
      std::vector<KeyScratch> scratches(recent_.size());
      std::vector<KeyRef> keys(recent_.size());
      for (size_t i = 0; i < recent_.size(); ++i) {
        keys[i] = KeyAt(recent_[i], scratches[i]);
      }
      if constexpr (ycsb::HasLookupBatch<Index>) {
        std::vector<std::optional<uint64_t>> out(keys.size());
        index_.LookupBatch(std::span<const KeyRef>(keys),
                           std::span<std::optional<uint64_t>>(out));
        for (size_t i = 0; i < keys.size(); ++i) {
          std::optional<uint64_t> want = oracle_.Lookup(keys[i]);
          if (out[i] != want) {
            oss << "audit LookupBatch[" << i << "] (key " << recent_[i]
                << "): oracle " << OptToString(want) << ", index "
                << OptToString(out[i]);
            return fail();
          }
        }
      }
    }
    if (!opts_.deep_audit) return true;
    // Structural audit.
    if constexpr (HasRootEntry<Index>) {
      std::string aerr;
      if (!AuditHotTree(index_.root_entry(), index_.extractor(), index_.size(),
                        &last_audit_, &aerr)) {
        oss << "audit structural: " << aerr;
        return fail();
      }
      // Height differential: both ForEachLeaf walks are in-order, so zip
      // them.  A leaf under d compound nodes sits under at least d BiNodes
      // in the binary Patricia trie (each compound node consumes >= 1).
      std::vector<std::pair<unsigned, uint64_t>> hot_leaves;
      std::vector<std::pair<unsigned, uint64_t>> pat_leaves;
      hot_leaves.reserve(index_.size());
      pat_leaves.reserve(index_.size());
      index_.ForEachLeaf([&](unsigned depth, uint64_t value) {
        hot_leaves.emplace_back(depth, value);
      });
      oracle_.ForEachLeaf([&](size_t depth, uint64_t value) {
        pat_leaves.emplace_back(static_cast<unsigned>(depth), value);
      });
      if (hot_leaves.size() != pat_leaves.size()) {
        oss << "audit leaf walk count: hot " << hot_leaves.size()
            << ", patricia " << pat_leaves.size();
        return fail();
      }
      for (size_t i = 0; i < hot_leaves.size(); ++i) {
        if (hot_leaves[i].second != pat_leaves[i].second) {
          oss << "audit leaf walk order diverges at position " << i;
          return fail();
        }
        unsigned hot_depth = hot_leaves[i].first;       // compound nodes
        unsigned binodes = pat_leaves[i].first - 1;      // leaf depth 1 = 0
        if (hot_depth > binodes && hot_depth > 1) {
          oss << "audit height differential: leaf " << i << " under "
              << hot_depth << " compound nodes but only " << binodes
              << " Patricia BiNodes";
          return fail();
        }
      }
      // Telemetry cross-check: the obs/telemetry.h census (ForEachNode) must
      // agree with the audit.h walk (validate.h-backed) on the node count
      // and the per-layout breakdown — two independent tree traversals.
      if constexpr (requires {
                      index_.ForEachNode(
                          std::function<void(NodeRef, unsigned)>());
                    }) {
        obs::TelemetrySnapshot snap = obs::CollectTelemetry(index_);
        if (snap.census.nodes != last_audit_.nodes) {
          oss << "audit census: telemetry counts " << snap.census.nodes
              << " nodes, structural audit counts " << last_audit_.nodes;
          return fail();
        }
        for (size_t t = 0; t < kNumNodeTypes; ++t) {
          if (snap.census.count_by_type[t] != last_audit_.layout_counts[t]) {
            oss << "audit census: layout " << t << " telemetry "
                << snap.census.count_by_type[t] << ", structural audit "
                << last_audit_.layout_counts[t];
            return fail();
          }
        }
      }
    } else if constexpr (HasCheckStructure<Index>) {
      std::string aerr;
      if (!index_.CheckStructure(&aerr)) {
        oss << "audit structural: " << aerr;
        return fail();
      }
    }
    return true;
  }

  const KeySpace& ks_;
  KeyExtractor extractor_;
  DiffOptions opts_;
  Index index_;
  PatriciaTrie<KeyExtractor> oracle_;
  std::vector<uint32_t> recent_;
  size_t recent_pos_ = 0;
  AuditStats last_audit_;
};

}  // namespace detail

// Replays `trace` against IndexT<Extractor> vs the Patricia oracle, with the
// extractor dictated by the trace's keyspace (string table or embedded u64).
template <template <typename> class IndexT>
DiffResult RunTraceOn(const Trace& trace, const DiffOptions& opts = {}) {
  KeySpace ks = trace.BuildKeys();
  if (ks.is_string) {
    StringTableExtractor ex(&ks.strings);
    detail::TraceRunner<IndexT<StringTableExtractor>, StringTableExtractor>
        runner(ks, ex, opts);
    return runner.Run(trace);
  }
  U64KeyExtractor ex;
  detail::TraceRunner<IndexT<U64KeyExtractor>, U64KeyExtractor> runner(ks, ex,
                                                                       opts);
  return runner.Run(trace);
}

// Name-dispatched variant over kIndexNames.  An unknown name is a failed
// result whose error names it.
inline DiffResult RunTraceOnIndex(const std::string& index_name,
                                  const Trace& trace,
                                  const DiffOptions& opts = {}) {
  if (index_name == "hot") return RunTraceOn<HotTrie>(trace, opts);
  if (index_name == "rowex") return RunTraceOn<RowexHotTrie>(trace, opts);
  if (index_name == "art") return RunTraceOn<ArtTree>(trace, opts);
  if (index_name == "masstree") return RunTraceOn<Masstree>(trace, opts);
  if (index_name == "btree") return RunTraceOn<BTree>(trace, opts);
  DiffResult res;
  res.ok = false;
  res.error = "unknown index: " + index_name;
  return res;
}

}  // namespace testing
}  // namespace hot

#endif  // HOT_TESTING_DIFFER_H_

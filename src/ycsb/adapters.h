// Uniform benchmark adapters: one thin wrapper per (index template, key
// type) pair so the YCSB driver and every bench binary can treat HOT, ART,
// the B+-tree and Masstree identically.
//
// The "update" of YCSB workloads A/B/F updates the tuple a key maps to:
// with tid-based indexes the index performs exactly a lookup and the tuple
// write happens outside the index (§6.1 stores 8-byte tids / embedded
// integer keys).  UpdateRecord therefore performs an index lookup and then
// writes an external value slot, which charges every index the same
// non-index cost.

#ifndef HOT_YCSB_ADAPTERS_H_
#define HOT_YCSB_ADAPTERS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/alloc.h"
#include "common/extractors.h"
#include "common/key.h"
#include "common/simd.h"
#include "ycsb/datasets.h"

namespace hot {
namespace ycsb {

// Indexes exposing a memory-level-parallel batched lookup (HotTrie,
// RowexHotTrie).  Adapters dispatch MultiLookup to it when present and fall
// back to a sequential loop (ART, Masstree, BT), so the workload driver's
// --batch mode runs against every index.
template <typename Index>
concept HasLookupBatch =
    requires(const Index& idx, std::span<const KeyRef> keys,
             std::span<std::optional<uint64_t>> out) {
      idx.LookupBatch(keys, out);
    };

template <template <typename> class IndexT>
class StringDataSetAdapter {
 public:
  explicit StringDataSetAdapter(const DataSet* ds)
      : ds_(ds),
        index_(StringTableExtractor(&ds->strings), &counter_),
        values_(ds->strings.size(), 0) {}

  bool InsertRecord(size_t i) { return index_.Insert(i); }

  bool LookupRecord(size_t i) {
    return index_.Lookup(TerminatedView(ds_->strings[i])).has_value();
  }

  // Batched read of records ids[0..n); returns the number found.
  size_t MultiLookup(const uint32_t* ids, size_t n) {
    if constexpr (HasLookupBatch<IndexT<StringTableExtractor>>) {
      // The string headers are themselves random reads; prefetch them
      // before building the key views.
      for (size_t i = 0; i < n; ++i) {
        PrefetchLines(&ds_->strings[ids[i]], 1);
      }
      keys_.resize(n);
      results_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        keys_[i] = TerminatedView(ds_->strings[ids[i]]);
      }
      index_.LookupBatch(keys_, results_);
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) hits += results_[i].has_value();
      return hits;
    } else {
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) hits += LookupRecord(ids[i]);
      return hits;
    }
  }

  size_t ScanRecord(size_t i, size_t len) {
    uint64_t sink = 0;
    size_t n = index_.ScanFrom(TerminatedView(ds_->strings[i]), len,
                               [&](uint64_t v) { sink += v; });
    sink_ += sink;
    return n;
  }

  bool RemoveRecord(size_t i) {
    return index_.Remove(TerminatedView(ds_->strings[i]));
  }

  bool UpdateRecord(size_t i, uint64_t stamp) {
    auto tid = index_.Lookup(TerminatedView(ds_->strings[i]));
    if (!tid.has_value()) return false;
    values_[*tid] = stamp;  // tuple write outside the index
    return true;
  }

  size_t MemoryBytes() const { return counter_.live_bytes(); }
  IndexT<StringTableExtractor>& index() { return index_; }
  uint64_t sink() const { return sink_; }

 private:
  const DataSet* ds_;
  MemoryCounter counter_;
  IndexT<StringTableExtractor> index_;
  std::vector<uint64_t> values_;
  std::vector<KeyRef> keys_;                       // MultiLookup scratch
  std::vector<std::optional<uint64_t>> results_;   // MultiLookup scratch
  uint64_t sink_ = 0;
};

template <template <typename> class IndexT>
class IntDataSetAdapter {
 public:
  explicit IntDataSetAdapter(const DataSet* ds)
      : ds_(ds),
        index_(U64KeyExtractor(), &counter_),
        values_(ds->ints.size(), 0) {}

  bool InsertRecord(size_t i) { return index_.Insert(ds_->ints[i]); }

  bool LookupRecord(size_t i) {
    return index_.Lookup(U64Key(ds_->ints[i]).ref()).has_value();
  }

  // Batched read of records ids[0..n); returns the number found.
  size_t MultiLookup(const uint32_t* ids, size_t n) {
    if constexpr (HasLookupBatch<IndexT<U64KeyExtractor>>) {
      for (size_t i = 0; i < n; ++i) {
        PrefetchLines(&ds_->ints[ids[i]], 1);
      }
      key_bytes_.resize(n * 8);
      keys_.resize(n);
      results_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        EncodeU64(ds_->ints[ids[i]], &key_bytes_[i * 8]);
        keys_[i] = KeyRef(&key_bytes_[i * 8], 8);
      }
      index_.LookupBatch(keys_, results_);
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) hits += results_[i].has_value();
      return hits;
    } else {
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) hits += LookupRecord(ids[i]);
      return hits;
    }
  }

  size_t ScanRecord(size_t i, size_t len) {
    uint64_t sink = 0;
    size_t n = index_.ScanFrom(U64Key(ds_->ints[i]).ref(), len,
                               [&](uint64_t v) { sink += v; });
    sink_ += sink;
    return n;
  }

  bool RemoveRecord(size_t i) {
    return index_.Remove(U64Key(ds_->ints[i]).ref());
  }

  bool UpdateRecord(size_t i, uint64_t stamp) {
    auto tid = index_.Lookup(U64Key(ds_->ints[i]).ref());
    if (!tid.has_value()) return false;
    values_[i] = stamp;  // integer keys embed the tid; stamp by record id
    return true;
  }

  size_t MemoryBytes() const { return counter_.live_bytes(); }
  IndexT<U64KeyExtractor>& index() { return index_; }
  uint64_t sink() const { return sink_; }

 private:
  const DataSet* ds_;
  MemoryCounter counter_;
  IndexT<U64KeyExtractor> index_;
  std::vector<uint64_t> values_;
  std::vector<uint8_t> key_bytes_;                 // MultiLookup scratch
  std::vector<KeyRef> keys_;                       // MultiLookup scratch
  std::vector<std::optional<uint64_t>> results_;   // MultiLookup scratch
  uint64_t sink_ = 0;
};

}  // namespace ycsb
}  // namespace hot

#endif  // HOT_YCSB_ADAPTERS_H_

// Capability detection + uniform wrappers over the five index types
// (tentpole check #2 support).
//
// The differential executor (differ.h) drives any index exposing the shared
// core — Insert(value) / Lookup(key) / Remove(key) / ScanFrom(start, limit,
// fn) / size() — and uses these concepts to exercise optional surfaces where
// they exist (Upsert, BulkLoad, structural checkers) and to emulate them
// where they do not, so every index answers every trace op.  The batched
// lookups are detected by ycsb::HasLookupBatch (ycsb/adapters.h).

#ifndef HOT_TESTING_ADAPTERS_H_
#define HOT_TESTING_ADAPTERS_H_

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/extractors.h"
#include "common/key.h"

namespace hot {
namespace testing {

template <typename T>
concept HasUpsert = requires(T& t, uint64_t v) {
  { t.Upsert(v) } -> std::same_as<std::optional<uint64_t>>;
};

template <typename T>
concept HasBulkLoad = requires(T& t, const std::vector<uint64_t>& vals) {
  t.BulkLoad(vals);
};

// HOT tries expose their tagged root entry + extractor for the deep
// structural audit (audit.h).
template <typename T>
concept HasRootEntry = requires(const T& t) {
  { t.root_entry() } -> std::convertible_to<uint64_t>;
  t.extractor();
};

// Competitor indexes expose a self-check of their own invariants.
template <typename T>
concept HasCheckStructure = requires(const T& t, std::string* err) {
  { t.CheckStructure(err) } -> std::convertible_to<bool>;
};

// --- uniform wrappers ------------------------------------------------------

// Upsert semantics on indexes without Upsert: the stored value is determined
// by its key in every trace keyspace, so insert-if-absent is equivalent.
// Returns the previous value if the key was present.
template <typename Index>
std::optional<uint64_t> IndexUpsert(Index& index, uint64_t value) {
  if constexpr (HasUpsert<Index>) {
    return index.Upsert(value);
  } else {
    return index.Insert(value) ? std::nullopt
                               : std::optional<uint64_t>(value);
  }
}

// First value with key >= `key`: a 1-element scan, which positions every
// index through its own lower-bound search.
template <typename Index>
std::optional<uint64_t> IndexLowerBound(const Index& index, KeyRef key) {
  std::optional<uint64_t> out;
  index.ScanFrom(key, 1, [&](uint64_t v) { out = v; });
  return out;
}

// Bulk-builds from values sorted ascending by key; falls back to an insert
// loop on indexes without a bulk path.
template <typename Index>
void IndexBulkLoad(Index& index, const std::vector<uint64_t>& sorted_values) {
  if constexpr (HasBulkLoad<Index>) {
    index.BulkLoad(sorted_values);
  } else {
    for (uint64_t v : sorted_values) index.Insert(v);
  }
}

}  // namespace testing
}  // namespace hot

#endif  // HOT_TESTING_ADAPTERS_H_

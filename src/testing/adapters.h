// Capability detection + uniform wrappers over the five index types
// (tentpole check #2 support).
//
// The differential executor (differ.h) drives any index exposing the shared
// core — Insert(value) / Lookup(key) / Remove(key) / ScanFrom(start, limit,
// fn) / size() — and uses these concepts to exercise optional surfaces where
// they exist (Upsert, BulkLoad, iterator LowerBound, the batched lookups,
// structural checkers) and to emulate them where they do not, so every index
// answers every trace op.

#ifndef HOT_TESTING_ADAPTERS_H_
#define HOT_TESTING_ADAPTERS_H_

#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
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

template <typename T>
concept HasLowerBoundIter = requires(const T& t, KeyRef k) {
  { t.LowerBound(k).valid() } -> std::convertible_to<bool>;
};

template <typename T>
concept HasLookupBatch =
    requires(const T& t, std::span<const KeyRef> keys,
             std::span<std::optional<uint64_t>> out) {
      t.LookupBatch(keys, out);
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

// First value with key >= `key`, through the iterator when the index has
// one (exercising the LowerBound edge cases), else via a 1-element scan.
template <typename Index>
std::optional<uint64_t> IndexLowerBound(const Index& index, KeyRef key) {
  if constexpr (HasLowerBoundIter<Index>) {
    auto it = index.LowerBound(key);
    if (!it.valid()) return std::nullopt;
    return it.value();
  } else {
    std::optional<uint64_t> out;
    index.ScanFrom(key, 1, [&](uint64_t v) { out = v; });
    return out;
  }
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

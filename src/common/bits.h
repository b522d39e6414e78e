// Bit-manipulation primitives used throughout the HOT node layouts.
//
// HOT's engineered node representation (paper §4.1) leans on two BMI2
// instructions:
//   * PEXT — extract the bits selected by a mask and compress them to the
//     low end of a word (dense partial-key extraction, Listing 2).
//   * PDEP — the inverse; deposit low bits at the positions selected by a
//     mask (sparse partial-key recoding on insert, §4.4).
//
// Every intrinsic has a scalar twin (suffix `Scalar`).  The twins are
// compiled unconditionally: they serve as portable fallbacks, as the
// reference implementation for differential tests, and as the "no SIMD/BMI"
// arm of the node-engineering ablation bench.

#ifndef HOT_COMMON_BITS_H_
#define HOT_COMMON_BITS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

// HOT_FORCE_SCALAR (CMake -DHOT_FORCE_SCALAR=ON) compiles the intrinsic
// paths out even when the ISA is available, so sanitizer/CI builds actually
// exercise the scalar twins instead of only compiling them.
#if defined(__BMI2__) && !defined(HOT_FORCE_SCALAR)
#include <immintrin.h>
#define HOT_HAVE_BMI2 1
#else
#define HOT_HAVE_BMI2 0
#endif

namespace hot {

// Parallel bit extract: gathers the bits of `value` at the positions set in
// `mask` into the low-order bits of the result (most-significant selected
// bit of `value` -> ... -> least-significant), matching the semantics of the
// x86 PEXT instruction.
inline uint64_t PextScalar(uint64_t value, uint64_t mask) {
  uint64_t result = 0;
  uint64_t out_bit = 1;
  while (mask != 0) {
    uint64_t lowest = mask & (~mask + 1);
    if (value & lowest) result |= out_bit;
    out_bit <<= 1;
    mask &= mask - 1;
  }
  return result;
}

// Parallel bit deposit: scatters the low-order bits of `value` to the
// positions set in `mask` (x86 PDEP semantics).
inline uint64_t PdepScalar(uint64_t value, uint64_t mask) {
  uint64_t result = 0;
  uint64_t in_bit = 1;
  while (mask != 0) {
    uint64_t lowest = mask & (~mask + 1);
    if (value & in_bit) result |= lowest;
    in_bit <<= 1;
    mask &= mask - 1;
  }
  return result;
}

inline uint64_t Pext64(uint64_t value, uint64_t mask) {
#if HOT_HAVE_BMI2
  return _pext_u64(value, mask);
#else
  return PextScalar(value, mask);
#endif
}

inline uint32_t Pext32(uint32_t value, uint32_t mask) {
#if HOT_HAVE_BMI2
  return _pext_u32(value, mask);
#else
  return static_cast<uint32_t>(PextScalar(value, mask));
#endif
}

inline uint32_t Pdep32(uint32_t value, uint32_t mask) {
#if HOT_HAVE_BMI2
  return _pdep_u32(value, mask);
#else
  return static_cast<uint32_t>(PdepScalar(value, mask));
#endif
}

// Index (0-based, from bit 0 == LSB) of the most significant set bit.
// Precondition: value != 0.
inline unsigned BitScanReverse32(uint32_t value) {
  return 31u - static_cast<unsigned>(std::countl_zero(value));
}

inline unsigned BitScanReverse64(uint64_t value) {
  return 63u - static_cast<unsigned>(std::countl_zero(value));
}

// Index of the least significant set bit.  Precondition: value != 0.
inline unsigned BitScanForward32(uint32_t value) {
  return static_cast<unsigned>(std::countr_zero(value));
}

inline unsigned Popcount64(uint64_t value) {
  return static_cast<unsigned>(std::popcount(value));
}

inline unsigned Popcount32(uint32_t value) {
  return static_cast<unsigned>(std::popcount(value));
}

// Loads 8 bytes starting at `bytes` and returns them as a big-endian word,
// i.e. bytes[0] becomes the most significant byte.  Trie traversal orders
// keys lexicographically on bytes, so masks over key bits are defined on
// this big-endian view.
inline uint64_t LoadBigEndian64(const uint8_t* bytes) {
  uint64_t word;
  __builtin_memcpy(&word, bytes, sizeof(word));
  return __builtin_bswap64(word);
}

inline void StoreBigEndian64(uint8_t* bytes, uint64_t value) {
  uint64_t word = __builtin_bswap64(value);
  __builtin_memcpy(bytes, &word, sizeof(word));
}

// The little-endian codec of the wire protocol (net/protocol.h), the WAL and
// the snapshot file (persist/).
//
// Fixed-offset stores, for encoders that size the whole frame up front:
// one unaligned store each.
inline void StoreU32(uint8_t* p, uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  __builtin_memcpy(p, &v, sizeof(v));
}
inline void StoreU64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  __builtin_memcpy(p, &v, sizeof(v));
}
// Appends to a byte vector: one resize and one fixed-offset store each.
inline void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  size_t at = out->size();
  out->resize(at + sizeof(v));
  out->data()[at] = static_cast<uint8_t>(v);
  out->data()[at + 1] = static_cast<uint8_t>(v >> 8);
}
inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  size_t at = out->size();
  out->resize(at + sizeof(v));
  StoreU32(out->data() + at, v);
}
inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  size_t at = out->size();
  out->resize(at + sizeof(v));
  StoreU64(out->data() + at, v);
}
// Loads from unaligned bytes.
inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
inline uint32_t GetU32(const uint8_t* p) {
  return p[0] | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}
inline uint64_t GetU64(const uint8_t* p) {
  return GetU32(p) | (uint64_t{GetU32(p + 4)} << 32);
}

}  // namespace hot

#endif  // HOT_COMMON_BITS_H_

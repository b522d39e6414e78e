// Binary-comparable keys.
//
// Every index in this repository operates on keys that are plain byte
// strings compared lexicographically (unsigned bytes).  Bit positions are
// counted from the most significant bit of the first byte:
//
//   bit 0  = MSB of key[0], bit 7 = LSB of key[0], bit 8 = MSB of key[1], ...
//
// which makes "smaller bit position" mean "more significant", the order in
// which a trie discriminates keys (paper §2).
//
// HOT inherits the classic Patricia requirement (paper footnote 1) that no
// key may be a strict prefix of another.  The string front-ends in each
// index append a 0x00 terminator to enforce this; integer keys are encoded
// big-endian at a fixed width, which is prefix-free by construction.

#ifndef HOT_COMMON_KEY_H_
#define HOT_COMMON_KEY_H_

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/bits.h"

namespace hot {

// Non-owning view of key bytes.  Equivalent in spirit to rocksdb::Slice /
// std::span<const uint8_t>, with key-specific helpers.
class KeyRef {
 public:
  constexpr KeyRef() : data_(nullptr), size_(0) {}
  constexpr KeyRef(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}
  explicit KeyRef(std::string_view s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}
  explicit KeyRef(const std::string& s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}

  constexpr const uint8_t* data() const { return data_; }
  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  // Byte at `i`, treating the key as padded with infinitely many 0x00
  // bytes.  Trie code paths read beyond the end of shorter keys; with the
  // prefix-free requirement the padding never changes comparison outcomes.
  uint8_t ByteOrZero(size_t i) const { return i < size_ ? data_[i] : 0; }

  // Bit at absolute position `pos` (0 = MSB of first byte), zero-padded.
  unsigned Bit(size_t pos) const {
    size_t byte = pos >> 3;
    if (byte >= size_) return 0;
    return (data_[byte] >> (7 - (pos & 7))) & 1u;
  }

  int Compare(KeyRef other) const {
    size_t n = size_ < other.size_ ? size_ : other.size_;
    int c = n == 0 ? 0 : std::memcmp(data_, other.data_, n);
    if (c != 0) return c;
    if (size_ == other.size_) return 0;
    return size_ < other.size_ ? -1 : 1;
  }

  bool operator==(KeyRef other) const { return Compare(other) == 0; }

 private:
  const uint8_t* data_;
  size_t size_;
};

// First bit position at which `a` and `b` differ, both viewed as zero-padded
// bit strings.  Returns kNoMismatch if they are equal up to
// max(a.size, b.size) * 8 bits (i.e. equal under the prefix-free contract).
inline constexpr size_t kNoMismatch = static_cast<size_t>(-1);

inline size_t FirstMismatchBit(KeyRef a, KeyRef b) {
  size_t max_bytes = a.size() > b.size() ? a.size() : b.size();
  size_t i = 0;
  // Word-at-a-time over the common prefix.
  size_t common = a.size() < b.size() ? a.size() : b.size();
  while (i + 8 <= common) {
    uint64_t wa = LoadBigEndian64(a.data() + i);
    uint64_t wb = LoadBigEndian64(b.data() + i);
    if (wa != wb) {
      return i * 8 + static_cast<size_t>(std::countl_zero(wa ^ wb));
    }
    i += 8;
  }
  for (; i < max_bytes; ++i) {
    uint8_t ba = a.ByteOrZero(i);
    uint8_t bb = b.ByteOrZero(i);
    if (ba != bb) {
      // std::countl_zero on uint8_t counts within the 8-bit width.
      return i * 8 + static_cast<size_t>(
                         std::countl_zero(static_cast<uint8_t>(ba ^ bb)));
    }
  }
  return kNoMismatch;
}

// Fixed-width big-endian encoding of unsigned integers: preserves numeric
// order under lexicographic byte comparison.
inline void EncodeU64(uint64_t value, uint8_t out[8]) {
  StoreBigEndian64(out, value);
}

// Zero-overhead stack buffer for an 8-byte big-endian integer key (the hot
// path of every integer benchmark).
struct U64Key {
  uint8_t bytes[8];
  explicit U64Key(uint64_t value) { EncodeU64(value, bytes); }
  KeyRef ref() const { return KeyRef(bytes, 8); }
};

}  // namespace hot

#endif  // HOT_COMMON_KEY_H_

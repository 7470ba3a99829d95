#ifndef CTFL_UTIL_BITSET_H_
#define CTFL_UTIL_BITSET_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ctfl/util/result.h"

namespace ctfl {

/// Fixed-size dynamic bitset backed by 64-bit words. Rule-activation vectors
/// are stored as Bitsets so tracing overlap reduces to word-wise AND +
/// popcount, the hot loop of CTFL's contribution tracing.
class Bitset {
 public:
  Bitset() : size_(0) {}
  explicit Bitset(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }

  void Set(size_t i);
  void Clear(size_t i);
  bool Test(size_t i) const;

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits in `this AND other`. Sizes must match.
  size_t AndCount(const Bitset& other) const;

  /// True if every set bit of `other` is also set in `this`.
  bool Contains(const Bitset& other) const;

  Bitset& operator&=(const Bitset& other);
  Bitset& operator|=(const Bitset& other);

  friend bool operator==(const Bitset& a, const Bitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Indices of set bits, ascending.
  std::vector<size_t> SetBits() const;

  /// Calls `fn(size_t index)` for every set bit in ascending order without
  /// materializing an index vector — the allocation-free replacement for
  /// SetBits() on hot paths (tracer key build, uncovered aggregation,
  /// query-engine support enumeration).
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn(wi * 64 + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// ANDs this bitset's backing words into the raw word array `dst`
  /// (`dst[i] &= words()[i]` for every backing word). `dst` must hold at
  /// least `word_count()` words. Allocation-free mask intersection for
  /// word-parallel kernels that keep lane masks as raw uint64 arrays.
  void AndWordsInto(uint64_t* dst) const;

  /// Number of backing 64-bit words ((size + 63) / 64).
  size_t word_count() const { return words_.size(); }

  /// e.g. "10110" (bit 0 first).
  std::string ToString() const;

  /// Hash usable with std::unordered_map.
  size_t Hash() const;

  /// Backing 64-bit words (bit i lives in word i/64 at position i%64).
  /// Exposed for binary persistence; trailing bits past size() are zero.
  const std::vector<uint64_t>& words() const { return words_; }

  /// Rebuilds a bitset of `size` bits from backing words (inverse of
  /// words()). Fails if the word count does not match or a trailing bit
  /// past `size` is set — both indicate a corrupt serialization.
  static Result<Bitset> FromWords(size_t size, std::vector<uint64_t> words);

 private:
  size_t size_;
  std::vector<uint64_t> words_;
};

struct BitsetHash {
  size_t operator()(const Bitset& b) const { return b.Hash(); }
};

}  // namespace ctfl

#endif  // CTFL_UTIL_BITSET_H_

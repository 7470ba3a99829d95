#include "ctfl/util/bitset.h"

#include <bit>

#include "ctfl/util/logging.h"

namespace ctfl {

void Bitset::Set(size_t i) {
  CTFL_CHECK(i < size_);
  words_[i / 64] |= (1ULL << (i % 64));
}

void Bitset::Clear(size_t i) {
  CTFL_CHECK(i < size_);
  words_[i / 64] &= ~(1ULL << (i % 64));
}

bool Bitset::Test(size_t i) const {
  CTFL_CHECK(i < size_);
  return (words_[i / 64] >> (i % 64)) & 1ULL;
}

size_t Bitset::Count() const {
  size_t total = 0;
  for (uint64_t w : words_) total += std::popcount(w);
  return total;
}

size_t Bitset::AndCount(const Bitset& other) const {
  CTFL_CHECK(size_ == other.size_);
  size_t total = 0;
  for (size_t i = 0; i < words_.size(); ++i) {
    total += std::popcount(words_[i] & other.words_[i]);
  }
  return total;
}

bool Bitset::Contains(const Bitset& other) const {
  CTFL_CHECK(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != other.words_[i]) return false;
  }
  return true;
}

Bitset& Bitset::operator&=(const Bitset& other) {
  CTFL_CHECK(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

Bitset& Bitset::operator|=(const Bitset& other) {
  CTFL_CHECK(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

std::vector<size_t> Bitset::SetBits() const {
  std::vector<size_t> out;
  for (size_t wi = 0; wi < words_.size(); ++wi) {
    uint64_t w = words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      out.push_back(wi * 64 + bit);
      w &= w - 1;
    }
  }
  return out;
}

void Bitset::AndWordsInto(uint64_t* dst) const {
  for (size_t i = 0; i < words_.size(); ++i) dst[i] &= words_[i];
}

std::string Bitset::ToString() const {
  std::string out(size_, '0');
  for (size_t i = 0; i < size_; ++i) {
    if (Test(i)) out[i] = '1';
  }
  return out;
}

Result<Bitset> Bitset::FromWords(size_t size, std::vector<uint64_t> words) {
  const size_t expected_words = (size + 63) / 64;
  if (words.size() != expected_words) {
    return Status::InvalidArgument("bitset word count does not match size");
  }
  if (size % 64 != 0 && !words.empty()) {
    const uint64_t tail_mask = ~0ULL << (size % 64);
    if ((words.back() & tail_mask) != 0) {
      return Status::InvalidArgument("bitset has set bits past its size");
    }
  }
  Bitset out;
  out.size_ = size;
  out.words_ = std::move(words);
  return out;
}

size_t Bitset::Hash() const {
  // FNV-1a over the words.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  h ^= size_;
  h *= 0x100000001b3ULL;
  return static_cast<size_t>(h);
}

}  // namespace ctfl

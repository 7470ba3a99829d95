#ifndef CTFL_UTIL_BIT_TRANSPOSE_H_
#define CTFL_UTIL_BIT_TRANSPOSE_H_

#include <cstdint>

namespace ctfl {

/// Transposes the 64x64 bit matrix `m` in place: row i is word m[i] and
/// column j its bit j, so afterwards bit i of m[j] is what bit j of m[i]
/// was. Six rounds swap the off-diagonal halves of every 2^k-row band,
/// 32 word pairs a round, instead of one shift per set bit. Turns 64
/// records' activation words into 64 rules' lane words, and back.
inline void TransposeBits64(uint64_t m[64]) {
  uint64_t mask = 0x00000000ffffffffULL;
  for (int j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

}  // namespace ctfl

#endif  // CTFL_UTIL_BIT_TRANSPOSE_H_

#include "common/rng.hpp"

#include <algorithm>
#include <bitset>

namespace tp::common {
namespace {

constexpr std::size_t kDegree = 256;

// Polynomials over GF(2) as bit sets, bit j the coefficient of x^j; a
// product of two degree < 256 polynomials has degree < 512.
using Bits = std::bitset<2 * kDegree>;

// x^256 mod P: P's coefficients below its leading term, from 2 * 256
// terms of the bit sequence of one state bit, whose minimal polynomial
// Berlekamp-Massey finds. P is primitive (xoshiro256's period is
// 2^256 - 1), so every non-zero bit sequence of the generator has P as its
// minimal polynomial.
Bits characteristicLow(const Bits& s) {
  // Connection polynomial C (C[0] = 1): s[n] = sum_{i=1..L} C[i] s[n - i].
  std::bitset<2 * kDegree + 1> c, b, t;
  c[0] = b[0] = true;
  std::size_t length = 0, shift = 1;
  for (std::size_t n = 0; n < 2 * kDegree; ++n) {
    bool d = s[n];
    for (std::size_t i = 1; i <= length; ++i) d ^= c[i] && s[n - i];
    if (!d) {
      ++shift;
      continue;
    }
    t = c;
    c ^= b << shift;
    if (2 * length <= n) {
      length = n + 1 - length;
      b = t;
      shift = 1;
    } else {
      ++shift;
    }
  }
  TP_ASSERT(length == kDegree);
  // P(x) = x^L C(1/x): the coefficient of x^j is C[L - j].
  Bits low;
  for (std::size_t j = 0; j < kDegree; ++j) low[j] = c[kDegree - j];
  return low;
}

// a^2 mod P for deg a < 256. Squaring over GF(2) spreads the bits; each
// term x^d with d >= 256 folds down as x^(d - 256) * (x^256 mod P).
Bits squareMod(const Bits& a, const Bits& low) {
  Bits r;
  for (std::size_t j = 0; j < kDegree; ++j) r[2 * j] = a[j];
  for (std::size_t d = 2 * kDegree - 2; d >= kDegree; --d) {
    if (!r[d]) continue;
    r[d] = false;
    r ^= low << (d - kDegree);
  }
  return r;
}

std::array<std::uint64_t, 4> toWords(const Bits& p) {
  std::array<std::uint64_t, 4> w{};
  for (std::size_t j = 0; j < kDegree; ++j) {
    if (p[j]) w[j / 64] |= std::uint64_t{1} << (j % 64);
  }
  return w;
}

struct JumpTable {
  Bits low;                   // x^256 mod P
  std::array<Bits, 64> pow2;  // x^(2^i) mod P

  explicit JumpTable(const Bits& stateBits)
      : low(characteristicLow(stateBits)) {
    pow2[0][1] = true;
    for (std::size_t i = 1; i < pow2.size(); ++i) {
      pow2[i] = squareMod(pow2[i - 1], low);
    }
  }
};

}  // namespace

std::array<std::uint64_t, 4> Rng::jumpPolynomial(unsigned log2Steps) {
  static const JumpTable table = [] {
    Rng rng;
    Bits stateBits;
    for (std::size_t n = 0; n < 2 * kDegree; ++n) {
      stateBits[n] = (rng.state_[0] & 1u) != 0;
      rng.advance();
    }
    return JumpTable(stateBits);
  }();
  const std::size_t last = table.pow2.size() - 1;
  Bits p = table.pow2[std::min<std::size_t>(log2Steps, last)];
  for (std::size_t i = last; i < log2Steps; ++i) p = squareMod(p, table.low);
  return toWords(p);
}

void Rng::jump(std::uint64_t k) {
  for (std::uint64_t i = 0; i < (k & 0xff); ++i) advance();
  for (unsigned bit = 8; bit < 64; ++bit) {
    if (((k >> bit) & 1u) != 0) apply(jumpPolynomial(bit));
  }
}

void Rng::apply(const std::array<std::uint64_t, 4>& c) {
  std::array<std::uint64_t, 4> sum{};
  for (const std::uint64_t word : c) {
    for (unsigned b = 0; b < 64; ++b) {
      if (((word >> b) & 1u) != 0) {
        for (std::size_t w = 0; w < sum.size(); ++w) sum[w] ^= state_[w];
      }
      advance();
    }
  }
  state_ = sum;
}

}  // namespace tp::common

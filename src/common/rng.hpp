#pragma once

// Deterministic random number generation.
//
// Everything stochastic in taskpart (forest bagging, MLP init, synthetic
// workload data, noise injection) draws from tp::common::Rng so that runs
// are reproducible bit-for-bit from a seed. The generator is xoshiro256**,
// which is fast, has 256-bit state and passes BigCrush.
//
// Its state transition is linear over GF(2), so jump(k) moves the state k
// outputs ahead without producing them (see jump()). A consumer that needs
// output i of a stream without the ones before it keeps a copy of the
// generator at the stream's start and maps raw outputs itself, through the
// same helpers (toUnit, toUniform) that uniform() uses.

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace tp::common {

class Rng {
public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  /// Re-initialize state from a 64-bit seed via splitmix64 expansion.
  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : state_) {
      // splitmix64 step
      x += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    advance();
    return result;
  }

  /// Leaves the state exactly where k calls of operator() would.
  ///
  /// The transition T is linear over GF(2) with a degree-256
  /// characteristic polynomial P, so T^k = (x^k mod P)(T) (Haramoto et
  /// al., "Efficient jump ahead for F2-linear random number generators",
  /// 2008). The low 8 bits of k are stepped directly; each higher set bit
  /// i applies the precomputed x^(2^i) mod P, which costs 256 steps. A jump
  /// therefore costs at most 255 + 256 * popcount(k >> 8) steps, whatever
  /// the size of k. The first call in a process derives P (Berlekamp-Massey
  /// over one state bit) and the 64 powers, about 1 ms in an optimized
  /// build; that set-up is thread-safe.
  void jump(std::uint64_t k);

  /// x^(2^log2Steps) mod P: the polynomial whose application to the state
  /// advances it 2^log2Steps steps. Bit j % 64 of word j / 64 is the
  /// coefficient of x^j, the layout of xoshiro256's published JUMP
  /// constants (which are jumpPolynomial(128)).
  static std::array<std::uint64_t, 4> jumpPolynomial(unsigned log2Steps);

  /// The one mapping from a raw output to a double in [0, 1): its top 53
  /// bits. uniform() and every replay of raw outputs use it.
  static double toUnit(result_type bits) {
    return static_cast<double>(bits >> 11) * 0x1.0p-53;
  }

  /// The one mapping from a raw output to a double in [lo, hi).
  static double toUniform(result_type bits, double lo, double hi) {
    return lo + (hi - lo) * toUnit(bits);
  }

  /// Uniform double in [0, 1).
  double uniform() { return toUnit((*this)()); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return toUniform((*this)(), lo, hi); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    TP_ASSERT(n > 0);
    // Lemire's multiply-shift rejection method (unbiased).
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive, for any lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    TP_ASSERT(lo <= hi);
    // Unsigned arithmetic: hi - lo overflows int64 once the span exceeds
    // INT64_MAX, and the full 2^64 range has no below() bound.
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    const std::uint64_t offset = span == max() ? (*this)() : below(span + 1);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// Standard normal via Box-Muller.
  double gaussian() {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return r * std::cos(6.283185307179586 * u2);
  }

  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

  /// Derive an independent child generator (for per-task streams).
  Rng split() { return Rng((*this)()); }

private:
  /// The linear state transition T (operator() without its output).
  void advance() {
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
  }

  /// state <- c(T) state, for c of degree < 256 (256 steps).
  void apply(const std::array<std::uint64_t, 4>& c);

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace tp::common

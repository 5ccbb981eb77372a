#pragma once

// The process-local hash family: one word-at-a-time fold shared by the
// key hashers (runtime's launch key, the pair interner, the 128-bit launch
// fingerprint, fleet's gossip digests), so the constants, the fold step and
// the launch-key layout live in exactly one place. Nothing here is written
// to the wire or to a snapshot: values may change between builds.
//
// The fold takes one 64-bit word per step. A byte string is folded as its
// length and then its bytes in 8-byte words (the last one zero-padded):
// one multiply per 8 bytes.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tp::common {

inline constexpr std::uint64_t kHashSeed = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFoldMul = 0xff51afd7ed558ccdull;

/// One fold step: xor the word in, multiply by an odd constant, then
/// xor-shift the high half down (the multiply only carries bits upward).
/// For a fixed word every part is a bijection of the state, so no word can
/// erase what was folded before it (a multiply by the word itself would:
/// a zero word would zero the state).
inline constexpr std::uint64_t foldWord(std::uint64_t h, std::uint64_t w,
                                        std::uint64_t mul = kFoldMul) noexcept {
  h = (h ^ w) * mul;
  return h ^ (h >> 32);
}

inline constexpr std::uint64_t foldDouble(std::uint64_t h, double v) noexcept {
  return foldWord(h, std::bit_cast<std::uint64_t>(v));
}

/// Folds a byte stream that may arrive in pieces: the words folded depend
/// only on the concatenated bytes, never on where the pieces split, so a
/// joined string and its split form hash identically without the
/// concatenation ever being built.
class ByteFold {
public:
  explicit ByteFold(std::uint64_t h) noexcept : h_(h) {}

  ByteFold& bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (; n > 0 && pending_ != 0; ++p, --n) push(*p);  // top up first
    for (; n >= 8; p += 8, n -= 8) h_ = foldWord(h_, loadWord(p));
    for (; n > 0; ++p, --n) push(*p);
    return *this;
  }

  /// The state after the last (zero-padded) partial word.
  std::uint64_t finish() noexcept {
    if (pending_ != 0) flush();
    return h_;
  }

private:
  /// Little-endian, whatever the host. Spelled out byte by byte, the
  /// compiler merges it into one load where that is the host order.
  static std::uint64_t loadWord(const unsigned char* p) noexcept {
    return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
           std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
           std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
           std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
  }
  void push(unsigned char byte) noexcept {
    word_ |= std::uint64_t{byte} << (8 * pending_);
    if (++pending_ == 8) flush();
  }
  void flush() noexcept {
    h_ = foldWord(h_, word_);
    word_ = 0;
    pending_ = 0;
  }

  std::uint64_t h_;
  std::uint64_t word_ = 0;  ///< the partial word, filled from its low byte
  unsigned pending_ = 0;    ///< bytes in word_
};

/// Fold a length-delimited string: the length participates in the hash,
/// so adjacent variable-length fields cannot alias ("ab"+"c" vs "a"+"bc").
inline std::uint64_t foldString(std::uint64_t h, std::string_view s) noexcept {
  return ByteFold(foldWord(h, s.size())).bytes(s.data(), s.size()).finish();
}

inline std::uint64_t foldDoubles(std::uint64_t h,
                                 const std::vector<double>& values) noexcept {
  h = foldWord(h, values.size());
  for (const double v : values) h = foldDouble(h, v);
  return h;
}

/// Hash of the (machine, program, quantized launch signature) layout of
/// runtime::LaunchKey. Callers fold in any extra fields on top.
inline std::uint64_t hashLaunchKey(std::string_view machine,
                                   std::string_view program,
                                   const std::vector<double>& signature) {
  std::uint64_t h = kHashSeed;
  h = foldString(h, machine);
  h = foldString(h, program);
  h = foldDoubles(h, signature);
  return h;
}

/// splitmix64 finalizer: full-avalanche mix so every output bit depends on
/// every input bit. The fold's low bits are weak under power-of-two
/// masking; the open-addressing tables (decision cache, interner,
/// feedback dedup) mask hashes directly, so their hashes pass through this.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Avalanched hash of a (first, second) string pair. The split form takes
/// second as head + joiner + tail and equals hashPair(first, that
/// concatenation) without building it.
inline std::uint64_t hashPair(std::string_view first,
                              std::string_view second) noexcept {
  return mix64(foldString(foldString(kHashSeed, first), second));
}
inline std::uint64_t hashPair(std::string_view first, std::string_view head,
                              char joiner, std::string_view tail) noexcept {
  const std::uint64_t h =
      foldWord(foldString(kHashSeed, first), head.size() + 1 + tail.size());
  return mix64(ByteFold(h)
                   .bytes(head.data(), head.size())
                   .bytes(&joiner, 1)
                   .bytes(tail.data(), tail.size())
                   .finish());
}

/// 128-bit key fingerprint. Two fold streams over the same words, with
/// distinct seeds and multipliers, each avalanche-finalized; a collision
/// requires both streams to collide simultaneously. Used where the full
/// key is too expensive for the hot path (the serving decision cache, the
/// refiner's key table): readers compare fingerprints only, writers keep
/// the full key beside the table and verify it on insert.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct FingerprintHash {
  std::size_t operator()(const Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.lo);  // already avalanched
  }
};

/// Incremental Fingerprint builder: fold words in a fixed order, then
/// take(). Allocation-free; lives on the caller's stack.
class FingerprintBuilder {
public:
  static constexpr std::uint64_t kSeedB = kHashSeed ^ 0x9E3779B97F4A7C15ull;
  static constexpr std::uint64_t kMulB = 0xc4ceb9fe1a85ec53ull;

  FingerprintBuilder& u64(std::uint64_t v) noexcept {
    a_ = foldWord(a_, v);
    b_ = foldWord(b_, v, kMulB);
    return *this;
  }
  FingerprintBuilder& f64(double v) noexcept {
    return u64(std::bit_cast<std::uint64_t>(v));
  }

  Fingerprint take() const noexcept {
    return Fingerprint{mix64(b_), mix64(a_)};
  }

private:
  std::uint64_t a_ = kHashSeed;
  std::uint64_t b_ = kSeedB;
};

}  // namespace tp::common

#pragma once

// FNV-1a hashing primitives, shared by the key hashers (runtime's launch
// key, fleet's gossip digests) so hash constants, byte-folding logic and
// the launch-key layout live in exactly one place.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace tp::common {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline std::uint64_t fnvBytes(std::uint64_t h, const void* data,
                              std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnvU64(std::uint64_t h, std::uint64_t v) {
  return fnvBytes(h, &v, sizeof(v));
}

inline std::uint64_t fnvDouble(std::uint64_t h, double v) {
  return fnvU64(h, std::bit_cast<std::uint64_t>(v));
}

/// Fold a length-delimited string: the length participates in the hash,
/// so adjacent variable-length fields cannot alias ("ab"+"c" vs "a"+"bc").
inline std::uint64_t fnvString(std::uint64_t h, std::string_view s) {
  h = fnvU64(h, s.size());
  return fnvBytes(h, s.data(), s.size());
}

inline std::uint64_t fnvDoubles(std::uint64_t h,
                                const std::vector<double>& values) {
  h = fnvU64(h, values.size());
  for (const double v : values) h = fnvDouble(h, v);
  return h;
}

/// Hash of the (machine, program, quantized launch signature) layout of
/// runtime::LaunchKey. Callers fold in any extra fields on top.
inline std::uint64_t hashLaunchKey(std::string_view machine,
                                   std::string_view program,
                                   const std::vector<double>& signature) {
  std::uint64_t h = kFnvOffset;
  h = fnvString(h, machine);
  h = fnvString(h, program);
  h = fnvDoubles(h, signature);
  return h;
}

/// splitmix64 finalizer: full-avalanche mix so every output bit depends on
/// every input bit. FNV's low bits are weak under power-of-two masking;
/// the open-addressing decision cache masks the fingerprint directly, so
/// both fingerprint words pass through this.
inline constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// 128-bit key fingerprint. Two independently-seeded FNV-1a streams over
/// the same bytes, each avalanche-finalized; a collision requires both
/// streams to collide simultaneously. Used where the full key is too
/// expensive for the hot path (the serving decision cache, the refiner's
/// key table): readers compare fingerprints only, writers keep the full
/// key beside the table and verify it on insert.
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

/// Incremental Fingerprint builder: fold fields in a fixed order, then
/// take(). Allocation-free; lives on the caller's stack.
class FingerprintBuilder {
public:
  static constexpr std::uint64_t kOffsetB = kFnvOffset ^ 0x9E3779B97F4A7C15ull;

  FingerprintBuilder& u64(std::uint64_t v) noexcept {
    a_ = fnvU64(a_, v);
    b_ = fnvU64(b_, v);
    return *this;
  }
  FingerprintBuilder& f64(double v) noexcept {
    return u64(std::bit_cast<std::uint64_t>(v));
  }
  FingerprintBuilder& str(std::string_view s) noexcept {
    a_ = fnvString(a_, s);
    b_ = fnvString(b_, s);
    return *this;
  }

  Fingerprint take() const noexcept {
    return Fingerprint{mix64(b_), mix64(a_)};
  }

private:
  std::uint64_t a_ = kFnvOffset;
  std::uint64_t b_ = kOffsetB;
};

}  // namespace tp::common

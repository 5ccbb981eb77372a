#pragma once

// Shared helpers for benchmark definitions: deterministic input generation
// and result verification.
//
// Input buffers are generated lazily. Element i of a drawn buffer is a pure
// function of output i of the caller's stream (counted from the buffer's
// creation), so creating one only jumps the caller's Rng past its n
// outputs (Rng::jump, O(log n)), and the fill replays those outputs from a
// copy on the buffer's first data access (or pristine()). Later draws from
// the same stream, and the values a kernel sees, are what an eager fill at
// creation would have produced, while set-up never touches element values
// and TimeOnly runs never allocate element memory.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ocl/buffer.hpp"

namespace tp::suite {

/// Deterministic per-benchmark seed derived from (name, problem size).
std::uint64_t instanceSeed(const std::string& name, std::size_t n);

/// A buffer of n elements whose element i is draw(bits_i, i), bits_i the
/// i-th raw 64-bit output of the caller's stream from here on. Creation
/// leaves rng exactly n outputs further on, without drawing them (see the
/// header comment). draw must be a pure function of its arguments and
/// spend exactly one output per element; map bits through Rng::toUniform
/// or drawInt so the values equal what the stream's own uniform()/range()
/// draws would give.
template <typename T, typename Draw>
std::shared_ptr<vcl::Buffer> drawnBuffer(std::size_t n, common::Rng& rng,
                                         Draw draw) {
  const common::Rng start = rng;
  rng.jump(n);
  return std::make_shared<vcl::Buffer>(
      vcl::elemKindOf<T>(), n, [start, n, draw](void* storage) {
        common::Rng replay = start;
        T* out = static_cast<T*>(storage);
        for (std::size_t i = 0; i < n; ++i) out[i] = draw(replay(), i);
      });
}

/// lo + floor(bits * span / 2^64), span = hi - lo + 1: a uniform integer in
/// [lo, hi] from exactly one output. It equals Rng::range(lo, hi) on the
/// same output unless range() rejects that output and draws again, which
/// happens with probability below span / 2^64 (< 2^-32 for any int span).
/// The multiply-shift's bias is bounded the same way: no value is more
/// likely than another by more than 2^-64 in absolute probability.
inline int drawInt(std::uint64_t bits, int lo, int hi) {
  const auto span = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(hi) - static_cast<std::int64_t>(lo) + 1);
  const auto offset = static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(bits) * span) >> 64);
  return static_cast<int>(static_cast<std::int64_t>(lo) +
                          static_cast<std::int64_t>(offset));
}

/// Element i is uniform(lo, hi) of output i; see drawnBuffer.
std::shared_ptr<vcl::Buffer> randomFloatBuffer(std::size_t n,
                                               common::Rng& rng,
                                               float lo = -1.0f,
                                               float hi = 1.0f);
/// Element i is drawInt(output i, lo, hi) in [lo, hi]; see drawnBuffer.
std::shared_ptr<vcl::Buffer> randomIntBuffer(std::size_t n, common::Rng& rng,
                                             int lo, int hi);
/// CSR row pointers (rows + 1 ints from 0) for rows of minPerRow..maxPerRow
/// entries each; *entries receives the total entry count. The count sizes
/// the next buffer, so creation draws every row (range()) and the fill
/// replays them: one serial pass, about 1/9 of a CSR's draws.
std::shared_ptr<vcl::Buffer> randomRowPtrBuffer(std::size_t rows,
                                                common::Rng& rng,
                                                int minPerRow, int maxPerRow,
                                                std::size_t* entries);
std::shared_ptr<vcl::Buffer> zeroFloatBuffer(std::size_t n);
std::shared_ptr<vcl::Buffer> zeroIntBuffer(std::size_t n);

/// Element-wise comparison with mixed absolute/relative tolerance.
bool verifyFloat(const vcl::Buffer& actual, const std::vector<float>& expected,
                 double tolerance, std::string* error);
bool verifyInt(const vcl::Buffer& actual, const std::vector<int>& expected,
               std::string* error);

}  // namespace tp::suite

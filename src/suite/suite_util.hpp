#pragma once

// Shared helpers for benchmark definitions: deterministic input generation
// and result verification.
//
// Input buffers are generated lazily: creating one advances the caller's
// Rng by exactly the draws its fill makes, and the fill itself replays those
// draws from a copy on the buffer's first data access (or pristine()). So
// later draws from the same stream, and the values a kernel sees, are what
// an eager fill at creation would have produced, while TimeOnly runs never
// allocate element memory.

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ocl/buffer.hpp"

namespace tp::suite {

/// Deterministic per-benchmark seed derived from (name, problem size).
std::uint64_t instanceSeed(const std::string& name, std::size_t n);

/// A buffer of n elements whose element i is draw(rng, i), drawn in index
/// order from the caller's stream (see the header comment).
template <typename T, typename Draw>
std::shared_ptr<vcl::Buffer> drawnBuffer(std::size_t n, common::Rng& rng,
                                         Draw draw) {
  const common::Rng start = rng;
  for (std::size_t i = 0; i < n; ++i) static_cast<void>(draw(rng, i));
  return std::make_shared<vcl::Buffer>(
      vcl::elemKindOf<T>(), n, [start, n, draw](void* storage) {
        common::Rng replay = start;
        T* out = static_cast<T*>(storage);
        for (std::size_t i = 0; i < n; ++i) out[i] = draw(replay, i);
      });
}

std::shared_ptr<vcl::Buffer> randomFloatBuffer(std::size_t n,
                                               common::Rng& rng,
                                               float lo = -1.0f,
                                               float hi = 1.0f);
std::shared_ptr<vcl::Buffer> randomIntBuffer(std::size_t n, common::Rng& rng,
                                             int lo, int hi);
/// CSR row pointers (rows + 1 ints from 0) for rows of minPerRow..maxPerRow
/// entries each; *entries receives the total entry count.
std::shared_ptr<vcl::Buffer> randomRowPtrBuffer(std::size_t rows,
                                                common::Rng& rng,
                                                int minPerRow, int maxPerRow,
                                                std::size_t* entries);
std::shared_ptr<vcl::Buffer> zeroFloatBuffer(std::size_t n);
std::shared_ptr<vcl::Buffer> zeroIntBuffer(std::size_t n);
std::shared_ptr<vcl::Buffer> zeroUIntBuffer(std::size_t n);

/// Element-wise comparison with mixed absolute/relative tolerance.
bool verifyFloat(const vcl::Buffer& actual, const std::vector<float>& expected,
                 double tolerance, std::string* error);
bool verifyInt(const vcl::Buffer& actual, const std::vector<int>& expected,
               std::string* error);
bool verifyUInt(const vcl::Buffer& actual,
                const std::vector<unsigned>& expected, std::string* error);

}  // namespace tp::suite

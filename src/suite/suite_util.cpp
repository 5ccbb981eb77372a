#include "suite/suite_util.hpp"

#include <cmath>
#include <sstream>

namespace tp::suite {

std::uint64_t instanceSeed(const std::string& name, std::size_t n) {
  // FNV-1a over the name, mixed with the size.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= static_cast<std::uint64_t>(n) * 0x9E3779B97F4A7C15ull;
  return h;
}

std::shared_ptr<vcl::Buffer> randomFloatBuffer(std::size_t n,
                                               common::Rng& rng, float lo,
                                               float hi) {
  return drawnBuffer<float>(n, rng, [lo, hi](std::uint64_t bits, std::size_t) {
    return static_cast<float>(common::Rng::toUniform(bits, lo, hi));
  });
}

std::shared_ptr<vcl::Buffer> randomIntBuffer(std::size_t n, common::Rng& rng,
                                             int lo, int hi) {
  TP_ASSERT(lo <= hi);
  return drawnBuffer<int>(n, rng, [lo, hi](std::uint64_t bits, std::size_t) {
    return drawInt(bits, lo, hi);
  });
}

std::shared_ptr<vcl::Buffer> randomRowPtrBuffer(std::size_t rows,
                                                common::Rng& rng,
                                                int minPerRow, int maxPerRow,
                                                std::size_t* entries) {
  const common::Rng start = rng;
  std::size_t total = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    total += static_cast<std::size_t>(rng.range(minPerRow, maxPerRow));
  }
  *entries = total;
  return std::make_shared<vcl::Buffer>(
      vcl::ElemKind::I32, rows + 1,
      [start, rows, minPerRow, maxPerRow](void* storage) {
        common::Rng replay = start;
        int* out = static_cast<int*>(storage);
        for (std::size_t r = 0; r < rows; ++r) {
          out[r + 1] =
              out[r] + static_cast<int>(replay.range(minPerRow, maxPerRow));
        }
      });
}

std::shared_ptr<vcl::Buffer> zeroFloatBuffer(std::size_t n) {
  return std::make_shared<vcl::Buffer>(vcl::ElemKind::F32, n);
}

std::shared_ptr<vcl::Buffer> zeroIntBuffer(std::size_t n) {
  return std::make_shared<vcl::Buffer>(vcl::ElemKind::I32, n);
}

bool verifyFloat(const vcl::Buffer& actual, const std::vector<float>& expected,
                 double tolerance, std::string* error) {
  if (actual.size() != expected.size()) {
    if (error != nullptr) *error = "size mismatch";
    return false;
  }
  const float* a = actual.data<float>();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const double diff = std::fabs(static_cast<double>(a[i]) - expected[i]);
    const double scale = std::max(1.0, std::fabs(static_cast<double>(expected[i])));
    // A NaN on either side is a mismatch: with a NaN reference, diff and
    // scale would swallow it and every value would pass.
    if (std::isnan(a[i]) || std::isnan(expected[i]) ||
        diff > tolerance * scale) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "element " << i << ": got " << a[i] << ", expected "
           << expected[i] << " (tolerance " << tolerance << ")";
        *error = os.str();
      }
      return false;
    }
  }
  return true;
}

bool verifyInt(const vcl::Buffer& actual, const std::vector<int>& expected,
               std::string* error) {
  if (actual.size() != expected.size()) {
    if (error != nullptr) *error = "size mismatch";
    return false;
  }
  const int* a = actual.data<int>();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (a[i] != expected[i]) {
      if (error != nullptr) {
        std::ostringstream os;
        os << "element " << i << ": got " << a[i] << ", expected "
           << expected[i];
        *error = os.str();
      }
      return false;
    }
  }
  return true;
}

}  // namespace tp::suite

// PolyBench-GPU family: conv2d (3x3 convolution), bicg (column-access GEMV).

#include <cmath>

#include "suite/benchmark.hpp"
#include "suite/suite_util.hpp"

namespace tp::suite {

using runtime::CompiledKernel;
using runtime::TaskBuilder;
using vcl::LaunchArgs;
using vcl::WorkGroupCtx;

namespace {

// ---------------------------------------------------------------------------
// conv2d — 3x3 convolution with interior guard.
// ---------------------------------------------------------------------------

Benchmark makeConv2d() {
  const char* src = R"(
__kernel void conv2d(__global const float* in, __global const float* coef,
                     __global float* out, int width, int height) {
  int idx = get_global_id(0);
  int x = idx % width;
  int y = idx / width;
  float acc = 0.0f;
  if (x > 0 && x < width - 1 && y > 0 && y < height - 1) {
    for (int ky = 0; ky < 3; ky++) {
      for (int kx = 0; kx < 3; kx++) {
        acc += in[idx + (ky - 1) * width + (kx - 1)] * coef[ky * 3 + kx];
      }
    }
  }
  out[idx] = acc;
}
)";
  Benchmark bench{"conv2d", "polybench", CompiledKernel::compile(src),
                  {128, 256, 384, 512, 768, 1024},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t edge) {
    const std::size_t n = edge * edge;
    common::Rng rng(instanceSeed("conv2d", edge));
    auto in = randomFloatBuffer(n, rng);
    auto coef = randomFloatBuffer(9, rng);
    auto out = zeroFloatBuffer(n);

    auto convAt = [](const std::vector<float>& in,
                     const std::vector<float>& coef, std::size_t idx,
                     std::size_t width, std::size_t height) {
      const std::size_t x = idx % width;
      const std::size_t y = idx / width;
      float acc = 0.0f;
      if (x > 0 && x < width - 1 && y > 0 && y < height - 1) {
        for (int ky = 0; ky < 3; ++ky) {
          for (int kx = 0; kx < 3; ++kx) {
            acc += in[idx + static_cast<std::size_t>(
                                static_cast<long>((ky - 1)) *
                                    static_cast<long>(width) +
                                (kx - 1))] *
                   coef[static_cast<std::size_t>(ky * 3 + kx)];
          }
        }
      }
      return acc;
    };

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "conv2d")
            .global(n)
            .local(64)
            .arg(in)
            .arg(coef)
            .arg(out)
            .arg(static_cast<int>(edge))
            .arg(static_cast<int>(edge))
            .native([convAt](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto in = args.view<float>(0);
              auto coef = args.view<float>(1);
              auto out = args.view<float>(2);
              const auto width = static_cast<std::size_t>(args.scalarInt(3));
              const auto height = static_cast<std::size_t>(args.scalarInt(4));
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t idx = wg.globalId(l);
                const std::size_t x = idx % width;
                const std::size_t y = idx / width;
                float acc = 0.0f;
                if (x > 0 && x < width - 1 && y > 0 && y < height - 1) {
                  for (int ky = 0; ky < 3; ++ky) {
                    for (int kx = 0; kx < 3; ++kx) {
                      const long off = static_cast<long>(ky - 1) *
                                           static_cast<long>(width) +
                                       (kx - 1);
                      acc += in[static_cast<std::size_t>(
                                 static_cast<long>(idx) + off)] *
                             coef[static_cast<std::size_t>(ky * 3 + kx)];
                    }
                  }
                }
                out[idx] = acc;
              }
            })
            .build();
    inst.verify = [out, in, coef, edge, convAt](std::string* error) {
      const auto in0 = in->pristine<float>();
      const auto c0 = coef->pristine<float>();
      const std::size_t n = edge * edge;
      std::vector<float> expected(n);
      for (std::size_t idx = 0; idx < n; ++idx) {
        expected[idx] = convAt(in0, c0, idx, edge, edge);
      }
      return verifyFloat(*out, expected, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// bicg — s = Aᵀ r: column-major access pattern (one column per work item).
// ---------------------------------------------------------------------------

Benchmark makeBicg() {
  const char* src = R"(
__kernel void bicg(__global const float* A, __global const float* r,
                   __global float* s, int rows, int cols) {
  int j = get_global_id(0);
  float acc = 0.0f;
  for (int i = 0; i < rows; i++) {
    acc += A[i * cols + j] * r[i];
  }
  s[j] = acc;
}
)";
  constexpr std::size_t kRows = 256;
  Benchmark bench{"bicg", "polybench", CompiledKernel::compile(src),
                  {1u << 10, 1u << 12, 1u << 13, 1u << 14, 1u << 15, 1u << 16},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t cols) {
    common::Rng rng(instanceSeed("bicg", cols));
    auto A = randomFloatBuffer(kRows * cols, rng);
    auto r = randomFloatBuffer(kRows, rng);
    auto s = zeroFloatBuffer(cols);

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "bicg")
            .global(cols)
            .local(64)
            .arg(A)
            .arg(r)
            .arg(s)
            .arg(static_cast<int>(kRows))
            .arg(static_cast<int>(cols))
            .transferAmortization(10.0)  // BiCG solver iterations
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto A = args.view<float>(0);
              auto r = args.view<float>(1);
              auto s = args.view<float>(2);
              const int rows = args.scalarInt(3);
              const int cols = args.scalarInt(4);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t j = wg.globalId(l);
                float acc = 0.0f;
                for (int i = 0; i < rows; ++i) {
                  acc += A[static_cast<std::size_t>(i) *
                               static_cast<std::size_t>(cols) +
                           j] *
                         r[static_cast<std::size_t>(i)];
                }
                s[j] = acc;
              }
            })
            .build();
    inst.verify = [s, A, r, cols](std::string* error) {
      const auto A0 = A->pristine<float>();
      const auto r0 = r->pristine<float>();
      std::vector<float> expected(cols);
      for (std::size_t j = 0; j < cols; ++j) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < kRows; ++i) {
          acc += A0[i * cols + j] * r0[i];
        }
        expected[j] = acc;
      }
      return verifyFloat(*s, expected, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

}  // namespace

std::vector<Benchmark> makePolybenchBenchmarks() {
  std::vector<Benchmark> out;
  out.push_back(makeConv2d());
  out.push_back(makeBicg());
  return out;
}

}  // namespace tp::suite

// Vendor-sample family: vecadd, saxpy, dotprod, matmul, matvec,
// blackscholes, mandelbrot, histogram, nbody.

#include <cmath>
#include <memory>

#include "suite/benchmark.hpp"
#include "suite/suite_util.hpp"

namespace tp::suite {

using runtime::CompiledKernel;
using runtime::TaskBuilder;
using vcl::LaunchArgs;
using vcl::WorkGroupCtx;

namespace {

// ---------------------------------------------------------------------------
// vecadd — the canonical memory-bound streaming kernel.
// ---------------------------------------------------------------------------

Benchmark makeVecadd() {
  const char* src = R"(
__kernel void vecadd(__global const float* a, __global const float* b,
                     __global float* c, int n) {
  int i = get_global_id(0);
  if (i < n) {
    c[i] = a[i] + b[i];
  }
}
)";
  Benchmark bench{"vecadd", "vendor", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20, 1u << 22},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("vecadd", n));
    auto a = randomFloatBuffer(n, rng);
    auto b = randomFloatBuffer(n, rng);
    auto c = zeroFloatBuffer(n);

    BenchmarkInstance inst;
    inst.task = TaskBuilder(compiled, "vecadd")
                    .global(n)
                    .local(64)
                    .arg(a)
                    .arg(b)
                    .arg(c)
                    .arg(static_cast<int>(n))
                    .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
                      auto a = args.view<float>(0);
                      auto b = args.view<float>(1);
                      auto c = args.view<float>(2);
                      const int n = args.scalarInt(3);
                      for (std::size_t l = 0; l < wg.localSize; ++l) {
                        const std::size_t i = wg.globalId(l);
                        if (static_cast<int>(i) < n) c[i] = a[i] + b[i];
                      }
                    })
                    .build();
    inst.verify = [c, a, b](std::string* error) {
      const auto a0 = a->pristine<float>();
      const auto b0 = b->pristine<float>();
      std::vector<float> expected(a0.size());
      for (std::size_t i = 0; i < a0.size(); ++i) expected[i] = a0[i] + b0[i];
      return verifyFloat(*c, expected, 1e-6, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// saxpy — streaming with a read-modify-write output.
// ---------------------------------------------------------------------------

Benchmark makeSaxpy() {
  const char* src = R"(
__kernel void saxpy(__global const float* x, __global float* y,
                    float alpha, int n) {
  int i = get_global_id(0);
  if (i < n) {
    y[i] = alpha * x[i] + y[i];
  }
}
)";
  Benchmark bench{"saxpy", "vendor", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20, 1u << 22},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("saxpy", n));
    auto x = randomFloatBuffer(n, rng);
    auto y = randomFloatBuffer(n, rng);
    const float alpha = 2.5f;

    BenchmarkInstance inst;
    inst.task = TaskBuilder(compiled, "saxpy")
                    .global(n)
                    .local(64)
                    .arg(x)
                    .arg(y)
                    .arg(alpha)
                    .arg(static_cast<int>(n))
                    .transferAmortization(10.0)  // AXPY inside iterative solvers
                    .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
                      auto x = args.view<float>(0);
                      auto y = args.view<float>(1);
                      const float alpha = args.scalarFloat(2);
                      const int n = args.scalarInt(3);
                      for (std::size_t l = 0; l < wg.localSize; ++l) {
                        const std::size_t i = wg.globalId(l);
                        if (static_cast<int>(i) < n) y[i] = alpha * x[i] + y[i];
                      }
                    })
                    .build();
    inst.verify = [y, x, alpha](std::string* error) {
      const auto x0 = x->pristine<float>();
      const auto y0 = y->pristine<float>();
      std::vector<float> expected(x0.size());
      for (std::size_t i = 0; i < x0.size(); ++i) {
        expected[i] = alpha * x0[i] + y0[i];
      }
      return verifyFloat(*y, expected, 1e-6, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// dotprod — per-group tree reduction in __local memory with barriers.
// ---------------------------------------------------------------------------

Benchmark makeDotprod() {
  const char* src = R"(
__kernel void dotprod(__global const float* a, __global const float* b,
                      __global float* partial, __local float* scratch,
                      int n) {
  int gid = get_global_id(0);
  int lid = get_local_id(0);
  float v = 0.0f;
  if (gid < n) {
    v = a[gid] * b[gid];
  }
  scratch[lid] = v;
  barrier(CLK_LOCAL_MEM_FENCE);
  int s = get_local_size(0) / 2;
  while (s > 0) {
    if (lid < s) {
      scratch[lid] = scratch[lid] + scratch[lid + s];
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    s = s / 2;
  }
  if (lid == 0) {
    partial[get_group_id(0)] = scratch[0];
  }
}
)";
  constexpr std::size_t kLocal = 128;
  Benchmark bench{"dotprod", "vendor", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20, 1u << 22},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("dotprod", n));
    auto a = randomFloatBuffer(n, rng);
    auto b = randomFloatBuffer(n, rng);
    const std::size_t groups = n / kLocal;
    auto partial = zeroFloatBuffer(groups);
    auto scratchDummy = zeroFloatBuffer(kLocal);  // __local placeholder

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "dotprod")
            .global(n)
            .local(kLocal)
            .arg(a)
            .arg(b)
            .arg(partial)
            .arg(scratchDummy)
            .arg(static_cast<int>(n))
            // Tree-reduction runs log2(localSize) iterations.
            .bind(features::kUnknownTripParam, 7.0)
            .transferAmortization(10.0)  // dot products inside CG-style solvers
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto a = args.view<float>(0);
              auto b = args.view<float>(1);
              auto partial = args.view<float>(2);
              const int n = args.scalarInt(4);
              // Private per-group scratch (the __local argument is a
              // placeholder; concurrent groups must not share storage).
              std::vector<float> scratch(wg.localSize, 0.0f);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t gid = wg.globalId(l);
                scratch[l] =
                    static_cast<int>(gid) < n ? a[gid] * b[gid] : 0.0f;
              }
              for (std::size_t s = wg.localSize / 2; s > 0; s /= 2) {
                for (std::size_t l = 0; l < s; ++l) {
                  scratch[l] = scratch[l] + scratch[l + s];
                }
              }
              partial[wg.groupId] = scratch[0];
            })
            .build();
    inst.verify = [partial, a, b](std::string* error) {
      const auto a0 = a->pristine<float>();
      const auto b0 = b->pristine<float>();
      const std::size_t groups = partial->size();
      const std::size_t local = a0.size() / groups;
      std::vector<float> expected(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        std::vector<float> scratch(local);
        for (std::size_t l = 0; l < local; ++l) {
          const std::size_t i = g * local + l;
          scratch[l] = a0[i] * b0[i];
        }
        for (std::size_t s = local / 2; s > 0; s /= 2) {
          for (std::size_t l = 0; l < s; ++l) {
            scratch[l] = scratch[l] + scratch[l + s];
          }
        }
        expected[g] = scratch[0];
      }
      return verifyFloat(*partial, expected, 1e-5, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// matmul — dense SGEMM over a 1-D index space (one output element per item).
// ---------------------------------------------------------------------------

Benchmark makeMatmul() {
  const char* src = R"(
__kernel void matmul(__global const float* A, __global const float* B,
                     __global float* C, int N, int K) {
  int idx = get_global_id(0);
  int row = idx / N;
  int col = idx % N;
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    acc += A[row * K + k] * B[k * N + col];
  }
  C[idx] = acc;
}
)";
  Benchmark bench{"matmul", "vendor", CompiledKernel::compile(src),
                  {64, 128, 192, 256, 384, 512},  // matrix dimension
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("matmul", n));
    auto A = randomFloatBuffer(n * n, rng);
    auto B = randomFloatBuffer(n * n, rng);
    auto C = zeroFloatBuffer(n * n);

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "matmul")
            .global(n * n)
            .local(64)
            .arg(A)
            .arg(B)
            .arg(C)
            .arg(static_cast<int>(n))
            .arg(static_cast<int>(n))
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto A = args.view<float>(0);
              auto B = args.view<float>(1);
              auto C = args.view<float>(2);
              const int N = args.scalarInt(3);
              const int K = args.scalarInt(4);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t idx = wg.globalId(l);
                const std::size_t row = idx / static_cast<std::size_t>(N);
                const std::size_t col = idx % static_cast<std::size_t>(N);
                float acc = 0.0f;
                for (int k = 0; k < K; ++k) {
                  acc += A[row * static_cast<std::size_t>(K) +
                           static_cast<std::size_t>(k)] *
                         B[static_cast<std::size_t>(k) *
                               static_cast<std::size_t>(N) +
                           col];
                }
                C[idx] = acc;
              }
            })
            .build();
    inst.verify = [C, A, B, n](std::string* error) {
      const auto A0 = A->pristine<float>();
      const auto B0 = B->pristine<float>();
      std::vector<float> expected(n * n);
      for (std::size_t idx = 0; idx < n * n; ++idx) {
        const std::size_t row = idx / n;
        const std::size_t col = idx % n;
        float acc = 0.0f;
        for (std::size_t k = 0; k < n; ++k) {
          acc += A0[row * n + k] * B0[k * n + col];
        }
        expected[idx] = acc;
      }
      return verifyFloat(*C, expected, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// matvec — row-parallel GEMV with a fixed 256-column matrix.
// ---------------------------------------------------------------------------

Benchmark makeMatvec() {
  const char* src = R"(
__kernel void matvec(__global const float* A, __global const float* x,
                     __global float* y, int cols) {
  int row = get_global_id(0);
  float acc = 0.0f;
  for (int j = 0; j < cols; j++) {
    acc += A[row * cols + j] * x[j];
  }
  y[row] = acc;
}
)";
  constexpr std::size_t kCols = 256;
  Benchmark bench{"matvec", "vendor", CompiledKernel::compile(src),
                  {1u << 10, 1u << 12, 1u << 13, 1u << 14, 1u << 15, 1u << 16},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("matvec", n));
    auto A = randomFloatBuffer(n * kCols, rng);
    auto x = randomFloatBuffer(kCols, rng);
    auto y = zeroFloatBuffer(n);

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "matvec")
            .global(n)
            .local(64)
            .arg(A)
            .arg(x)
            .arg(y)
            .arg(static_cast<int>(kCols))
            .transferAmortization(10.0)  // GEMV is the CG/GMRES inner kernel
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto A = args.view<float>(0);
              auto x = args.view<float>(1);
              auto y = args.view<float>(2);
              const int cols = args.scalarInt(3);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t row = wg.globalId(l);
                float acc = 0.0f;
                for (int j = 0; j < cols; ++j) {
                  acc += A[row * static_cast<std::size_t>(cols) +
                           static_cast<std::size_t>(j)] *
                         x[static_cast<std::size_t>(j)];
                }
                y[row] = acc;
              }
            })
            .build();
    inst.verify = [y, A, x, n](std::string* error) {
      const auto A0 = A->pristine<float>();
      const auto x0 = x->pristine<float>();
      std::vector<float> expected(n);
      for (std::size_t row = 0; row < n; ++row) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < kCols; ++j) {
          acc += A0[row * kCols + j] * x0[j];
        }
        expected[row] = acc;
      }
      return verifyFloat(*y, expected, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// blackscholes — transcendental-heavy option pricing.
// ---------------------------------------------------------------------------

/// Cumulative normal distribution, Abramowitz–Stegun polynomial — float
/// semantics shared by the native kernel and the verifier.
float cndF(float d) {
  const float k = 1.0f / (1.0f + 0.2316419f * std::fabs(d));
  const float poly =
      k * (0.31938153f +
           k * (-0.356563782f +
                k * (1.781477937f + k * (-1.821255978f + k * 1.330274429f))));
  const float cnd = 0.39894228f * std::exp(-0.5f * d * d) * poly;
  return d > 0.0f ? 1.0f - cnd : cnd;
}

Benchmark makeBlackscholes() {
  const char* src = R"(
__kernel void blackscholes(__global const float* sp, __global const float* xp,
                           __global const float* tp, __global float* call,
                           __global float* put, float r, float v, int n) {
  int i = get_global_id(0);
  if (i < n) {
    float s = sp[i];
    float x = xp[i];
    float t = tp[i];
    float sq = sqrt(t);
    float d1 = (log(s / x) + (r + v * v * 0.5f) * t) / (v * sq);
    float d2 = d1 - v * sq;

    float k1 = 1.0f / (1.0f + 0.2316419f * fabs(d1));
    float p1 = k1 * (0.31938153f + k1 * (-0.356563782f + k1 * (1.781477937f
             + k1 * (-1.821255978f + k1 * 1.330274429f))));
    float c1 = 0.39894228f * exp(-0.5f * d1 * d1) * p1;
    if (d1 > 0.0f) {
      c1 = 1.0f - c1;
    }
    float k2 = 1.0f / (1.0f + 0.2316419f * fabs(d2));
    float p2 = k2 * (0.31938153f + k2 * (-0.356563782f + k2 * (1.781477937f
             + k2 * (-1.821255978f + k2 * 1.330274429f))));
    float c2 = 0.39894228f * exp(-0.5f * d2 * d2) * p2;
    if (d2 > 0.0f) {
      c2 = 1.0f - c2;
    }
    float expRT = exp(0.0f - r * t);
    call[i] = s * c1 - x * expRT * c2;
    put[i] = x * expRT * (1.0f - c2) - s * (1.0f - c1);
  }
}
)";
  Benchmark bench{"blackscholes", "vendor", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20, 1u << 21},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("blackscholes", n));
    auto sp = randomFloatBuffer(n, rng, 10.0f, 100.0f);
    auto xp = randomFloatBuffer(n, rng, 10.0f, 100.0f);
    auto t = randomFloatBuffer(n, rng, 0.2f, 5.0f);
    auto call = zeroFloatBuffer(n);
    auto put = zeroFloatBuffer(n);
    const float r = 0.02f;
    const float v = 0.30f;

    auto priceOne = [](float s, float x, float tt, float r, float v,
                       float* outCall, float* outPut) {
      const float sq = std::sqrt(tt);
      const float d1 =
          (std::log(s / x) + (r + v * v * 0.5f) * tt) / (v * sq);
      const float d2 = d1 - v * sq;
      const float c1 = cndF(d1);
      const float c2 = cndF(d2);
      const float expRT = std::exp(-r * tt);
      *outCall = s * c1 - x * expRT * c2;
      *outPut = x * expRT * (1.0f - c2) - s * (1.0f - c1);
    };

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "blackscholes")
            .global(n)
            .local(64)
            .arg(sp)
            .arg(xp)
            .arg(t)
            .arg(call)
            .arg(put)
            .arg(r)
            .arg(v)
            .arg(static_cast<int>(n))
            // Vendor sample semantics: the pricing kernel re-runs many times
            // per measurement with resident option data.
            .transferAmortization(50.0)
            .native([priceOne](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto sp = args.view<float>(0);
              auto xp = args.view<float>(1);
              auto tp = args.view<float>(2);
              auto call = args.view<float>(3);
              auto put = args.view<float>(4);
              const float r = args.scalarFloat(5);
              const float v = args.scalarFloat(6);
              const int n = args.scalarInt(7);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t i = wg.globalId(l);
                if (static_cast<int>(i) >= n) continue;
                float c, p;
                priceOne(sp[i], xp[i], tp[i], r, v, &c, &p);
                call[i] = c;
                put[i] = p;
              }
            })
            .build();
    inst.verify = [call, put, sp, xp, t, r, v, priceOne](std::string* error) {
      const auto s0 = sp->pristine<float>();
      const auto x0 = xp->pristine<float>();
      const auto t0 = t->pristine<float>();
      std::vector<float> expectedCall(s0.size()), expectedPut(s0.size());
      for (std::size_t i = 0; i < s0.size(); ++i) {
        priceOne(s0[i], x0[i], t0[i], r, v, &expectedCall[i], &expectedPut[i]);
      }
      return verifyFloat(*call, expectedCall, 1e-4, error) &&
             verifyFloat(*put, expectedPut, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// mandelbrot — divergent while loop, branch-heavy.
// ---------------------------------------------------------------------------

Benchmark makeMandelbrot() {
  const char* src = R"(
__kernel void mandelbrot(__global float* out, int width, int maxIter) {
  int idx = get_global_id(0);
  int px = idx % width;
  int py = idx / width;
  float x0 = -2.0f + 3.0f * (float)px / (float)width;
  float y0 = -1.25f + 2.5f * (float)py / (float)width;
  float x = 0.0f;
  float y = 0.0f;
  int iter = 0;
  while (iter < maxIter && x * x + y * y < 4.0f) {
    float xt = x * x - y * y + x0;
    y = 2.0f * x * y + y0;
    x = xt;
    iter++;
  }
  out[idx] = (float)iter;
}
)";
  Benchmark bench{"mandelbrot", "vendor", CompiledKernel::compile(src),
                  {64, 128, 256, 512, 768, 1024},  // image width (square)
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t width) {
    const std::size_t n = width * width;
    auto out = zeroFloatBuffer(n);
    const int maxIter = 128;

    auto iterate = [](std::size_t idx, std::size_t width, int maxIter) {
      const std::size_t px = idx % width;
      const std::size_t py = idx / width;
      const float x0 =
          -2.0f + 3.0f * static_cast<float>(px) / static_cast<float>(width);
      const float y0 =
          -1.25f + 2.5f * static_cast<float>(py) / static_cast<float>(width);
      float x = 0.0f, y = 0.0f;
      int iter = 0;
      while (iter < maxIter && x * x + y * y < 4.0f) {
        const float xt = x * x - y * y + x0;
        y = 2.0f * x * y + y0;
        x = xt;
        ++iter;
      }
      return static_cast<float>(iter);
    };

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "mandelbrot")
            .global(n)
            .local(64)
            .arg(out)
            .arg(static_cast<int>(width))
            .arg(maxIter)
            // Average escape-loop trip count over the rendered region — a
            // measured runtime feature (the loop bound is data dependent).
            .bind(features::kUnknownTripParam, 32.0)
            .native([iterate](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto out = args.view<float>(0);
              const int width = args.scalarInt(1);
              const int maxIter = args.scalarInt(2);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t idx = wg.globalId(l);
                out[idx] = iterate(idx, static_cast<std::size_t>(width),
                                   maxIter);
              }
            })
            .build();
    inst.verify = [out, width, maxIter, iterate](std::string* error) {
      const std::size_t n = width * width;
      std::vector<float> expected(n);
      for (std::size_t idx = 0; idx < n; ++idx) {
        expected[idx] = iterate(idx, width, maxIter);
      }
      return verifyFloat(*out, expected, 0.0, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// histogram — atomic scatter into shared bins.
// ---------------------------------------------------------------------------

Benchmark makeHistogram() {
  const char* src = R"(
__kernel void histogram(__global const int* data, __global int* bins,
                        int n, int numBins) {
  int i = get_global_id(0);
  if (i < n) {
    int b = data[i] % numBins;
    if (b < 0) {
      b = b + numBins;
    }
    atomic_add(bins[b], 1);
  }
}
)";
  constexpr int kBins = 256;
  Benchmark bench{"histogram", "vendor", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20, 1u << 22},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("histogram", n));
    auto data = randomIntBuffer(n, rng, 0, 1 << 20);
    auto bins = zeroIntBuffer(kBins);

    BenchmarkInstance inst;
    inst.task = TaskBuilder(compiled, "histogram")
                    .global(n)
                    .local(64)
                    .arg(data)
                    .arg(bins)
                    .arg(static_cast<int>(n))
                    .arg(kBins)
                    .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
                      auto data = args.view<int>(0);
                      auto bins = args.view<int>(1);
                      const int n = args.scalarInt(2);
                      const int numBins = args.scalarInt(3);
                      for (std::size_t l = 0; l < wg.localSize; ++l) {
                        const std::size_t i = wg.globalId(l);
                        if (static_cast<int>(i) >= n) continue;
                        int b = data[i] % numBins;
                        if (b < 0) b += numBins;
                        bins.atomicAdd(static_cast<std::size_t>(b), 1);
                      }
                    })
                    .build();
    inst.verify = [bins, data](std::string* error) {
      const auto d0 = data->pristine<int>();
      std::vector<int> expected(kBins, 0);
      for (const int v : d0) {
        int b = v % kBins;
        if (b < 0) b += kBins;
        ++expected[static_cast<std::size_t>(b)];
      }
      return verifyInt(*bins, expected, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// nbody — all-pairs gravitational forces; extreme arithmetic intensity.
// ---------------------------------------------------------------------------

Benchmark makeNbody() {
  const char* src = R"(
__kernel void nbody(__global const float* px, __global const float* py,
                    __global const float* pz, __global float* ax,
                    __global float* ay, __global float* az,
                    int n, float eps) {
  int i = get_global_id(0);
  float xi = px[i];
  float yi = py[i];
  float zi = pz[i];
  float fx = 0.0f;
  float fy = 0.0f;
  float fz = 0.0f;
  for (int j = 0; j < n; j++) {
    float dx = px[j] - xi;
    float dy = py[j] - yi;
    float dz = pz[j] - zi;
    float r2 = dx * dx + dy * dy + dz * dz + eps;
    float inv = rsqrt(r2);
    float w = inv * inv * inv;
    fx += dx * w;
    fy += dy * w;
    fz += dz * w;
  }
  ax[i] = fx;
  ay[i] = fy;
  az[i] = fz;
}
)";
  Benchmark bench{"nbody", "vendor", CompiledKernel::compile(src),
                  {512, 1024, 2048, 4096, 8192, 16384},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("nbody", n));
    auto px = randomFloatBuffer(n, rng);
    auto py = randomFloatBuffer(n, rng);
    auto pz = randomFloatBuffer(n, rng);
    auto ax = zeroFloatBuffer(n);
    auto ay = zeroFloatBuffer(n);
    auto az = zeroFloatBuffer(n);
    const float eps = 1e-4f;

    auto forceOne = [](const std::vector<float>& xs,
                       const std::vector<float>& ys,
                       const std::vector<float>& zs, std::size_t i, float eps,
                       float* fx, float* fy, float* fz) {
      const float xi = xs[i], yi = ys[i], zi = zs[i];
      float ax = 0.0f, ay = 0.0f, az = 0.0f;
      for (std::size_t j = 0; j < xs.size(); ++j) {
        const float dx = xs[j] - xi;
        const float dy = ys[j] - yi;
        const float dz = zs[j] - zi;
        const float r2 = dx * dx + dy * dy + dz * dz + eps;
        const float inv = 1.0f / std::sqrt(r2);
        const float w = inv * inv * inv;
        ax += dx * w;
        ay += dy * w;
        az += dz * w;
      }
      *fx = ax;
      *fy = ay;
      *fz = az;
    };

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "nbody")
            .global(n)
            .local(64)
            .arg(px)
            .arg(py)
            .arg(pz)
            .arg(ax)
            .arg(ay)
            .arg(az)
            .arg(static_cast<int>(n))
            .arg(eps)
            .transferAmortization(20.0)  // positions stay resident across timesteps
            .native([forceOne](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto px = args.view<float>(0);
              auto py = args.view<float>(1);
              auto pz = args.view<float>(2);
              auto ax = args.view<float>(3);
              auto ay = args.view<float>(4);
              auto az = args.view<float>(5);
              const int n = args.scalarInt(6);
              const float eps = args.scalarFloat(7);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t i = wg.globalId(l);
                const float xi = px[i], yi = py[i], zi = pz[i];
                float fx = 0.0f, fy = 0.0f, fz = 0.0f;
                for (int j = 0; j < n; ++j) {
                  const auto ju = static_cast<std::size_t>(j);
                  const float dx = px[ju] - xi;
                  const float dy = py[ju] - yi;
                  const float dz = pz[ju] - zi;
                  const float r2 = dx * dx + dy * dy + dz * dz + eps;
                  const float inv = 1.0f / std::sqrt(r2);
                  const float w = inv * inv * inv;
                  fx += dx * w;
                  fy += dy * w;
                  fz += dz * w;
                }
                ax[i] = fx;
                ay[i] = fy;
                az[i] = fz;
              }
            })
            .build();
    inst.verify = [ax, ay, az, px, py, pz, eps, forceOne](std::string* error) {
      const auto x0 = px->pristine<float>();
      const auto y0 = py->pristine<float>();
      const auto z0 = pz->pristine<float>();
      const std::size_t n = x0.size();
      std::vector<float> ex(n), ey(n), ez(n);
      for (std::size_t i = 0; i < n; ++i) {
        forceOne(x0, y0, z0, i, eps, &ex[i], &ey[i], &ez[i]);
      }
      return verifyFloat(*ax, ex, 1e-3, error) &&
             verifyFloat(*ay, ey, 1e-3, error) &&
             verifyFloat(*az, ez, 1e-3, error);
    };
    return inst;
  };
  return bench;
}

}  // namespace

std::vector<Benchmark> makeVendorBenchmarks() {
  std::vector<Benchmark> out;
  out.push_back(makeVecadd());
  out.push_back(makeSaxpy());
  out.push_back(makeDotprod());
  out.push_back(makeMatmul());
  out.push_back(makeMatvec());
  out.push_back(makeBlackscholes());
  out.push_back(makeMandelbrot());
  out.push_back(makeHistogram());
  out.push_back(makeNbody());
  return out;
}

}  // namespace tp::suite

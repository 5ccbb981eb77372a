// SHOC family: reduction, spmv (CSR), md (Lennard-Jones), stencil2d,
// sortrank (enumeration sort), fftstage (radix-2 butterfly).

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
// reduction — per-group tree sum (SHOC Reduction).
// ---------------------------------------------------------------------------

Benchmark makeReduction() {
  const char* src = R"(
__kernel void reduction(__global const float* in, __global float* partial,
                        __local float* scratch, int n) {
  int gid = get_global_id(0);
  int lid = get_local_id(0);
  float v = 0.0f;
  if (gid < n) {
    v = in[gid];
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
  Benchmark bench{"reduction", "shoc", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 20, 1u << 22},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("reduction", n));
    auto in = randomFloatBuffer(n, rng);
    const std::size_t groups = n / kLocal;
    auto partial = zeroFloatBuffer(groups);
    auto scratchDummy = zeroFloatBuffer(kLocal);

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "reduction")
            .global(n)
            .local(kLocal)
            .arg(in)
            .arg(partial)
            .arg(scratchDummy)
            .arg(static_cast<int>(n))
            // Tree-reduction runs log2(localSize) iterations.
            .bind(features::kUnknownTripParam, 7.0)
            .transferAmortization(5.0)  // reductions consume device-resident data
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto in = args.view<float>(0);
              auto partial = args.view<float>(1);
              const int n = args.scalarInt(3);
              std::vector<float> scratch(wg.localSize, 0.0f);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t gid = wg.globalId(l);
                scratch[l] = static_cast<int>(gid) < n ? in[gid] : 0.0f;
              }
              for (std::size_t s = wg.localSize / 2; s > 0; s /= 2) {
                for (std::size_t l = 0; l < s; ++l) {
                  scratch[l] = scratch[l] + scratch[l + s];
                }
              }
              partial[wg.groupId] = scratch[0];
            })
            .build();
    inst.verify = [partial, in](std::string* error) {
      const auto in0 = in->pristine<float>();
      const std::size_t groups = partial->size();
      const std::size_t local = in0.size() / groups;
      std::vector<float> expected(groups);
      for (std::size_t g = 0; g < groups; ++g) {
        std::vector<float> scratch(local);
        for (std::size_t l = 0; l < local; ++l) scratch[l] = in0[g * local + l];
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
// spmv — CSR sparse matrix-vector product; irregular per-row work.
// ---------------------------------------------------------------------------

Benchmark makeSpmv() {
  const char* src = R"(
__kernel void spmv(__global const int* rowptr, __global const int* colidx,
                   __global const float* val, __global const float* x,
                   __global float* y, int n) {
  int row = get_global_id(0);
  if (row < n) {
    float acc = 0.0f;
    for (int j = rowptr[row]; j < rowptr[row + 1]; j++) {
      acc += val[j] * x[colidx[j]];
    }
    y[row] = acc;
  }
}
)";
  Benchmark bench{"spmv", "shoc", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 17, 1u << 18, 1u << 20},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("spmv", n));
    // CSR with 1..16 nonzeros per row (mean ~8), random columns.
    std::size_t nnz = 0;
    auto rowptr = randomRowPtrBuffer(n, rng, 1, 16, &nnz);
    auto colidx = randomIntBuffer(nnz, rng, 0, static_cast<int>(n) - 1);
    auto val = randomFloatBuffer(nnz, rng);
    auto x = randomFloatBuffer(n, rng);
    auto y = zeroFloatBuffer(n);

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "spmv")
            .global(n)
            .local(64)
            .arg(rowptr)
            .arg(colidx)
            .arg(val)
            .arg(x)
            .arg(y)
            .arg(static_cast<int>(n))
            // Average CSR row length; drives the unknown-trip-count feature.
            .bind(features::kUnknownTripParam, 8.0)
            .transferAmortization(10.0)  // SpMV is the CG inner kernel
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto rowptr = args.view<int>(0);
              auto colidx = args.view<int>(1);
              auto val = args.view<float>(2);
              auto x = args.view<float>(3);
              auto y = args.view<float>(4);
              const int n = args.scalarInt(5);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t row = wg.globalId(l);
                if (static_cast<int>(row) >= n) continue;
                float acc = 0.0f;
                for (int j = rowptr[row]; j < rowptr[row + 1]; ++j) {
                  const auto ju = static_cast<std::size_t>(j);
                  acc += val[ju] * x[static_cast<std::size_t>(colidx[ju])];
                }
                y[row] = acc;
              }
            })
            .build();
    inst.verify = [y, rowptr, colidx, val, x, n](std::string* error) {
      const auto rowptrV = rowptr->pristine<int>();
      const auto col0 = colidx->pristine<int>();
      const auto val0 = val->pristine<float>();
      const auto x0 = x->pristine<float>();
      std::vector<float> expected(n);
      for (std::size_t row = 0; row < n; ++row) {
        float acc = 0.0f;
        for (int j = rowptrV[row]; j < rowptrV[row + 1]; ++j) {
          const auto ju = static_cast<std::size_t>(j);
          acc += val0[ju] * x0[static_cast<std::size_t>(col0[ju])];
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
// md — Lennard-Jones forces over a fixed-degree neighbor list (SHOC MD).
// ---------------------------------------------------------------------------

Benchmark makeMd() {
  const char* src = R"(
__kernel void md(__global const float* px, __global const float* py,
                 __global const float* pz, __global const int* neigh,
                 __global float* fx, __global float* fy, __global float* fz,
                 int n, int maxNeigh, float cutsq, float lj1, float lj2) {
  int i = get_global_id(0);
  float xi = px[i];
  float yi = py[i];
  float zi = pz[i];
  float ax = 0.0f;
  float ay = 0.0f;
  float az = 0.0f;
  for (int k = 0; k < maxNeigh; k++) {
    int j = neigh[i * maxNeigh + k];
    float dx = xi - px[j];
    float dy = yi - py[j];
    float dz = zi - pz[j];
    float r2 = dx * dx + dy * dy + dz * dz;
    if (r2 < cutsq) {
      float r2inv = 1.0f / r2;
      float r6inv = r2inv * r2inv * r2inv;
      float force = r2inv * r6inv * (lj1 * r6inv - lj2);
      ax += dx * force;
      ay += dy * force;
      az += dz * force;
    }
  }
  fx[i] = ax;
  fy[i] = ay;
  fz[i] = az;
}
)";
  constexpr int kMaxNeigh = 32;
  Benchmark bench{"md", "shoc", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 15, 1u << 16, 1u << 17, 1u << 18},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("md", n));
    auto px = randomFloatBuffer(n, rng, 0.0f, 10.0f);
    auto py = randomFloatBuffer(n, rng, 0.0f, 10.0f);
    auto pz = randomFloatBuffer(n, rng, 0.0f, 10.0f);
    // Neighbor lists never contain the particle itself (self-interaction
    // would divide by r² = 0).
    auto neigh = drawnBuffer<int>(
        n * kMaxNeigh, rng, [n](std::uint64_t bits, std::size_t slot) {
          const std::size_t i = slot / kMaxNeigh;
          const auto offset = static_cast<std::size_t>(
              drawInt(bits, 1, static_cast<int>(n) - 1));
          return static_cast<int>((i + offset) % n);
        });
    auto fx = zeroFloatBuffer(n);
    auto fy = zeroFloatBuffer(n);
    auto fz = zeroFloatBuffer(n);
    const float cutsq = 4.0f, lj1 = 1.5f, lj2 = 2.0f;

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "md")
            .global(n)
            .local(64)
            .arg(px)
            .arg(py)
            .arg(pz)
            .arg(neigh)
            .arg(fx)
            .arg(fy)
            .arg(fz)
            .arg(static_cast<int>(n))
            .arg(kMaxNeigh)
            .arg(cutsq)
            .arg(lj1)
            .arg(lj2)
            .transferAmortization(20.0)  // MD runs many timesteps
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto px = args.view<float>(0);
              auto py = args.view<float>(1);
              auto pz = args.view<float>(2);
              auto neigh = args.view<int>(3);
              auto fx = args.view<float>(4);
              auto fy = args.view<float>(5);
              auto fz = args.view<float>(6);
              const int maxNeigh = args.scalarInt(8);
              const float cutsq = args.scalarFloat(9);
              const float lj1 = args.scalarFloat(10);
              const float lj2 = args.scalarFloat(11);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t i = wg.globalId(l);
                const float xi = px[i], yi = py[i], zi = pz[i];
                float ax = 0.0f, ay = 0.0f, az = 0.0f;
                for (int k = 0; k < maxNeigh; ++k) {
                  const auto j = static_cast<std::size_t>(
                      neigh[i * static_cast<std::size_t>(maxNeigh) +
                            static_cast<std::size_t>(k)]);
                  const float dx = xi - px[j];
                  const float dy = yi - py[j];
                  const float dz = zi - pz[j];
                  const float r2 = dx * dx + dy * dy + dz * dz;
                  if (r2 < cutsq) {
                    const float r2inv = 1.0f / r2;
                    const float r6inv = r2inv * r2inv * r2inv;
                    const float force = r2inv * r6inv * (lj1 * r6inv - lj2);
                    ax += dx * force;
                    ay += dy * force;
                    az += dz * force;
                  }
                }
                fx[i] = ax;
                fy[i] = ay;
                fz[i] = az;
              }
            })
            .build();
    inst.verify = [fx, fy, fz, px, py, pz, neigh, cutsq, lj1,
                   lj2](std::string* error) {
      const auto x0 = px->pristine<float>();
      const auto y0 = py->pristine<float>();
      const auto z0 = pz->pristine<float>();
      const auto nb0 = neigh->pristine<int>();
      const std::size_t n = x0.size();
      std::vector<float> ex(n), ey(n), ez(n);
      for (std::size_t i = 0; i < n; ++i) {
        float ax = 0.0f, ay = 0.0f, az = 0.0f;
        for (int k = 0; k < kMaxNeigh; ++k) {
          const auto j = static_cast<std::size_t>(
              nb0[i * kMaxNeigh + static_cast<std::size_t>(k)]);
          const float dx = x0[i] - x0[j];
          const float dy = y0[i] - y0[j];
          const float dz = z0[i] - z0[j];
          const float r2 = dx * dx + dy * dy + dz * dz;
          if (r2 < cutsq) {
            const float r2inv = 1.0f / r2;
            const float r6inv = r2inv * r2inv * r2inv;
            const float force = r2inv * r6inv * (lj1 * r6inv - lj2);
            ax += dx * force;
            ay += dy * force;
            az += dz * force;
          }
        }
        ex[i] = ax;
        ey[i] = ay;
        ez[i] = az;
      }
      return verifyFloat(*fx, ex, 1e-3, error) &&
             verifyFloat(*fy, ey, 1e-3, error) &&
             verifyFloat(*fz, ez, 1e-3, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// stencil2d — 5-point Jacobi step with boundary branches.
// ---------------------------------------------------------------------------

Benchmark makeStencil2d() {
  const char* src = R"(
__kernel void stencil2d(__global const float* in, __global float* out,
                        int width, int height, float c0, float c1) {
  int idx = get_global_id(0);
  int x = idx % width;
  int y = idx / width;
  float v = in[idx] * c0;
  if (x > 0) {
    v += in[idx - 1] * c1;
  }
  if (x < width - 1) {
    v += in[idx + 1] * c1;
  }
  if (y > 0) {
    v += in[idx - width] * c1;
  }
  if (y < height - 1) {
    v += in[idx + width] * c1;
  }
  out[idx] = v;
}
)";
  Benchmark bench{"stencil2d", "shoc", CompiledKernel::compile(src),
                  {128, 256, 384, 512, 768, 1024},  // square grid edge
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t edge) {
    const std::size_t n = edge * edge;
    common::Rng rng(instanceSeed("stencil2d", edge));
    auto in = randomFloatBuffer(n, rng);
    auto out = zeroFloatBuffer(n);
    const float c0 = 0.6f, c1 = 0.1f;

    auto stencilAt = [](const std::vector<float>& grid, std::size_t idx,
                        std::size_t width, std::size_t height, float c0,
                        float c1) {
      const std::size_t x = idx % width;
      const std::size_t y = idx / width;
      float v = grid[idx] * c0;
      if (x > 0) v += grid[idx - 1] * c1;
      if (x < width - 1) v += grid[idx + 1] * c1;
      if (y > 0) v += grid[idx - width] * c1;
      if (y < height - 1) v += grid[idx + width] * c1;
      return v;
    };

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "stencil2d")
            .global(n)
            .local(64)
            .arg(in)
            .arg(out)
            .arg(static_cast<int>(edge))
            .arg(static_cast<int>(edge))
            .arg(c0)
            .arg(c1)
            .transferAmortization(20.0)  // Jacobi iterations, grid resident
            .native([stencilAt](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto in = args.view<float>(0);
              auto out = args.view<float>(1);
              const auto width = static_cast<std::size_t>(args.scalarInt(2));
              const auto height = static_cast<std::size_t>(args.scalarInt(3));
              const float c0 = args.scalarFloat(4);
              const float c1 = args.scalarFloat(5);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t idx = wg.globalId(l);
                const std::size_t x = idx % width;
                const std::size_t y = idx / width;
                float v = in[idx] * c0;
                if (x > 0) v += in[idx - 1] * c1;
                if (x < width - 1) v += in[idx + 1] * c1;
                if (y > 0) v += in[idx - width] * c1;
                if (y < height - 1) v += in[idx + width] * c1;
                out[idx] = v;
              }
            })
            .build();
    inst.verify = [out, in, edge, c0, c1, stencilAt](std::string* error) {
      const auto in0 = in->pristine<float>();
      const std::size_t n = edge * edge;
      std::vector<float> expected(n);
      for (std::size_t idx = 0; idx < n; ++idx) {
        expected[idx] = stencilAt(in0, idx, edge, edge, c0, c1);
      }
      return verifyFloat(*out, expected, 1e-5, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// sortrank — enumeration (rank) sort step: O(n) comparisons per item.
// ---------------------------------------------------------------------------

Benchmark makeSortrank() {
  const char* src = R"(
__kernel void sortrank(__global const float* in, __global int* rank, int n) {
  int i = get_global_id(0);
  float vi = in[i];
  int r = 0;
  for (int j = 0; j < n; j++) {
    float vj = in[j];
    if (vj < vi || (vj == vi && j < i)) {
      r++;
    }
  }
  rank[i] = r;
}
)";
  Benchmark bench{"sortrank", "shoc", CompiledKernel::compile(src),
                  {1024, 2048, 4096, 8192, 16384, 32768},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("sortrank", n));
    auto in = randomFloatBuffer(n, rng);
    auto rank = zeroIntBuffer(n);

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "sortrank")
            .global(n)
            .local(64)
            .arg(in)
            .arg(rank)
            .arg(static_cast<int>(n))
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto in = args.view<float>(0);
              auto rank = args.view<int>(1);
              const int n = args.scalarInt(2);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t i = wg.globalId(l);
                const float vi = in[i];
                int r = 0;
                for (int j = 0; j < n; ++j) {
                  const float vj = in[static_cast<std::size_t>(j)];
                  if (vj < vi ||
                      (vj == vi && static_cast<std::size_t>(j) < i)) {
                    ++r;
                  }
                }
                rank[i] = r;
              }
            })
            .build();
    inst.verify = [rank, in](std::string* error) {
      const auto in0 = in->pristine<float>();
      const std::size_t n = in0.size();
      std::vector<int> expected(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        int r = 0;
        for (std::size_t j = 0; j < n; ++j) {
          if (in0[j] < in0[i] || (in0[j] == in0[i] && j < i)) ++r;
        }
        expected[i] = r;
      }
      return verifyInt(*rank, expected, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// fftstage — one radix-2 butterfly stage with sin/cos twiddles.
// ---------------------------------------------------------------------------

Benchmark makeFftstage() {
  const char* src = R"(
__kernel void fftstage(__global const float* re, __global const float* im,
                       __global float* outRe, __global float* outIm,
                       int stride, int n) {
  int i = get_global_id(0);
  int bit = i & stride;
  float angle = -6.2831853f * (float)(i % stride) / ((float)stride * 2.0f);
  float wr = cos(angle);
  float wi = sin(angle);
  if (bit == 0) {
    int p = i + stride;
    float tr = wr * re[p] - wi * im[p];
    float ti = wr * im[p] + wi * re[p];
    outRe[i] = re[i] + tr;
    outIm[i] = im[i] + ti;
  } else {
    int p = i - stride;
    float tr = wr * re[i] - wi * im[i];
    float ti = wr * im[i] + wi * re[i];
    outRe[i] = re[p] - tr;
    outIm[i] = im[p] - ti;
  }
}
)";
  Benchmark bench{"fftstage", "shoc", CompiledKernel::compile(src),
                  {1u << 14, 1u << 16, 1u << 18, 1u << 19, 1u << 20, 1u << 21},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("fftstage", n));
    auto re = randomFloatBuffer(n, rng);
    auto im = randomFloatBuffer(n, rng);
    auto outRe = zeroFloatBuffer(n);
    auto outIm = zeroFloatBuffer(n);
    const int stride = static_cast<int>(n / 2);

    auto butterfly = [](const std::vector<float>& re,
                        const std::vector<float>& im, std::size_t i,
                        int stride, float* oRe, float* oIm) {
      const int bit = static_cast<int>(i) & stride;
      const float angle = -6.2831853f *
                          static_cast<float>(static_cast<int>(i) % stride) /
                          (static_cast<float>(stride) * 2.0f);
      const float wr = std::cos(angle);
      const float wi = std::sin(angle);
      if (bit == 0) {
        const std::size_t p = i + static_cast<std::size_t>(stride);
        const float tr = wr * re[p] - wi * im[p];
        const float ti = wr * im[p] + wi * re[p];
        *oRe = re[i] + tr;
        *oIm = im[i] + ti;
      } else {
        const std::size_t p = i - static_cast<std::size_t>(stride);
        const float tr = wr * re[i] - wi * im[i];
        const float ti = wr * im[i] + wi * re[i];
        *oRe = re[p] - tr;
        *oIm = im[p] - ti;
      }
    };

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "fftstage")
            .global(n)
            .local(64)
            .arg(re)
            .arg(im)
            .arg(outRe)
            .arg(outIm)
            .arg(stride)
            .arg(static_cast<int>(n))
            .transferAmortization(10.0)  // log2(n) stages, data resident
            .native([butterfly](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto re = args.view<float>(0);
              auto im = args.view<float>(1);
              auto outRe = args.view<float>(2);
              auto outIm = args.view<float>(3);
              const int stride = args.scalarInt(4);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t i = wg.globalId(l);
                const int bit = static_cast<int>(i) & stride;
                const float angle =
                    -6.2831853f *
                    static_cast<float>(static_cast<int>(i) % stride) /
                    (static_cast<float>(stride) * 2.0f);
                const float wr = std::cos(angle);
                const float wi = std::sin(angle);
                if (bit == 0) {
                  const std::size_t p = i + static_cast<std::size_t>(stride);
                  const float tr = wr * re[p] - wi * im[p];
                  const float ti = wr * im[p] + wi * re[p];
                  outRe[i] = re[i] + tr;
                  outIm[i] = im[i] + ti;
                } else {
                  const std::size_t p = i - static_cast<std::size_t>(stride);
                  const float tr = wr * re[i] - wi * im[i];
                  const float ti = wr * im[i] + wi * re[i];
                  outRe[i] = re[p] - tr;
                  outIm[i] = im[p] - ti;
                }
              }
            })
            .build();
    inst.verify = [outRe, outIm, re, im, stride,
                   butterfly](std::string* error) {
      const auto re0 = re->pristine<float>();
      const auto im0 = im->pristine<float>();
      const std::size_t n = re0.size();
      std::vector<float> eRe(n), eIm(n);
      for (std::size_t i = 0; i < n; ++i) {
        butterfly(re0, im0, i, stride, &eRe[i], &eIm[i]);
      }
      return verifyFloat(*outRe, eRe, 1e-4, error) &&
             verifyFloat(*outIm, eIm, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

}  // namespace

std::vector<Benchmark> makeShocBenchmarks() {
  std::vector<Benchmark> out;
  out.push_back(makeReduction());
  out.push_back(makeSpmv());
  out.push_back(makeMd());
  out.push_back(makeStencil2d());
  out.push_back(makeSortrank());
  out.push_back(makeFftstage());
  return out;
}

}  // namespace tp::suite

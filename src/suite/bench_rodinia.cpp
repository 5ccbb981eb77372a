// Rodinia family: nn (nearest neighbor), hotspot, srad, pathfinder,
// bfs (frontier expansion), kmeans (assignment step).

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
// nn — Euclidean distance to a target point (Rodinia NN).
// ---------------------------------------------------------------------------

Benchmark makeNn() {
  const char* src = R"(
__kernel void nn(__global const float* lat, __global const float* lng,
                 __global float* dist, float tlat, float tlng, int n) {
  int i = get_global_id(0);
  if (i < n) {
    float dlat = lat[i] - tlat;
    float dlng = lng[i] - tlng;
    dist[i] = sqrt(dlat * dlat + dlng * dlng);
  }
}
)";
  Benchmark bench{"nn", "rodinia", CompiledKernel::compile(src),
                  {1u << 14, 1u << 16, 1u << 18, 1u << 20, 1u << 21, 1u << 22},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("nn", n));
    auto lat = randomFloatBuffer(n, rng, -90.0f, 90.0f);
    auto lng = randomFloatBuffer(n, rng, -180.0f, 180.0f);
    auto dist = zeroFloatBuffer(n);
    const float tlat = 30.0f, tlng = -40.0f;

    BenchmarkInstance inst;
    inst.task = TaskBuilder(compiled, "nn")
                    .global(n)
                    .local(64)
                    .arg(lat)
                    .arg(lng)
                    .arg(dist)
                    .arg(tlat)
                    .arg(tlng)
                    .arg(static_cast<int>(n))
                    .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
                      auto lat = args.view<float>(0);
                      auto lng = args.view<float>(1);
                      auto dist = args.view<float>(2);
                      const float tlat = args.scalarFloat(3);
                      const float tlng = args.scalarFloat(4);
                      const int n = args.scalarInt(5);
                      for (std::size_t l = 0; l < wg.localSize; ++l) {
                        const std::size_t i = wg.globalId(l);
                        if (static_cast<int>(i) >= n) continue;
                        const float dlat = lat[i] - tlat;
                        const float dlng = lng[i] - tlng;
                        dist[i] = std::sqrt(dlat * dlat + dlng * dlng);
                      }
                    })
                    .build();
    inst.verify = [dist, lat, lng, tlat, tlng](std::string* error) {
      const auto lat0 = lat->pristine<float>();
      const auto lng0 = lng->pristine<float>();
      std::vector<float> expected(lat0.size());
      for (std::size_t i = 0; i < lat0.size(); ++i) {
        const float dlat = lat0[i] - tlat;
        const float dlng = lng0[i] - tlng;
        expected[i] = std::sqrt(dlat * dlat + dlng * dlng);
      }
      return verifyFloat(*dist, expected, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// hotspot — thermal simulation step (Rodinia HotSpot).
// ---------------------------------------------------------------------------

Benchmark makeHotspot() {
  const char* src = R"(
__kernel void hotspot(__global const float* temp, __global const float* power,
                      __global float* out, int width, int height,
                      float cap, float rx, float ry, float rz, float amb) {
  int idx = get_global_id(0);
  int x = idx % width;
  int y = idx / width;
  float t = temp[idx];
  float tn = t;
  float ts = t;
  float te = t;
  float tw = t;
  if (y > 0) {
    tn = temp[idx - width];
  }
  if (y < height - 1) {
    ts = temp[idx + width];
  }
  if (x > 0) {
    tw = temp[idx - 1];
  }
  if (x < width - 1) {
    te = temp[idx + 1];
  }
  float delta = (power[idx] + (tn + ts - 2.0f * t) / ry
               + (te + tw - 2.0f * t) / rx + (amb - t) / rz) / cap;
  out[idx] = t + delta;
}
)";
  Benchmark bench{"hotspot", "rodinia", CompiledKernel::compile(src),
                  {128, 256, 384, 512, 768, 1024},  // grid edge
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t edge) {
    const std::size_t n = edge * edge;
    common::Rng rng(instanceSeed("hotspot", edge));
    auto temp = randomFloatBuffer(n, rng, 320.0f, 340.0f);
    auto power = randomFloatBuffer(n, rng, 0.0f, 1.0f);
    auto out = zeroFloatBuffer(n);
    const float cap = 0.5f, rx = 1.0f, ry = 1.0f, rz = 4.0f, amb = 300.0f;

    auto updateAt = [](const std::vector<float>& temp,
                       const std::vector<float>& power, std::size_t idx,
                       std::size_t width, std::size_t height, float cap,
                       float rx, float ry, float rz, float amb) {
      const std::size_t x = idx % width;
      const std::size_t y = idx / width;
      const float t = temp[idx];
      const float tn = y > 0 ? temp[idx - width] : t;
      const float ts = y < height - 1 ? temp[idx + width] : t;
      const float tw = x > 0 ? temp[idx - 1] : t;
      const float te = x < width - 1 ? temp[idx + 1] : t;
      const float delta = (power[idx] + (tn + ts - 2.0f * t) / ry +
                           (te + tw - 2.0f * t) / rx + (amb - t) / rz) /
                          cap;
      return t + delta;
    };

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "hotspot")
            .global(n)
            .local(64)
            .arg(temp)
            .arg(power)
            .arg(out)
            .arg(static_cast<int>(edge))
            .arg(static_cast<int>(edge))
            .arg(cap)
            .arg(rx)
            .arg(ry)
            .arg(rz)
            .arg(amb)
            .transferAmortization(50.0)  // thermal simulation steps
            .native([updateAt](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto temp = args.view<float>(0);
              auto power = args.view<float>(1);
              auto out = args.view<float>(2);
              const auto width = static_cast<std::size_t>(args.scalarInt(3));
              const auto height = static_cast<std::size_t>(args.scalarInt(4));
              const float cap = args.scalarFloat(5);
              const float rx = args.scalarFloat(6);
              const float ry = args.scalarFloat(7);
              const float rz = args.scalarFloat(8);
              const float amb = args.scalarFloat(9);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t idx = wg.globalId(l);
                const std::size_t x = idx % width;
                const std::size_t y = idx / width;
                const float t = temp[idx];
                const float tn = y > 0 ? temp[idx - width] : t;
                const float ts = y < height - 1 ? temp[idx + width] : t;
                const float tw = x > 0 ? temp[idx - 1] : t;
                const float te = x < width - 1 ? temp[idx + 1] : t;
                const float delta =
                    (power[idx] + (tn + ts - 2.0f * t) / ry +
                     (te + tw - 2.0f * t) / rx + (amb - t) / rz) /
                    cap;
                out[idx] = t + delta;
              }
            })
            .build();
    inst.verify = [out, temp, power, edge, cap, rx, ry, rz, amb,
                   updateAt](std::string* error) {
      const auto t0 = temp->pristine<float>();
      const auto p0 = power->pristine<float>();
      const std::size_t n = edge * edge;
      std::vector<float> expected(n);
      for (std::size_t idx = 0; idx < n; ++idx) {
        expected[idx] = updateAt(t0, p0, idx, edge, edge, cap, rx, ry, rz, amb);
      }
      return verifyFloat(*out, expected, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// srad — speckle-reducing anisotropic diffusion step (Rodinia SRAD).
// ---------------------------------------------------------------------------

Benchmark makeSrad() {
  const char* src = R"(
__kernel void srad(__global const float* img, __global float* out,
                   int width, int height, float lambda, float q0) {
  int idx = get_global_id(0);
  int x = idx % width;
  int y = idx / width;
  float jc = img[idx];
  float jn = jc;
  float js = jc;
  float jw = jc;
  float je = jc;
  if (y > 0) {
    jn = img[idx - width];
  }
  if (y < height - 1) {
    js = img[idx + width];
  }
  if (x > 0) {
    jw = img[idx - 1];
  }
  if (x < width - 1) {
    je = img[idx + 1];
  }
  float dN = jn - jc;
  float dS = js - jc;
  float dW = jw - jc;
  float dE = je - jc;
  float g2 = (dN * dN + dS * dS + dW * dW + dE * dE) / (jc * jc + 0.0001f);
  float lsum = (dN + dS + dW + dE) / (jc + 0.0001f);
  float num = 0.5f * g2 - 0.0625f * lsum * lsum;
  float den = 1.0f + 0.25f * lsum;
  float qsq = num / (den * den + 0.0001f);
  float c = exp(0.0f - (qsq - q0) / (q0 + 0.0001f));
  if (c < 0.0f) {
    c = 0.0f;
  }
  if (c > 1.0f) {
    c = 1.0f;
  }
  out[idx] = jc + lambda * 0.25f * c * (dN + dS + dW + dE);
}
)";
  Benchmark bench{"srad", "rodinia", CompiledKernel::compile(src),
                  {128, 256, 384, 512, 768, 1024},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t edge) {
    const std::size_t n = edge * edge;
    common::Rng rng(instanceSeed("srad", edge));
    auto img = randomFloatBuffer(n, rng, 0.05f, 1.0f);
    auto out = zeroFloatBuffer(n);
    const float lambda = 0.5f, q0 = 0.2f;

    auto sradAt = [](const std::vector<float>& img, std::size_t idx,
                     std::size_t width, std::size_t height, float lambda,
                     float q0) {
      const std::size_t x = idx % width;
      const std::size_t y = idx / width;
      const float jc = img[idx];
      const float jn = y > 0 ? img[idx - width] : jc;
      const float js = y < height - 1 ? img[idx + width] : jc;
      const float jw = x > 0 ? img[idx - 1] : jc;
      const float je = x < width - 1 ? img[idx + 1] : jc;
      const float dN = jn - jc, dS = js - jc, dW = jw - jc, dE = je - jc;
      const float g2 =
          (dN * dN + dS * dS + dW * dW + dE * dE) / (jc * jc + 0.0001f);
      const float lsum = (dN + dS + dW + dE) / (jc + 0.0001f);
      const float num = 0.5f * g2 - 0.0625f * lsum * lsum;
      const float den = 1.0f + 0.25f * lsum;
      const float qsq = num / (den * den + 0.0001f);
      float c = std::exp(0.0f - (qsq - q0) / (q0 + 0.0001f));
      if (c < 0.0f) c = 0.0f;
      if (c > 1.0f) c = 1.0f;
      return jc + lambda * 0.25f * c * (dN + dS + dW + dE);
    };

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "srad")
            .global(n)
            .local(64)
            .arg(img)
            .arg(out)
            .arg(static_cast<int>(edge))
            .arg(static_cast<int>(edge))
            .arg(lambda)
            .arg(q0)
            .transferAmortization(50.0)  // diffusion iterations
            .native([sradAt](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto img = args.view<float>(0);
              auto out = args.view<float>(1);
              const auto width = static_cast<std::size_t>(args.scalarInt(2));
              const auto height = static_cast<std::size_t>(args.scalarInt(3));
              const float lambda = args.scalarFloat(4);
              const float q0 = args.scalarFloat(5);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t idx = wg.globalId(l);
                const std::size_t x = idx % width;
                const std::size_t y = idx / width;
                const float jc = img[idx];
                const float jn = y > 0 ? img[idx - width] : jc;
                const float js = y < height - 1 ? img[idx + width] : jc;
                const float jw = x > 0 ? img[idx - 1] : jc;
                const float je = x < width - 1 ? img[idx + 1] : jc;
                const float dN = jn - jc, dS = js - jc, dW = jw - jc,
                            dE = je - jc;
                const float g2 = (dN * dN + dS * dS + dW * dW + dE * dE) /
                                 (jc * jc + 0.0001f);
                const float lsum = (dN + dS + dW + dE) / (jc + 0.0001f);
                const float num = 0.5f * g2 - 0.0625f * lsum * lsum;
                const float den = 1.0f + 0.25f * lsum;
                const float qsq = num / (den * den + 0.0001f);
                float c = std::exp(0.0f - (qsq - q0) / (q0 + 0.0001f));
                if (c < 0.0f) c = 0.0f;
                if (c > 1.0f) c = 1.0f;
                out[idx] = jc + lambda * 0.25f * c * (dN + dS + dW + dE);
              }
            })
            .build();
    inst.verify = [out, img, edge, lambda, q0, sradAt](std::string* error) {
      const auto i0 = img->pristine<float>();
      const std::size_t n = edge * edge;
      std::vector<float> expected(n);
      for (std::size_t idx = 0; idx < n; ++idx) {
        expected[idx] = sradAt(i0, idx, edge, edge, lambda, q0);
      }
      return verifyFloat(*out, expected, 1e-4, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// pathfinder — one dynamic-programming row relaxation (Rodinia PathFinder).
// ---------------------------------------------------------------------------

Benchmark makePathfinder() {
  const char* src = R"(
__kernel void pathfinder(__global const int* wall, __global const int* src,
                         __global int* dst, int cols) {
  int x = get_global_id(0);
  int best = src[x];
  if (x > 0) {
    int left = src[x - 1];
    if (left < best) {
      best = left;
    }
  }
  if (x < cols - 1) {
    int right = src[x + 1];
    if (right < best) {
      best = right;
    }
  }
  dst[x] = wall[x] + best;
}
)";
  Benchmark bench{"pathfinder", "rodinia", CompiledKernel::compile(src),
                  {1u << 14, 1u << 16, 1u << 18, 1u << 20, 1u << 21, 1u << 22},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("pathfinder", n));
    auto wall = randomIntBuffer(n, rng, 0, 9);
    auto srcRow = randomIntBuffer(n, rng, 0, 100);
    auto dst = zeroIntBuffer(n);

    BenchmarkInstance inst;
    inst.task = TaskBuilder(compiled, "pathfinder")
                    .global(n)
                    .local(64)
                    .arg(wall)
                    .arg(srcRow)
                    .arg(dst)
                    .arg(static_cast<int>(n))
                    .transferAmortization(50.0)  // one launch per DP row
                    .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
                      auto wall = args.view<int>(0);
                      auto src = args.view<int>(1);
                      auto dst = args.view<int>(2);
                      const int cols = args.scalarInt(3);
                      for (std::size_t l = 0; l < wg.localSize; ++l) {
                        const std::size_t x = wg.globalId(l);
                        int best = src[x];
                        if (x > 0) best = std::min(best, src[x - 1]);
                        if (static_cast<int>(x) < cols - 1) {
                          best = std::min(best, src[x + 1]);
                        }
                        dst[x] = wall[x] + best;
                      }
                    })
                    .build();
    inst.verify = [dst, wall, srcRow](std::string* error) {
      const auto w0 = wall->pristine<int>();
      const auto s0 = srcRow->pristine<int>();
      const std::size_t n = w0.size();
      std::vector<int> expected(n);
      for (std::size_t x = 0; x < n; ++x) {
        int best = s0[x];
        if (x > 0) best = std::min(best, s0[x - 1]);
        if (x < n - 1) best = std::min(best, s0[x + 1]);
        expected[x] = w0[x] + best;
      }
      return verifyInt(*dst, expected, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// bfs — frontier expansion with atomic touch counting (Rodinia BFS step).
// ---------------------------------------------------------------------------

Benchmark makeBfs() {
  const char* src = R"(
__kernel void bfs(__global const int* rowptr, __global const int* cols,
                  __global const int* frontier, __global int* touched,
                  int n, int level) {
  int tid = get_global_id(0);
  if (tid < n) {
    if (frontier[tid] == level) {
      for (int e = rowptr[tid]; e < rowptr[tid + 1]; e++) {
        int nbr = cols[e];
        atomic_add(touched[nbr], 1);
      }
    }
  }
}
)";
  Benchmark bench{"bfs", "rodinia", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 19, 1u << 20},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("bfs", n));
    // Random graph, 1..8 out-edges per node; ~25% of nodes in the frontier.
    std::size_t edges = 0;
    auto rowptr = randomRowPtrBuffer(n, rng, 1, 8, &edges);
    auto cols = randomIntBuffer(edges, rng, 0, static_cast<int>(n) - 1);
    auto frontier = randomIntBuffer(n, rng, 0, 3);  // level ∈ {0..3}
    auto touched = zeroIntBuffer(n);
    const int level = 1;

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "bfs")
            .global(n)
            .local(64)
            .arg(rowptr)
            .arg(cols)
            .arg(frontier)
            .arg(touched)
            .arg(static_cast<int>(n))
            .arg(level)
            .bind(features::kUnknownTripParam, 4.0)  // mean out-degree
            .transferAmortization(4.0)  // one launch per BFS level
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto rowptr = args.view<int>(0);
              auto cols = args.view<int>(1);
              auto frontier = args.view<int>(2);
              auto touched = args.view<int>(3);
              const int n = args.scalarInt(4);
              const int level = args.scalarInt(5);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t tid = wg.globalId(l);
                if (static_cast<int>(tid) >= n) continue;
                if (frontier[tid] == level) {
                  for (int e = rowptr[tid]; e < rowptr[tid + 1]; ++e) {
                    const int nbr = cols[static_cast<std::size_t>(e)];
                    touched.atomicAdd(static_cast<std::size_t>(nbr), 1);
                  }
                }
              }
            })
            .build();
    inst.verify = [touched, rowptr, cols, frontier, level](std::string* error) {
      const auto rowptrV = rowptr->pristine<int>();
      const auto c0 = cols->pristine<int>();
      const auto f0 = frontier->pristine<int>();
      const std::size_t n = f0.size();
      std::vector<int> expected(n, 0);
      for (std::size_t v = 0; v < n; ++v) {
        if (f0[v] != level) continue;
        for (int e = rowptrV[v]; e < rowptrV[v + 1]; ++e) {
          ++expected[static_cast<std::size_t>(c0[static_cast<std::size_t>(e)])];
        }
      }
      return verifyInt(*touched, expected, error);
    };
    return inst;
  };
  return bench;
}

// ---------------------------------------------------------------------------
// kmeans — cluster assignment step (Rodinia K-means kernel_c).
// ---------------------------------------------------------------------------

Benchmark makeKmeans() {
  const char* src = R"(
__kernel void kmeans(__global const float* points,
                     __global const float* centroids,
                     __global int* assign, int n, int k, int dim) {
  int i = get_global_id(0);
  if (i < n) {
    int best = 0;
    float bestDist = 1.0e30f;
    for (int c = 0; c < k; c++) {
      float d = 0.0f;
      for (int j = 0; j < dim; j++) {
        float diff = points[i * dim + j] - centroids[c * dim + j];
        d += diff * diff;
      }
      if (d < bestDist) {
        bestDist = d;
        best = c;
      }
    }
    assign[i] = best;
  }
}
)";
  constexpr int kClusters = 16;
  constexpr int kDim = 4;
  Benchmark bench{"kmeans", "rodinia", CompiledKernel::compile(src),
                  {1u << 12, 1u << 14, 1u << 16, 1u << 18, 1u << 19, 1u << 20},
                  nullptr};
  const CompiledKernel compiled = bench.compiled;
  bench.make = [compiled](std::size_t n) {
    common::Rng rng(instanceSeed("kmeans", n));
    auto points = randomFloatBuffer(n * kDim, rng);
    auto centroids = randomFloatBuffer(
        static_cast<std::size_t>(kClusters) * kDim, rng);
    auto assign = zeroIntBuffer(n);

    BenchmarkInstance inst;
    inst.task =
        TaskBuilder(compiled, "kmeans")
            .global(n)
            .local(64)
            .arg(points)
            .arg(centroids)
            .arg(assign)
            .arg(static_cast<int>(n))
            .arg(kClusters)
            .arg(kDim)
            .transferAmortization(10.0)  // Lloyd iterations, points resident
            .native([](const WorkGroupCtx& wg, const LaunchArgs& args) {
              auto points = args.view<float>(0);
              auto centroids = args.view<float>(1);
              auto assign = args.view<int>(2);
              const int n = args.scalarInt(3);
              const int k = args.scalarInt(4);
              const int dim = args.scalarInt(5);
              for (std::size_t l = 0; l < wg.localSize; ++l) {
                const std::size_t i = wg.globalId(l);
                if (static_cast<int>(i) >= n) continue;
                int best = 0;
                float bestDist = 1.0e30f;
                for (int c = 0; c < k; ++c) {
                  float d = 0.0f;
                  for (int j = 0; j < dim; ++j) {
                    const float diff =
                        points[i * static_cast<std::size_t>(dim) +
                               static_cast<std::size_t>(j)] -
                        centroids[static_cast<std::size_t>(c * dim + j)];
                    d += diff * diff;
                  }
                  if (d < bestDist) {
                    bestDist = d;
                    best = c;
                  }
                }
                assign[i] = best;
              }
            })
            .build();
    inst.verify = [assign, points, centroids](std::string* error) {
      const auto p0 = points->pristine<float>();
      const auto ctr0 = centroids->pristine<float>();
      const std::size_t n = p0.size() / kDim;
      std::vector<int> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        int best = 0;
        float bestDist = 1.0e30f;
        for (int c = 0; c < kClusters; ++c) {
          float d = 0.0f;
          for (int j = 0; j < kDim; ++j) {
            const float diff =
                p0[i * kDim + static_cast<std::size_t>(j)] -
                ctr0[static_cast<std::size_t>(c * kDim + j)];
            d += diff * diff;
          }
          if (d < bestDist) {
            bestDist = d;
            best = c;
          }
        }
        expected[i] = best;
      }
      return verifyInt(*assign, expected, error);
    };
    return inst;
  };
  return bench;
}

}  // namespace

std::vector<Benchmark> makeRodiniaBenchmarks() {
  std::vector<Benchmark> out;
  out.push_back(makeNn());
  out.push_back(makeHotspot());
  out.push_back(makeSrad());
  out.push_back(makePathfinder());
  out.push_back(makeBfs());
  out.push_back(makeKmeans());
  return out;
}

}  // namespace tp::suite

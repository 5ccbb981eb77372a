// Feature-extraction tests: symbolic op counts on known kernels,
// loop-trip weighting, runtime feature evaluation, monotonicity.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

#include "features/runtime_features.hpp"
#include "features/static_features.hpp"
#include "frontend/parser.hpp"

namespace tp::features {
namespace {

KernelFeatures featuresOf(const char* src) {
  const auto kernel = frontend::parseSingleKernel(src);
  return extractFeatures(*kernel);
}

TEST(StaticFeatures, VecaddShape) {
  const auto f = featuresOf(R"(
__kernel void vecadd(__global const float* a, __global const float* b,
                     __global float* c, int n) {
  int i = get_global_id(0);
  if (i < n) {
    c[i] = a[i] + b[i];
  }
}
)");
  const std::map<std::string, double> none;
  // Loads: a[i], b[i] inside a then-only guard (weight 0.9).
  EXPECT_NEAR(f.counts().globalLoads.eval(none), 2 * kThenOnlyWeight, 1e-9);
  EXPECT_NEAR(f.counts().globalStores.eval(none), 1 * kThenOnlyWeight, 1e-9);
  // One float add in the guarded body.
  EXPECT_NEAR(f.counts().floatOps.eval(none), 1 * kThenOnlyWeight, 1e-9);
  // One branch (the guard).
  EXPECT_NEAR(f.counts().branches.eval(none), 1.0, 1e-9);
  EXPECT_EQ(f.counts().numLoops, 0);
  EXPECT_EQ(f.counts().numBuffers, 3);
  EXPECT_FALSE(f.counts().usesLocalMemory);
  EXPECT_TRUE(f.counts().specialOps.isZero());
  EXPECT_TRUE(f.counts().atomics.isZero());
}

TEST(StaticFeatures, LoopTripCountSymbolic) {
  const auto f = featuresOf(R"(
__kernel void scale(__global float* a, int K) {
  int i = get_global_id(0);
  for (int k = 0; k < K; k++) {
    a[i] = a[i] * 2.0f;
  }
}
)");
  // Per iteration: one load, one store, one float multiply — all scaled by K.
  EXPECT_NEAR(f.counts().globalLoads.eval({{"K", 10.0}}), 10.0, 1e-9);
  EXPECT_NEAR(f.counts().globalLoads.eval({{"K", 100.0}}), 100.0, 1e-9);
  EXPECT_NEAR(f.counts().floatOps.eval({{"K", 64.0}}), 64.0, 1e-9);
  EXPECT_EQ(f.counts().numLoops, 1);
  EXPECT_EQ(f.counts().maxLoopDepth, 1);
  EXPECT_FALSE(f.counts().hasUnboundedLoop);
}

TEST(StaticFeatures, NestedLoopsMultiply) {
  const auto f = featuresOf(R"(
__kernel void nest(__global float* a, int N, int M) {
  int i = get_global_id(0);
  float acc = 0.0f;
  for (int x = 0; x < N; x++) {
    for (int y = 0; y < M; y++) {
      acc += 1.0f;
    }
  }
  a[i] = acc;
}
)");
  EXPECT_NEAR(f.counts().floatOps.eval({{"N", 4.0}, {"M", 8.0}}), 32.0, 1e-9);
  EXPECT_EQ(f.counts().numLoops, 2);
  EXPECT_EQ(f.counts().maxLoopDepth, 2);
}

TEST(StaticFeatures, LoopStepDividesTrip) {
  const auto f = featuresOf(R"(
__kernel void strided(__global float* a, int N) {
  float acc = 0.0f;
  for (int k = 0; k < N; k += 4) {
    acc += 1.0f;
  }
  a[get_global_id(0)] = acc;
}
)");
  EXPECT_NEAR(f.counts().floatOps.eval({{"N", 100.0}}), 25.0, 1e-9);
}

TEST(StaticFeatures, SpecialOpsCounted) {
  const auto f = featuresOf(R"(
__kernel void specials(__global float* a) {
  int i = get_global_id(0);
  a[i] = sqrt(a[i]) + exp(a[i]) + sin(a[i]) + rsqrt(a[i]);
}
)");
  EXPECT_NEAR(f.counts().specialOps.eval({}), 4.0, 1e-9);
}

TEST(StaticFeatures, AtomicsAndMemoryClasses) {
  const auto f = featuresOf(R"(
__kernel void atomics(__global const int* data, __global int* bins,
                      int numBins) {
  int i = get_global_id(0);
  atomic_add(bins[data[i] % numBins], 1);
}
)");
  const std::map<std::string, double> none;
  EXPECT_NEAR(f.counts().atomics.eval(none), 1.0, 1e-9);
  // The atomic RMW counts as both a load and a store on global memory,
  // plus the data[i] load.
  EXPECT_NEAR(f.counts().globalLoads.eval(none), 2.0, 1e-9);
  EXPECT_NEAR(f.counts().globalStores.eval(none), 1.0, 1e-9);
}

TEST(StaticFeatures, LocalMemoryAndBarriers) {
  const auto f = featuresOf(R"(
__kernel void shmem(__global float* o, __local float* tile, int n) {
  int lid = get_local_id(0);
  tile[lid] = 1.0f;
  barrier(CLK_LOCAL_MEM_FENCE);
  o[get_global_id(0)] = tile[lid];
}
)");
  EXPECT_TRUE(f.counts().usesLocalMemory);
  EXPECT_NEAR(f.counts().barriers.eval({}), 1.0, 1e-9);
  EXPECT_NEAR(f.counts().localAccesses.eval({}), 2.0, 1e-9);
}

TEST(StaticFeatures, WhileLoopUsesUnknownTripParameter) {
  const auto f = featuresOf(R"(
__kernel void wl(__global float* o, int n) {
  float x = 1.0f;
  int s = n;
  while (s > 0) {
    x = x * 0.5f;
    s = s / 2;
  }
  o[get_global_id(0)] = x;
}
)");
  EXPECT_TRUE(f.counts().hasUnboundedLoop);
  // Binding the unknown-trip parameter scales the body counts.
  const double at8 = f.counts().floatOps.eval({{kUnknownTripParam, 8.0}});
  const double at16 = f.counts().floatOps.eval({{kUnknownTripParam, 16.0}});
  EXPECT_NEAR(at16, 2.0 * at8, 1e-9);
}

TEST(StaticFeatures, BranchArmsWeighted) {
  const auto f = featuresOf(R"(
__kernel void branchy(__global float* o, int n) {
  int i = get_global_id(0);
  if (i % 2 == 0) {
    o[i] = 1.0f;
  } else {
    o[i] = 2.0f;
  }
}
)");
  // Each arm has one store, weighted 0.5 → total 1.0.
  EXPECT_NEAR(f.counts().globalStores.eval({}), 1.0, 1e-9);
  EXPECT_NEAR(f.counts().branches.eval({}), 1.0, 1e-9);
}

TEST(StaticFeatures, VectorSchemaConsistent) {
  const auto names = staticFeatureNames();
  const auto f = featuresOf(R"(
__kernel void any(__global float* o) { o[get_global_id(0)] = 1.0f; }
)");
  const auto v = staticFeatureVector(f);
  EXPECT_EQ(v.size(), names.size());
}

TEST(RuntimeFeatures, SchemaAndScaling) {
  const auto f = featuresOf(R"(
__kernel void scale(__global const float* a, __global float* b, int K) {
  int i = get_global_id(0);
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    acc += a[i] * 2.0f;
  }
  b[i] = acc;
}
)");
  const std::map<std::string, double> bindings = {{"K", 32.0}};
  LaunchInfo launch;
  launch.sizeBindings = &bindings;
  launch.globalSize = 1024;
  launch.localSize = 64;
  launch.bytesToDevice = 4096.0;
  launch.bytesFromDevice = 4096.0;

  const auto names = runtimeFeatureNames();
  const auto v = runtimeFeatureVector(f, launch);
  ASSERT_EQ(v.size(), names.size());

  // r_global_size
  EXPECT_DOUBLE_EQ(v[0], 1024.0);
  // Per-item flops scale linearly with K.
  const std::map<std::string, double> biggerBindings = {{"K", 64.0}};
  LaunchInfo bigger = launch;
  bigger.sizeBindings = &biggerBindings;
  const auto v2 = runtimeFeatureVector(f, bigger);
  const std::size_t flopsIdx = 3;  // r_per_item_flops
  EXPECT_EQ(names[flopsIdx], "r_per_item_flops");
  EXPECT_NEAR(v2[flopsIdx], 2.0 * v[flopsIdx], 1e-9);
}

TEST(RuntimeFeatures, CombinedConcatenation) {
  const auto f = featuresOf(R"(
__kernel void any(__global float* o) { o[get_global_id(0)] = 1.0f; }
)");
  LaunchInfo launch;
  launch.globalSize = 64;
  launch.localSize = 64;
  const auto combined = combinedFeatureVector(f, launch);
  EXPECT_EQ(combined.size(),
            staticFeatureNames().size() + runtimeFeatureNames().size());
  EXPECT_EQ(combinedFeatureNames().size(), combined.size());
}

TEST(ArithmeticIntensity, ComputeBoundKernelHasHighIntensity) {
  const auto streaming = featuresOf(R"(
__kernel void stream(__global const float* a, __global float* b) {
  int i = get_global_id(0);
  b[i] = a[i] * 2.0f;
}
)");
  const auto compute = featuresOf(R"(
__kernel void heavy(__global const float* a, __global float* b, int K) {
  int i = get_global_id(0);
  float x = a[i];
  float acc = 0.0f;
  for (int k = 0; k < K; k++) {
    acc += x * x;
  }
  b[i] = acc;
}
)");
  const std::map<std::string, double> bind = {{"K", 1000.0}};
  EXPECT_GT(compute.evaluate(bind, 1024).arithmeticIntensity(),
            10.0 * streaming.evaluate(bind, 1024).arithmeticIntensity());
}

// ---- compiled evaluation ----------------------------------------------------

std::uint64_t bitsOf(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A seeded random polynomial over `pool`: powers, repeated variables,
/// negative coefficients, coefficients right at the kEps pruning edge, and
/// products and differences of sub-polynomials, all built through
/// WorkExpr's own operators.
ir::WorkExpr randomExpr(common::Rng& rng,
                        const std::vector<std::string>& pool) {
  ir::WorkExpr out;
  const std::size_t numTerms = rng.below(7);
  for (std::size_t t = 0; t < numTerms; ++t) {
    double coeff = rng.uniform(-8.0, 8.0);
    switch (rng.below(5)) {
      case 0:  // either side of the kEps = 1e-12 pruning edge
        coeff = rng.uniform(0.5e-12, 2e-12) * (rng.below(2) ? 1.0 : -1.0);
        break;
      case 1:
        coeff = static_cast<double>(rng.range(-4, 4));
        break;
      default:
        break;
    }
    ir::WorkExpr term = ir::WorkExpr::constant(coeff);
    const std::size_t degree = rng.below(5);
    for (std::size_t d = 0; d < degree; ++d) {
      term = term * ir::WorkExpr::variable(pool[rng.below(pool.size())]);
    }
    switch (rng.below(4)) {
      case 0:
        out = out - term;
        break;
      case 1:
        out = out * (ir::WorkExpr::constant(rng.uniform(0.1, 2.0)) + term);
        break;
      default:
        out += term;
        break;
    }
  }
  return out;
}

TEST(CompiledFeatures, FlatEvaluationIsBitIdenticalToWorkExprEval) {
  const std::vector<std::string> pool = {
      "K", "N", "M", "block", kGlobalSizeParam, kUnknownTripParam};
  common::Rng rng(2024);
  for (int kernel = 0; kernel < 300; ++kernel) {
    KernelCounts c;
    ir::WorkExpr* counts[] = {
        &c.intOps,       &c.floatOps,      &c.specialOps, &c.globalLoads,
        &c.globalStores, &c.localAccesses, &c.privateAccesses,
        &c.branches,     &c.atomics,       &c.barriers};
    for (auto* e : counts) *e = randomExpr(rng, pool);
    const KernelFeatures f(c);
    const ir::WorkExpr derived[] = {c.floatOps + c.intOps + c.specialOps,
                                    (c.globalLoads + c.globalStores) * 4.0};

    // Static vector: every parameter unbound.
    const std::map<std::string, double> none;
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(bitsOf(f.staticVector()[i]), bitsOf(counts[i]->eval(none)))
          << "kernel " << kernel << " count " << i;
    }

    for (int launch = 0; launch < 8; ++launch) {
      // A random subset of the pool bound; sometimes a stale global-size
      // binding the launch's global size must override.
      std::map<std::string, double> bindings;
      for (const auto& name : pool) {
        if (rng.below(2) == 0) bindings[name] = rng.uniform(-3.0, 5000.0);
      }
      const std::size_t globalSize = rng.below(1u << 22);
      std::map<std::string, double> full = bindings;
      full[kGlobalSizeParam] = static_cast<double>(globalSize);

      const LaunchCounts got = f.evaluate(bindings, globalSize);
      for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(bitsOf(got.values[i]), bitsOf(counts[i]->eval(full)))
            << "kernel " << kernel << " launch " << launch << " count " << i
            << ": " << counts[i]->toString();
      }
      EXPECT_EQ(bitsOf(got[Count::ArithmeticOps]),
                bitsOf(derived[0].eval(full)));
      EXPECT_EQ(bitsOf(got[Count::GlobalBytes]),
                bitsOf(derived[1].eval(full)));
    }
  }
}

TEST(CompiledFeatures, TooManyParametersAreRejectedAtCompileTime) {
  auto countsOver = [](std::size_t params) {
    KernelCounts c;
    for (std::size_t p = 0; p < params; ++p) {
      c.intOps += ir::WorkExpr::variable("p" + std::to_string(p));
    }
    return c;
  };
  EXPECT_NO_THROW(KernelFeatures(countsOver(kMaxFeatureSlots)));
  EXPECT_THROW(KernelFeatures(countsOver(kMaxFeatureSlots + 1)), Error);
}

TEST(CompiledFeatures, CopiesShareOneCompiledPayload) {
  const auto f = featuresOf(R"(
__kernel void any(__global float* o, int K) {
  for (int k = 0; k < K; k++) { o[get_global_id(0)] = 1.0f; }
}
)");
  const KernelFeatures copy = f;
  EXPECT_EQ(&copy.counts(), &f.counts());
  EXPECT_EQ(copy.staticVector(), f.staticVector());
  // A default-constructed kernel does nothing.
  const KernelFeatures empty;
  EXPECT_EQ(empty.evaluate({}, 1024).values, LaunchCounts{}.values);
  EXPECT_EQ(empty.staticVector()[0], 0.0);
}

}  // namespace
}  // namespace tp::features

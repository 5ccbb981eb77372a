// Allocation budget of the request path. This binary replaces the global
// operator new with one that counts the calling thread's allocations, then
// serves a warmed suite fixture through PartitionService::call and checks
// the count of each path against a budget written below:
//
//   - building a LaunchRequest (a Task copy),
//   - the model's feature vector (features::combinedFeatureVector),
//   - a forest predict on that vector,
//   - a cache hit,
//   - a steady-state miss (a one-slot cache, feedback already recorded).
//
// A budget is the most allocations any single served launch takes on that
// path. Lower a budget in the change that removes an allocation; a change
// that adds one has to raise it here, in plain sight.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "features/runtime_features.hpp"
#include "obs/metrics.hpp"
#include "runtime/database.hpp"
#include "runtime/evaluation.hpp"
#include "serve/service.hpp"
#include "sim/machine.hpp"
#include "suite/benchmark.hpp"

namespace {

thread_local std::uint64_t tAllocations = 0;

void* countedAlloc(std::size_t size) {
  ++tAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* countedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++tAllocations;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded =
      (std::max<std::size_t>(size, 1) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tAllocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++tAllocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tp::serve {
namespace {

// Budgets: the most allocations one served launch takes on each path.
// Means over the 138 launches, before → after the last budget change
// (Scheduler::execute apportions work-groups into per-device storage on
// its stack instead of four vectors): request build 2.78 → 2.78, feature
// vector 1.00 → 1.00, predict 0.00 → 0.00, hit 7.00 → 2.00 (max 7 → 2),
// miss 9.35 → 4.35 (max 10 → 5).
constexpr std::uint64_t kRequestBuildBudget = 4;
constexpr std::uint64_t kFeatureVectorBudget = 1;
constexpr std::uint64_t kPredictBudget = 0;
constexpr std::uint64_t kHitBudget = 2;
constexpr std::uint64_t kMissBudget = 5;

/// Counts the calling thread's allocations over its lifetime.
class AllocationScope {
public:
  AllocationScope() : start_(tAllocations) {}
  std::uint64_t count() const { return tAllocations - start_; }

private:
  std::uint64_t start_;
};

/// Every suite program at its odd rungs on both evaluation machines, with
/// deployment models trained on the even rungs: the launches a deployed
/// service answers.
struct SuiteFixture {
  std::vector<sim::MachineConfig> machines = sim::evaluationMachines();
  std::vector<runtime::Task> tasks;
  std::vector<std::shared_ptr<const ml::Classifier>> models;

  SuiteFixture() {
    const runtime::PartitioningSpace space(machines[0].numDevices(), 10);
    auto db = runtime::FeatureDatabase::withDefaultSchema(space.size());
    for (const auto& bench : suite::allBenchmarks()) {
      for (std::size_t rung = 0; rung < bench.sizes.size(); ++rung) {
        auto instance = bench.make(bench.sizes[rung]);
        if (rung % 2 == 1) {
          tasks.push_back(std::move(instance.task));
          continue;
        }
        for (const auto& machine : machines) {
          db.add(runtime::measureLaunch(instance.task, machine, space,
                                        "n=" + std::to_string(rung)));
        }
      }
    }
    for (const auto& machine : machines) {
      models.push_back(
          runtime::trainDeploymentModel(db, machine.name, "forest:8"));
    }
  }

  LaunchRequest request(std::size_t launch) const {
    LaunchRequest r;
    r.machine = machines[launch % machines.size()].name;
    r.task = tasks[launch / machines.size()];
    return r;
  }
  std::size_t numLaunches() const { return tasks.size() * machines.size(); }
};

const SuiteFixture& fixture() {
  static const SuiteFixture fx;
  return fx;
}

/// A production-like service (metrics registry, a p99 SLO, feedback on)
/// that has served every launch once.
struct WarmService {
  obs::Registry registry;
  std::unique_ptr<PartitionService> service;

  explicit WarmService(std::size_t cacheCapacity) {
    ServiceConfig config;
    config.cacheCapacity = cacheCapacity;
    config.recordFeedback = true;
    config.metrics = &registry;
    config.slo.targetP99Seconds = 1e-3;
    service = std::make_unique<PartitionService>(config);
    const auto& fx = fixture();
    for (std::size_t m = 0; m < fx.machines.size(); ++m) {
      service->addMachine(fx.machines[m], fx.models[m]);
    }
    for (std::size_t l = 0; l < fx.numLaunches(); ++l) {
      service->call(fx.request(l));
    }
  }
};

struct PathCounts {
  std::uint64_t max = 0;
  double mean = 0.0;
};

PathCounts summarize(const std::vector<std::uint64_t>& counts) {
  PathCounts out;
  for (const auto c : counts) {
    out.max = std::max(out.max, c);
    out.mean += static_cast<double>(c);
  }
  out.mean /= static_cast<double>(counts.size());
  return out;
}

TEST(AllocationBudget, RequestBuild) {
  const auto& fx = fixture();
  std::vector<std::uint64_t> counts;
  for (std::size_t l = 0; l < fx.numLaunches(); ++l) {
    std::uint64_t n = 0;
    {
      const AllocationScope scope;
      const LaunchRequest r = fx.request(l);
      n = scope.count();
    }
    counts.push_back(n);
  }
  const auto c = summarize(counts);
  std::printf("request build: max %llu, mean %.2f allocations\n",
              static_cast<unsigned long long>(c.max), c.mean);
  EXPECT_LE(c.max, kRequestBuildBudget);
}

TEST(AllocationBudget, FeatureVector) {
  const auto& fx = fixture();
  std::vector<std::uint64_t> counts;
  for (const auto& task : fx.tasks) {
    std::uint64_t n = 0;
    {
      const AllocationScope scope;
      const auto x =
          features::combinedFeatureVector(task.features, task.launchInfo());
      n = scope.count();
    }
    counts.push_back(n);
  }
  const auto c = summarize(counts);
  std::printf("feature vector: max %llu, mean %.2f allocations\n",
              static_cast<unsigned long long>(c.max), c.mean);
  EXPECT_LE(c.max, kFeatureVectorBudget);
}

TEST(AllocationBudget, ForestPredict) {
  const auto& fx = fixture();
  std::vector<std::vector<double>> xs;
  for (const auto& task : fx.tasks) {
    xs.push_back(
        features::combinedFeatureVector(task.features, task.launchInfo()));
  }
  // The first call sizes this thread's reused vote scratch.
  (void)fx.models[0]->predict(xs[0]);
  std::vector<std::uint64_t> counts;
  for (std::size_t l = 0; l < fx.numLaunches(); ++l) {
    const auto& model = *fx.models[l % fx.machines.size()];
    const auto& x = xs[l / fx.machines.size()];
    std::uint64_t n = 0;
    {
      const AllocationScope scope;
      (void)model.predict(x);
      n = scope.count();
    }
    counts.push_back(n);
  }
  const auto c = summarize(counts);
  std::printf("predict: max %llu, mean %.2f allocations\n",
              static_cast<unsigned long long>(c.max), c.mean);
  EXPECT_LE(c.max, kPredictBudget);
}

TEST(AllocationBudget, CacheHit) {
  const auto& fx = fixture();
  WarmService warm(1024);
  std::vector<std::uint64_t> counts;
  for (std::size_t l = 0; l < fx.numLaunches(); ++l) {
    LaunchRequest r = fx.request(l);
    std::uint64_t n = 0;
    bool hit = false;
    {
      const AllocationScope scope;
      hit = warm.service->call(std::move(r)).cacheHit;
      n = scope.count();
    }
    ASSERT_TRUE(hit) << "launch " << l;
    counts.push_back(n);
  }
  const auto c = summarize(counts);
  std::printf("hit: max %llu, mean %.2f allocations\n",
              static_cast<unsigned long long>(c.max), c.mean);
  EXPECT_LE(c.max, kHitBudget);
}

TEST(AllocationBudget, SteadyStateMiss) {
  const auto& fx = fixture();
  WarmService warm(1);
  std::vector<std::uint64_t> counts;
  for (std::size_t l = 0; l < fx.numLaunches(); ++l) {
    LaunchRequest r = fx.request(l);
    std::uint64_t n = 0;
    bool hit = true;
    {
      const AllocationScope scope;
      hit = warm.service->call(std::move(r)).cacheHit;
      n = scope.count();
    }
    ASSERT_FALSE(hit) << "launch " << l;
    counts.push_back(n);
  }
  const auto c = summarize(counts);
  std::printf("miss: max %llu, mean %.2f allocations\n",
              static_cast<unsigned long long>(c.max), c.mean);
  EXPECT_LE(c.max, kMissBudget);
}

}  // namespace
}  // namespace tp::serve

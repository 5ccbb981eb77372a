#pragma once

// Partitioning strategies.
//
//   CpuOnly / GpuOnly  — the paper's two default strategies (Figure 1
//                        baselines).
//   Static             — any fixed point of the space.
//   Oracle             — exhaustive search over the space on the simulator
//                        (the training-label generator; also the upper
//                        bound that predicted partitionings are scored
//                        against).
//   Predicted          — the paper's contribution: an ML model over
//                        static ⊕ runtime features picks the partitioning.

#include <memory>

#include "ml/classifier.hpp"
#include "runtime/scheduler.hpp"

namespace tp::runtime {

class PartitioningStrategy {
public:
  virtual ~PartitioningStrategy() = default;
  /// Pick a partitioning for `task` on the machine behind `context`.
  virtual std::size_t choose(const Task& task, vcl::Context& context,
                             const PartitioningSpace& space) = 0;
};

class CpuOnlyStrategy final : public PartitioningStrategy {
public:
  std::size_t choose(const Task&, vcl::Context&,
                     const PartitioningSpace& space) override {
    return space.cpuOnlyIndex();
  }
};

/// All work on one GPU (device index 1 by convention — the paper's
/// GPU-only default uses a single GPU).
class GpuOnlyStrategy final : public PartitioningStrategy {
public:
  explicit GpuOnlyStrategy(std::size_t gpuDevice = 1) : device_(gpuDevice) {}
  std::size_t choose(const Task&, vcl::Context&,
                     const PartitioningSpace& space) override {
    return space.singleDeviceIndex(device_);
  }

private:
  std::size_t device_;
};

class StaticStrategy final : public PartitioningStrategy {
public:
  explicit StaticStrategy(std::size_t index) : index_(index) {}
  std::size_t choose(const Task&, vcl::Context&,
                     const PartitioningSpace& space) override {
    TP_REQUIRE(index_ < space.size(), "static partitioning out of range");
    return index_;
  }

private:
  std::size_t index_;
};

/// Exhaustively simulates every partitioning (TimeOnly) and returns the
/// argmin. With `timings` non-null, also reports the full time vector.
std::size_t oracleSearch(const Task& task, const sim::MachineConfig& machine,
                         const PartitioningSpace& space,
                         std::vector<double>* timings = nullptr);

class OracleStrategy final : public PartitioningStrategy {
public:
  std::size_t choose(const Task& task, vcl::Context& context,
                     const PartitioningSpace& space) override {
    return oracleSearch(task, context.machine(), space);
  }
};

/// The ML-guided strategy (deployment phase of the paper).
class PredictedStrategy final : public PartitioningStrategy {
public:
  explicit PredictedStrategy(std::shared_ptr<const ml::Classifier> model)
      : model_(std::move(model)) {}

  std::size_t choose(const Task& task, vcl::Context&,
                     const PartitioningSpace& space) override {
    TP_REQUIRE(model_ != nullptr, "PredictedStrategy: no model");
    const auto x =
        features::combinedFeatureVector(task.features, task.launchInfo());
    const int label = model_->predict(x);
    TP_REQUIRE(label >= 0 && static_cast<std::size_t>(label) < space.size(),
               "model predicted label " << label << " outside the space");
    return static_cast<std::size_t>(label);
  }

private:
  std::shared_ptr<const ml::Classifier> model_;
};

}  // namespace tp::runtime

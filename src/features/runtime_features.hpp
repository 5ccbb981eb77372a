#pragma once

// Problem-size dependent runtime features (paper §2: "runtime features,
// whose values are collected during program execution").
//
// At kernel launch the runtime knows the NDRange, the scalar argument
// values, and the buffer transfer volumes. Binding those into the symbolic
// static counts yields the input-sensitive half of the model's feature
// vector.
//
// Evaluate once: each vector binds the launch through one
// KernelFeatures::evaluate call, which resolves every parameter once and
// sums the kernel's flat polynomials (compiled with the kernel, see
// static_features.hpp). The static half is copied from the compiled
// kernel. Every value is bit-identical to evaluating the symbolic
// WorkExprs under `sizeBindings` plus the get_global_size binding.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "features/static_features.hpp"

namespace tp::features {

/// Everything the runtime knows at launch time.
struct LaunchInfo {
  /// Integer kernel arguments by parameter name (e.g. {"K", 512}), owned
  /// by the caller: Task::launchInfo() points at the task's own map, so
  /// building a LaunchInfo copies no map. Null means no bindings.
  const std::map<std::string, double>* sizeBindings = nullptr;
  std::size_t globalSize = 0;  ///< total work items (dimension 0)
  std::size_t localSize = 0;   ///< work-group size
  double bytesToDevice = 0.0;  ///< host→device transfer volume (all buffers)
  double bytesFromDevice = 0.0;  ///< device→host transfer volume
};

std::vector<std::string> runtimeFeatureNames();
/// Length of runtimeFeatureVector().
inline constexpr std::size_t kNumRuntimeFeatures = 13;

/// Evaluate the symbolic features under the launch bindings.
std::vector<double> runtimeFeatureVector(const KernelFeatures& f,
                                         const LaunchInfo& launch);

/// Combined schema: staticFeatureNames() ++ runtimeFeatureNames().
std::vector<std::string> combinedFeatureNames();
std::vector<double> combinedFeatureVector(const KernelFeatures& f,
                                          const LaunchInfo& launch);

}  // namespace tp::features

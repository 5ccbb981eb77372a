#include "features/runtime_features.hpp"

namespace tp::features {

std::vector<std::string> runtimeFeatureNames() {
  return {
      "r_global_size",
      "r_local_size",
      "r_per_item_ops",
      "r_per_item_flops",
      "r_per_item_special",
      "r_per_item_loads",
      "r_per_item_stores",
      "r_per_item_branches",
      "r_total_ops",
      "r_bytes_to_device",
      "r_bytes_from_device",
      "r_arith_intensity",
      "r_transfer_compute_ratio",
  };
}

namespace {

void appendRuntimeFeatures(const KernelFeatures& f, const LaunchInfo& launch,
                           std::vector<double>& out) {
  static const std::map<std::string, double> kNoBindings;
  const LaunchCounts c = f.evaluate(
      launch.sizeBindings != nullptr ? *launch.sizeBindings : kNoBindings,
      launch.globalSize);
  const double perItemOps = c[Count::ArithmeticOps];
  const double items = static_cast<double>(launch.globalSize);
  const double totalOps = perItemOps * items;
  const double transfer = launch.bytesToDevice + launch.bytesFromDevice;

  out.push_back(items);
  out.push_back(static_cast<double>(launch.localSize));
  out.push_back(perItemOps);
  out.push_back(c[Count::FloatOps]);
  out.push_back(c[Count::SpecialOps]);
  out.push_back(c[Count::GlobalLoads]);
  out.push_back(c[Count::GlobalStores]);
  out.push_back(c[Count::Branches]);
  out.push_back(totalOps);
  out.push_back(launch.bytesToDevice);
  out.push_back(launch.bytesFromDevice);
  out.push_back(c.arithmeticIntensity());
  out.push_back(totalOps > 0.0 ? transfer / totalOps : 0.0);
}

}  // namespace

std::vector<double> runtimeFeatureVector(const KernelFeatures& f,
                                         const LaunchInfo& launch) {
  std::vector<double> v;
  v.reserve(kNumRuntimeFeatures);
  appendRuntimeFeatures(f, launch, v);
  return v;
}

std::vector<std::string> combinedFeatureNames() {
  auto names = staticFeatureNames();
  const auto rt = runtimeFeatureNames();
  names.insert(names.end(), rt.begin(), rt.end());
  return names;
}

std::vector<double> combinedFeatureVector(const KernelFeatures& f,
                                          const LaunchInfo& launch) {
  std::vector<double> v;
  v.reserve(kNumStaticFeatures + kNumRuntimeFeatures);
  v.assign(f.staticVector().begin(), f.staticVector().end());
  appendRuntimeFeatures(f, launch, v);
  return v;
}

}  // namespace tp::features

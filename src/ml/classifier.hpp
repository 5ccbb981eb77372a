#pragma once

// Common interface of all task-partitioning predictors.
//
// Models map a combined feature vector to a partitioning class index (the
// discretized partitioning space lives in src/runtime/partitioning.hpp; the
// learners are agnostic to what the labels mean).

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace tp::ml {

class Classifier {
public:
  virtual ~Classifier() = default;

  virtual void train(const Dataset& data) = 0;
  virtual int predict(const std::vector<double>& x) const = 0;

  /// Per-class scores (higher = more likely); default implementations may
  /// return a one-hot vector for models without calibrated scores.
  virtual std::vector<double> scores(const std::vector<double>& x) const;

  /// Text serialization. Only the deployable kinds (forest, mostfreq,
  /// and the trees inside a forest) implement it; every other model is
  /// trained where it is compared and throws tp::Error here.
  virtual void save(std::ostream& os) const;
  virtual void load(std::istream& is);

  /// save() to a file. Throws tp::IoError on failure.
  void saveFile(const std::string& path) const;

  int numClasses() const noexcept { return numClasses_; }

protected:
  int numClasses_ = 0;
};

/// Factory. Specs: "tree", "forest", "knn", "mlp", "mostfreq".
/// Hyperparameters use a suffix syntax, e.g. "forest:64" (trees),
/// "knn:7" (neighbors), "mlp:32,32" (hidden layers).
std::unique_ptr<Classifier> makeClassifier(const std::string& spec,
                                           std::uint64_t seed = 42);

/// True when `spec` (a makeClassifier spec) names a kind loadClassifier
/// decodes: "forest" or "mostfreq", with any hyperparameter suffix.
bool isDeployableSpec(const std::string& spec);

/// Load a deployable model saved with save(): the header tag must be
/// "forest" or "mostfreq", and any other tag throws tp::IoError (a
/// tp::Error). The stream form reads from the current position (fleet
/// snapshots and model fan-out carry serialized models inside larger
/// messages).
std::unique_ptr<Classifier> loadClassifier(std::istream& is);
std::unique_ptr<Classifier> loadClassifierFile(const std::string& path);

}  // namespace tp::ml

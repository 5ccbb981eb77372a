#pragma once

// Multi-layer perceptron classifier: fully-connected ReLU layers, softmax
// cross-entropy output, Adam optimizer, mini-batch training. This mirrors
// the artificial-neural-network models used in the Insieme task-partitioning
// line of work. Deterministic given (data, seed).

#include <cstdint>

#include "common/rng.hpp"
#include "ml/classifier.hpp"
#include "ml/normalizer.hpp"

namespace tp::ml {

struct MlpOptions {
  std::vector<int> hiddenLayers = {32, 16};
  int epochs = 400;
  int batchSize = 32;
  double learningRate = 3e-3;
  double weightDecay = 1e-5;
};

class MlpClassifier final : public Classifier {
public:
  explicit MlpClassifier(MlpOptions options = {}, std::uint64_t seed = 42)
      : options_(options), rng_(seed) {}

  void train(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;
  std::vector<double> scores(const std::vector<double>& x) const override;

  /// Mean cross-entropy on the training set after training (diagnostics).
  double finalTrainingLoss() const noexcept { return finalLoss_; }

private:
  struct Layer {
    int inputs = 0;
    int outputs = 0;
    std::vector<double> weights;  // outputs x inputs, row-major
    std::vector<double> bias;     // outputs
  };

  std::vector<double> forward(const std::vector<double>& z,
                              std::vector<std::vector<double>>* activations)
      const;

  MlpOptions options_;
  common::Rng rng_;
  Normalizer normalizer_;
  std::vector<Layer> layers_;
  double finalLoss_ = 0.0;
};

}  // namespace tp::ml

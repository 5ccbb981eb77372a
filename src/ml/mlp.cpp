#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace tp::ml {

namespace {

void softmaxInPlace(std::vector<double>& v) {
  const double mx = *std::max_element(v.begin(), v.end());
  double sum = 0.0;
  for (double& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (double& x : v) x /= sum;
}

}  // namespace

std::vector<double> MlpClassifier::forward(
    const std::vector<double>& z,
    std::vector<std::vector<double>>* activations) const {
  std::vector<double> current = z;
  if (activations != nullptr) activations->push_back(current);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    std::vector<double> next(static_cast<std::size_t>(layer.outputs));
    for (int o = 0; o < layer.outputs; ++o) {
      double acc = layer.bias[static_cast<std::size_t>(o)];
      const double* w =
          &layer.weights[static_cast<std::size_t>(o) *
                         static_cast<std::size_t>(layer.inputs)];
      for (int i = 0; i < layer.inputs; ++i) {
        acc += w[i] * current[static_cast<std::size_t>(i)];
      }
      next[static_cast<std::size_t>(o)] = acc;
    }
    const bool isOutput = (l + 1 == layers_.size());
    if (!isOutput) {
      for (double& x : next) x = std::max(0.0, x);  // ReLU
    }
    current = std::move(next);
    if (activations != nullptr) activations->push_back(current);
  }
  softmaxInPlace(current);
  return current;
}

void MlpClassifier::train(const Dataset& data) {
  data.validate();
  TP_REQUIRE(data.size() > 0, "MlpClassifier: empty training set");
  numClasses_ = data.numClasses;
  normalizer_.fit(data.X);
  const auto X = normalizer_.transformAll(data.X);
  const std::size_t n = X.size();
  const int inputDim = static_cast<int>(X.front().size());

  // Build layer sizes: input -> hidden... -> classes.
  std::vector<int> sizes;
  sizes.push_back(inputDim);
  for (const int h : options_.hiddenLayers) {
    TP_REQUIRE(h > 0, "MlpClassifier: non-positive hidden layer size");
    sizes.push_back(h);
  }
  sizes.push_back(numClasses_);

  layers_.clear();
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    Layer layer;
    layer.inputs = sizes[l];
    layer.outputs = sizes[l + 1];
    layer.weights.resize(static_cast<std::size_t>(layer.inputs) *
                         static_cast<std::size_t>(layer.outputs));
    layer.bias.assign(static_cast<std::size_t>(layer.outputs), 0.0);
    // He initialization.
    const double scale = std::sqrt(2.0 / layer.inputs);
    for (double& w : layer.weights) w = rng_.gaussian(0.0, scale);
    layers_.push_back(std::move(layer));
  }

  // Adam state.
  struct AdamState {
    std::vector<double> mW, vW, mB, vB;
  };
  std::vector<AdamState> adam(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    adam[l].mW.assign(layers_[l].weights.size(), 0.0);
    adam[l].vW.assign(layers_[l].weights.size(), 0.0);
    adam[l].mB.assign(layers_[l].bias.size(), 0.0);
    adam[l].vB.assign(layers_[l].bias.size(), 0.0);
  }
  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  long long step = 0;

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const std::size_t batchSize =
      std::min<std::size_t>(static_cast<std::size_t>(options_.batchSize), n);

  // Gradient accumulators, same shapes as the layers.
  std::vector<std::vector<double>> gradW(layers_.size()), gradB(layers_.size());

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (std::size_t start = 0; start < n; start += batchSize) {
      const std::size_t end = std::min(start + batchSize, n);
      const double invBatch = 1.0 / static_cast<double>(end - start);
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        gradW[l].assign(layers_[l].weights.size(), 0.0);
        gradB[l].assign(layers_[l].bias.size(), 0.0);
      }

      for (std::size_t bi = start; bi < end; ++bi) {
        const std::size_t idx = order[bi];
        std::vector<std::vector<double>> activations;
        std::vector<double> probs = forward(X[idx], &activations);
        // activations[l] is the input to layer l; activations.back() is the
        // pre-softmax logits of the output layer.
        std::vector<double> delta = probs;  // dL/dlogits for CE + softmax
        delta[static_cast<std::size_t>(data.y[idx])] -= 1.0;

        for (std::size_t l = layers_.size(); l-- > 0;) {
          const Layer& layer = layers_[l];
          const auto& input = activations[l];
          // Accumulate gradients.
          for (int o = 0; o < layer.outputs; ++o) {
            const double d = delta[static_cast<std::size_t>(o)];
            gradB[l][static_cast<std::size_t>(o)] += d * invBatch;
            double* gw = &gradW[l][static_cast<std::size_t>(o) *
                                   static_cast<std::size_t>(layer.inputs)];
            for (int i = 0; i < layer.inputs; ++i) {
              gw[i] += d * input[static_cast<std::size_t>(i)] * invBatch;
            }
          }
          if (l == 0) break;
          // Propagate delta through weights and the previous ReLU.
          std::vector<double> prevDelta(
              static_cast<std::size_t>(layer.inputs), 0.0);
          for (int o = 0; o < layer.outputs; ++o) {
            const double d = delta[static_cast<std::size_t>(o)];
            const double* w =
                &layer.weights[static_cast<std::size_t>(o) *
                               static_cast<std::size_t>(layer.inputs)];
            for (int i = 0; i < layer.inputs; ++i) {
              prevDelta[static_cast<std::size_t>(i)] += d * w[i];
            }
          }
          for (int i = 0; i < layer.inputs; ++i) {
            if (activations[l][static_cast<std::size_t>(i)] <= 0.0) {
              prevDelta[static_cast<std::size_t>(i)] = 0.0;  // ReLU'
            }
          }
          delta = std::move(prevDelta);
        }
      }

      // Adam update.
      ++step;
      const double correction1 = 1.0 - std::pow(beta1, static_cast<double>(step));
      const double correction2 = 1.0 - std::pow(beta2, static_cast<double>(step));
      for (std::size_t l = 0; l < layers_.size(); ++l) {
        Layer& layer = layers_[l];
        for (std::size_t k = 0; k < layer.weights.size(); ++k) {
          const double g = gradW[l][k] + options_.weightDecay * layer.weights[k];
          adam[l].mW[k] = beta1 * adam[l].mW[k] + (1 - beta1) * g;
          adam[l].vW[k] = beta2 * adam[l].vW[k] + (1 - beta2) * g * g;
          layer.weights[k] -= options_.learningRate *
                              (adam[l].mW[k] / correction1) /
                              (std::sqrt(adam[l].vW[k] / correction2) + eps);
        }
        for (std::size_t k = 0; k < layer.bias.size(); ++k) {
          const double g = gradB[l][k];
          adam[l].mB[k] = beta1 * adam[l].mB[k] + (1 - beta1) * g;
          adam[l].vB[k] = beta2 * adam[l].vB[k] + (1 - beta2) * g * g;
          layer.bias[k] -= options_.learningRate *
                           (adam[l].mB[k] / correction1) /
                           (std::sqrt(adam[l].vB[k] / correction2) + eps);
        }
      }
    }
  }

  // Final training loss (diagnostics / convergence tests).
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto probs = forward(X[i], nullptr);
    loss -= std::log(
        std::max(1e-12, probs[static_cast<std::size_t>(data.y[i])]));
  }
  finalLoss_ = loss / static_cast<double>(n);
}

std::vector<double> MlpClassifier::scores(const std::vector<double>& x) const {
  TP_ASSERT_MSG(!layers_.empty(), "predict called on untrained mlp");
  return forward(normalizer_.transform(x), nullptr);
}

int MlpClassifier::predict(const std::vector<double>& x) const {
  const auto s = scores(x);
  return static_cast<int>(std::max_element(s.begin(), s.end()) - s.begin());
}

}  // namespace tp::ml

#pragma once

// k-nearest-neighbors classifier (inverse-distance-weighted voting in the
// normalized feature space). Simple, surprisingly competitive on this task,
// and a useful sanity baseline for the learned models.

#include "ml/classifier.hpp"
#include "ml/normalizer.hpp"

namespace tp::ml {

class KnnClassifier final : public Classifier {
public:
  explicit KnnClassifier(int k = 5) : k_(k) {}

  void train(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;
  std::vector<double> scores(const std::vector<double>& x) const override;

private:
  int k_;
  Normalizer normalizer_;
  std::vector<std::vector<double>> X_;
  std::vector<int> y_;
};

}  // namespace tp::ml

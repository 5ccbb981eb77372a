#include "ml/knn.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace tp::ml {

void KnnClassifier::train(const Dataset& data) {
  data.validate();
  TP_REQUIRE(data.size() > 0, "KnnClassifier: empty training set");
  TP_REQUIRE(k_ >= 1, "KnnClassifier: k must be >= 1");
  numClasses_ = data.numClasses;
  normalizer_.fit(data.X);
  X_ = normalizer_.transformAll(data.X);
  y_ = data.y;
}

std::vector<double> KnnClassifier::scores(const std::vector<double>& x) const {
  TP_ASSERT_MSG(!X_.empty(), "predict called on untrained knn");
  const std::vector<double> z = normalizer_.transform(x);

  std::vector<std::pair<double, int>> distances;  // (squared distance, label)
  distances.reserve(X_.size());
  for (std::size_t i = 0; i < X_.size(); ++i) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < z.size(); ++j) {
      const double delta = X_[i][j] - z[j];
      d2 += delta * delta;
    }
    distances.emplace_back(d2, y_[i]);
  }
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(k_),
                                              distances.size());
  std::partial_sort(distances.begin(), distances.begin() + static_cast<long>(k),
                    distances.end());

  std::vector<double> votes(static_cast<std::size_t>(numClasses_), 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    const double weight = 1.0 / (std::sqrt(distances[i].first) + 1e-6);
    votes[static_cast<std::size_t>(distances[i].second)] += weight;
  }
  const double total = std::accumulate(votes.begin(), votes.end(), 0.0);
  if (total > 0.0) {
    for (double& v : votes) v /= total;
  }
  return votes;
}

int KnnClassifier::predict(const std::vector<double>& x) const {
  const auto s = scores(x);
  return static_cast<int>(std::max_element(s.begin(), s.end()) - s.begin());
}

}  // namespace tp::ml

#pragma once

// Principal component analysis via cyclic Jacobi eigendecomposition of the
// covariance matrix. Used as an optional dimensionality-reduction step in
// the feature-set ablation (the full Insieme pipeline applied PCA before
// its neural models).

#include <vector>

namespace tp::ml {

class Pca {
public:
  /// Fit on raw rows; keeps the smallest number of components whose
  /// cumulative explained variance reaches `varianceFraction` (or exactly
  /// `fixedComponents` if > 0).
  void fit(const std::vector<std::vector<double>>& X,
           double varianceFraction = 0.99, int fixedComponents = 0);

  bool fitted() const noexcept { return !components_.empty(); }
  std::size_t inputDim() const noexcept { return mean_.size(); }
  std::size_t numComponents() const noexcept { return components_.size(); }

  std::vector<double> transform(const std::vector<double>& x) const;

  /// Explained variance (eigenvalue) of each kept component, descending.
  const std::vector<double>& explainedVariance() const noexcept {
    return eigenvalues_;
  }

  /// Eigendecomposition of a symmetric matrix (exposed for tests):
  /// returns eigenvalues (descending) and matching eigenvectors (rows).
  static void symmetricEigen(std::vector<std::vector<double>> a,
                             std::vector<double>& eigenvalues,
                             std::vector<std::vector<double>>& eigenvectors);

private:
  std::vector<double> mean_;
  std::vector<std::vector<double>> components_;  ///< rows = components
  std::vector<double> eigenvalues_;
};

}  // namespace tp::ml

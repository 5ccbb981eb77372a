#include "ml/pca.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace tp::ml {

void Pca::symmetricEigen(std::vector<std::vector<double>> a,
                         std::vector<double>& eigenvalues,
                         std::vector<std::vector<double>>& eigenvectors) {
  const std::size_t n = a.size();
  TP_ASSERT(n > 0);
  for (const auto& row : a) TP_ASSERT(row.size() == n);

  // v = identity
  std::vector<std::vector<double>> v(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) v[i][i] = 1.0;

  // Cyclic Jacobi sweeps.
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) off += a[p][q] * a[p][q];
    }
    if (off < 1e-22) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        if (std::fabs(a[p][q]) < 1e-300) continue;
        const double theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
        const double t = (theta >= 0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k][p];
          const double akq = a[k][q];
          a[k][p] = c * akp - s * akq;
          a[k][q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p][k];
          const double aqk = a[q][k];
          a[p][k] = c * apk - s * aqk;
          a[q][k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = v[k][p];
          const double vkq = v[k][q];
          v[k][p] = c * vkp - s * vkq;
          v[k][q] = s * vkp + c * vkq;
        }
      }
    }
  }

  // Extract and sort by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return a[x][x] > a[y][y]; });

  eigenvalues.resize(n);
  eigenvectors.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t r = 0; r < n; ++r) {
    eigenvalues[r] = a[order[r]][order[r]];
    for (std::size_t k = 0; k < n; ++k) {
      eigenvectors[r][k] = v[k][order[r]];  // column → row
    }
  }
}

void Pca::fit(const std::vector<std::vector<double>>& X,
              double varianceFraction, int fixedComponents) {
  TP_REQUIRE(!X.empty(), "Pca::fit: empty matrix");
  const std::size_t n = X.size();
  const std::size_t d = X.front().size();

  mean_.assign(d, 0.0);
  for (const auto& row : X) {
    TP_REQUIRE(row.size() == d, "Pca::fit: ragged rows");
    for (std::size_t j = 0; j < d; ++j) mean_[j] += row[j];
  }
  for (double& m : mean_) m /= static_cast<double>(n);

  // Covariance matrix.
  std::vector<std::vector<double>> cov(d, std::vector<double>(d, 0.0));
  for (const auto& row : X) {
    for (std::size_t i = 0; i < d; ++i) {
      const double di = row[i] - mean_[i];
      for (std::size_t j = i; j < d; ++j) {
        cov[i][j] += di * (row[j] - mean_[j]);
      }
    }
  }
  const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = i; j < d; ++j) {
      cov[i][j] /= denom;
      cov[j][i] = cov[i][j];
    }
  }

  std::vector<double> eigenvalues;
  std::vector<std::vector<double>> eigenvectors;
  symmetricEigen(std::move(cov), eigenvalues, eigenvectors);

  std::size_t keep;
  if (fixedComponents > 0) {
    keep = std::min<std::size_t>(static_cast<std::size_t>(fixedComponents), d);
  } else {
    const double total =
        std::accumulate(eigenvalues.begin(), eigenvalues.end(), 0.0,
                        [](double acc, double v) { return acc + std::max(0.0, v); });
    keep = d;
    if (total > 0.0) {
      double cum = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        cum += std::max(0.0, eigenvalues[k]);
        if (cum / total >= varianceFraction) {
          keep = k + 1;
          break;
        }
      }
    }
  }

  components_.assign(eigenvectors.begin(),
                     eigenvectors.begin() + static_cast<long>(keep));
  eigenvalues_.assign(eigenvalues.begin(),
                      eigenvalues.begin() + static_cast<long>(keep));
}

std::vector<double> Pca::transform(const std::vector<double>& x) const {
  TP_ASSERT(fitted());
  TP_REQUIRE(x.size() == mean_.size(), "Pca::transform: dimension mismatch");
  std::vector<double> out(components_.size(), 0.0);
  for (std::size_t c = 0; c < components_.size(); ++c) {
    double acc = 0.0;
    for (std::size_t j = 0; j < mean_.size(); ++j) {
      acc += components_[c][j] * (x[j] - mean_[j]);
    }
    out[c] = acc;
  }
  return out;
}

}  // namespace tp::ml

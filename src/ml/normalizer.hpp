#pragma once

// Feature normalization. Raw features span many orders of magnitude
// (problem sizes 2^10..2^24, op counts, byte counts), so every learner
// first applies signed log compression then per-feature standardization.
// Fitted parameters serialize with the model.

#include <cmath>
#include <iosfwd>
#include <vector>

namespace tp::ml {

class Normalizer {
public:
  /// Fit per-feature mean/stddev of log-compressed values.
  void fit(const std::vector<std::vector<double>>& X);

  bool fitted() const noexcept { return !mean_.empty(); }
  std::size_t numFeatures() const noexcept { return mean_.size(); }

  std::vector<double> transform(const std::vector<double>& x) const;
  /// Feature `j` of transform(): (compress(v) - mean) * inverseStd. For a
  /// column with inverseStd > 0 it is non-decreasing in v over the non-NaN
  /// doubles; a zero-variance column (inverseStd == 0) maps every finite v
  /// to ±0 and ±inf to NaN.
  double transformOne(std::size_t j, double v) const {
    return (compress(v) - mean_[j]) * inverseStd_[j];
  }
  /// An approximate inverse of transformOne() for a column with
  /// inverseStd > 0: the raw value whose standardization is about z.
  double inverseTransformOne(std::size_t j, double z) const {
    const double c = z / inverseStd_[j] + mean_[j];
    return c >= 0.0 ? std::expm1(c) : -std::expm1(-c);
  }
  double inverseStd(std::size_t j) const { return inverseStd_[j]; }
  std::vector<std::vector<double>> transformAll(
      const std::vector<std::vector<double>>& X) const;

  void save(std::ostream& os) const;
  void load(std::istream& is);

  /// Signed log1p compression used before standardization.
  static double compress(double v);

private:
  std::vector<double> mean_;
  std::vector<double> inverseStd_;
};

}  // namespace tp::ml

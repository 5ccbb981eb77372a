#include "ml/normalizer.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace tp::ml {

double Normalizer::compress(double v) {
  return v >= 0.0 ? std::log1p(v) : -std::log1p(-v);
}

void Normalizer::fit(const std::vector<std::vector<double>>& X) {
  TP_REQUIRE(!X.empty(), "Normalizer::fit: empty matrix");
  const std::size_t d = X.front().size();
  mean_.assign(d, 0.0);
  inverseStd_.assign(d, 1.0);

  for (const auto& row : X) {
    TP_REQUIRE(row.size() == d, "Normalizer::fit: ragged rows");
    for (std::size_t j = 0; j < d; ++j) mean_[j] += compress(row[j]);
  }
  for (double& m : mean_) m /= static_cast<double>(X.size());

  std::vector<double> var(d, 0.0);
  for (const auto& row : X) {
    for (std::size_t j = 0; j < d; ++j) {
      const double delta = compress(row[j]) - mean_[j];
      var[j] += delta * delta;
    }
  }
  for (std::size_t j = 0; j < d; ++j) {
    const double stddev = std::sqrt(var[j] / static_cast<double>(X.size()));
    // Degenerate columns: a constant feature has stddev 0, and a
    // *near*-constant one has a stddev that is pure floating-point
    // rounding noise — inverting it would produce a ~1e12 scale factor
    // that amplifies jitter into huge standardized values downstream
    // (distance blow-ups in kNN, saturated/overflowing MLP activations).
    // The threshold is relative to the column's compressed magnitude so
    // large-valued constant columns are caught too; such columns carry no
    // signal and map to exactly 0.
    const double noiseFloor = 1e-9 * std::max(1.0, std::fabs(mean_[j]));
    inverseStd_[j] =
        std::isfinite(stddev) && stddev > noiseFloor ? 1.0 / stddev : 0.0;
  }
}

std::vector<double> Normalizer::transform(const std::vector<double>& x) const {
  TP_ASSERT(fitted());
  TP_REQUIRE(x.size() == mean_.size(),
             "Normalizer::transform: expected " << mean_.size()
                                                << " features, got "
                                                << x.size());
  std::vector<double> out(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    out[j] = (compress(x[j]) - mean_[j]) * inverseStd_[j];
  }
  return out;
}

std::vector<std::vector<double>> Normalizer::transformAll(
    const std::vector<std::vector<double>>& X) const {
  std::vector<std::vector<double>> out;
  out.reserve(X.size());
  for (const auto& row : X) out.push_back(transform(row));
  return out;
}

void Normalizer::save(std::ostream& os) const {
  os.precision(17);
  os << "normalizer " << mean_.size() << "\n";
  for (std::size_t j = 0; j < mean_.size(); ++j) {
    os << mean_[j] << ' ' << inverseStd_[j] << "\n";
  }
}

void Normalizer::load(std::istream& is) {
  std::string tag;
  std::size_t d = 0;
  is >> tag >> d;
  TP_REQUIRE(is && tag == "normalizer", "bad normalizer header");
  TP_REQUIRE(d > 0, "normalizer: no features");
  // One feature at a time: a lying dimension fails at the first missing
  // pair instead of sizing an allocation.
  mean_.clear();
  inverseStd_.clear();
  for (std::size_t j = 0; j < d; ++j) {
    double mean = 0.0;
    double inverseStd = 0.0;
    is >> mean >> inverseStd;
    TP_REQUIRE(static_cast<bool>(is), "truncated normalizer data");
    TP_REQUIRE(std::isfinite(mean) && std::isfinite(inverseStd),
               "normalizer: non-finite parameters for feature " << j);
    mean_.push_back(mean);
    inverseStd_.push_back(inverseStd);
  }
}

}  // namespace tp::ml

#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace tp::common {

double mean(const std::vector<double>& xs) {
  TP_ASSERT(!xs.empty());
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double geomean(const std::vector<double>& xs) {
  TP_ASSERT(!xs.empty());
  double s = 0.0;
  for (double x : xs) {
    TP_ASSERT_MSG(x > 0.0, "geomean requires positive values, got " << x);
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(xs.size()));
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  TP_ASSERT(!xs.empty());
  TP_ASSERT(p >= 0.0 && p <= 100.0);
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  // Multiply before dividing: p/100 is not exactly representable for most
  // p (e.g. 0.95), and `p / 100.0 * (n-1)` lands a hair *below* integer
  // ranks — p95 of 21 samples interpolated between ranks 18 and 19
  // instead of returning xs[19] exactly. p * (n-1) / 100 is exact
  // whenever p*(n-1) is a multiple of 100.
  const double rank = p * static_cast<double>(xs.size() - 1) / 100.0;
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double maxOf(const std::vector<double>& xs) {
  TP_ASSERT(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  TP_ASSERT(xs.size() == ys.size());
  TP_ASSERT(xs.size() >= 2);
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace tp::common

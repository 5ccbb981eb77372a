#pragma once

// Descriptive statistics used by benchmark harnesses and model evaluation.

#include <cstddef>
#include <vector>

namespace tp::common {

double mean(const std::vector<double>& xs);
double geomean(const std::vector<double>& xs);  ///< xs must be all-positive
double stddev(const std::vector<double>& xs);   ///< sample stddev (n-1)
double median(std::vector<double> xs);          ///< by value: sorts a copy
/// Linear-interpolated percentile, p in [0,100].
double percentile(std::vector<double> xs, double p);
double maxOf(const std::vector<double>& xs);

/// Streaming mean/variance (Welford). Numerically stable.
class RunningStats {
public:
  void add(double x);
  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return mean_; }
  double variance() const;  ///< sample variance; 0 when n < 2
  double stddev() const;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson correlation coefficient; requires equal sizes and n >= 2.
double pearson(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace tp::common

// LibLSB-style measurement statistics (paper Sec. IV, methodology of
// Hoefler & Belli [13]): experiments are repeated until the nonparametric
// 95% confidence interval of the median is within 5% of the median.
#pragma once

#include <cstddef>
#include <vector>

namespace clampi::metrics {

/// Summary of a sample set.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double ci_lo = 0.0;   ///< lower bound of the 95% CI of the median
  double ci_hi = 0.0;   ///< upper bound of the 95% CI of the median
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;

  /// CI half-width relative to the median (paper's 5% stopping rule).
  double ci_rel_width() const;
};

/// Compute the summary; the 95% CI of the median uses binomial order
/// statistics (distribution-free).
Summary summarize(std::vector<double> samples);

/// Repetition controller implementing the paper's stopping rule.
class RepetitionController {
 public:
  struct Config {
    std::size_t min_reps = 9;      ///< below this a median CI is meaningless
    std::size_t max_reps = 2000;   ///< hard cap
    double rel_width = 0.05;       ///< stop when CI is within 5% of median
  };

  RepetitionController() : cfg_(Config{}) {}
  explicit RepetitionController(Config cfg) : cfg_(cfg) {}

  void add(double sample) { samples_.push_back(sample); }
  bool done() const;
  Summary summary() const { return summarize(samples_); }
  const std::vector<double>& samples() const { return samples_; }
  void reset() { samples_.clear(); }

 private:
  Config cfg_;
  std::vector<double> samples_;
};

}  // namespace clampi::metrics

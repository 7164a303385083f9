#include "metrics/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace clampi::metrics {

double Summary::ci_rel_width() const {
  if (median == 0.0) return 0.0;
  return std::max(ci_hi - median, median - ci_lo) / std::abs(median);
}

Summary summarize(std::vector<double> s) {
  Summary out;
  out.n = s.size();
  if (s.empty()) return out;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  out.min = s.front();
  out.max = s.back();
  out.mean = std::accumulate(s.begin(), s.end(), 0.0) / static_cast<double>(n);
  out.median = n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);

  // Distribution-free CI of the median from binomial order statistics:
  // ranks j and k such that P(X_(j) <= m <= X_(k)) >= 95%, using the
  // normal approximation j,k = n/2 -+ 1.96*sqrt(n)/2 (clamped).
  const double half = 1.959963985 * std::sqrt(static_cast<double>(n)) / 2.0;
  const auto lo_idx = static_cast<std::size_t>(
      std::max(0.0, std::floor(static_cast<double>(n) / 2.0 - half) - 1.0));
  const auto hi_idx = static_cast<std::size_t>(
      std::min(static_cast<double>(n - 1),
               std::ceil(static_cast<double>(n) / 2.0 + half)));
  out.ci_lo = s[lo_idx];
  out.ci_hi = s[hi_idx];
  return out;
}

bool RepetitionController::done() const {
  if (samples_.size() >= cfg_.max_reps) return true;
  if (samples_.size() < cfg_.min_reps) return false;
  return summarize(samples_).ci_rel_width() <= cfg_.rel_width;
}

}  // namespace clampi::metrics

// Tests for the LibLSB-style measurement statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "metrics/quantile.h"
#include "metrics/sliding_window.h"
#include "metrics/stats.h"
#include "util/rng.h"

namespace {

using clampi::metrics::RepetitionController;
using clampi::metrics::SlidingWindowCounter;
using clampi::metrics::Summary;
using clampi::metrics::summarize;

TEST(Summarize, EmptyAndSingle) {
  EXPECT_EQ(summarize({}).n, 0u);
  const Summary s = summarize({42.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.median, 42.0);
  EXPECT_DOUBLE_EQ(s.min, 42.0);
  EXPECT_DOUBLE_EQ(s.max, 42.0);
}

TEST(Summarize, OddAndEvenMedians) {
  EXPECT_DOUBLE_EQ(summarize({3, 1, 2}).median, 2.0);
  EXPECT_DOUBLE_EQ(summarize({4, 1, 2, 3}).median, 2.5);
}

TEST(Summarize, MeanMinMax) {
  const Summary s = summarize({1, 2, 3, 4, 10});
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(Summarize, CiBracketsMedian) {
  clampi::util::Xoshiro256 rng(9);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(100.0 + rng.uniform() * 10.0);
  const Summary s = summarize(v);
  EXPECT_LE(s.ci_lo, s.median);
  EXPECT_GE(s.ci_hi, s.median);
  EXPECT_GE(s.ci_lo, s.min);
  EXPECT_LE(s.ci_hi, s.max);
}

TEST(Summarize, CiShrinksWithSampleCount) {
  clampi::util::Xoshiro256 rng(10);
  auto rel_width = [&rng](int n) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(50.0 + rng.uniform() * 20.0);
    return summarize(v).ci_rel_width();
  };
  EXPECT_LT(rel_width(4000), rel_width(40));
}

TEST(RepetitionController, StopsWhenTight) {
  RepetitionController rc;
  // Identical samples: CI width 0 -> done as soon as min_reps reached.
  for (int i = 0; i < 20; ++i) {
    const bool expect_done = i >= 9;
    EXPECT_EQ(rc.done(), expect_done) << "after " << i << " samples";
    rc.add(5.0);
  }
  EXPECT_TRUE(rc.done());
}

TEST(RepetitionController, CapsAtMaxReps) {
  RepetitionController::Config cfg;
  cfg.max_reps = 50;
  cfg.rel_width = 1e-12;  // practically unreachable for noisy data
  RepetitionController rc(cfg);
  clampi::util::Xoshiro256 rng(11);
  while (!rc.done()) rc.add(rng.uniform() * 100.0);
  EXPECT_EQ(rc.samples().size(), 50u);
}

TEST(RepetitionController, PaperStoppingRule) {
  // The paper: 95% CI within 5% of the reported median. Feed mildly noisy
  // samples and check the rule terminates well before the cap.
  RepetitionController rc;
  clampi::util::Xoshiro256 rng(12);
  while (!rc.done()) rc.add(100.0 + rng.uniform() * 8.0);
  EXPECT_LT(rc.samples().size(), 2000u);
  EXPECT_LE(rc.summary().ci_rel_width(), 0.05);
}

TEST(SlidingWindowCounter, CountsOnlyTrailingWindow) {
  SlidingWindowCounter w(100.0);
  w.add(0.0);
  w.add(50.0);
  w.add(90.0);
  EXPECT_EQ(w.count(90.0), 3u);
  // Events at exactly now - window fall out (window is half-open).
  EXPECT_EQ(w.count(100.0), 2u);
  EXPECT_EQ(w.count(149.0), 2u);
  EXPECT_EQ(w.count(151.0), 1u);
  EXPECT_EQ(w.count(500.0), 0u);
}

TEST(SlidingWindowCounter, AddPrunesLazily) {
  SlidingWindowCounter w(10.0);
  for (int i = 0; i < 1000; ++i) w.add(static_cast<double>(i));
  // Only the trailing 10 us survive no matter how many were recorded.
  EXPECT_EQ(w.count(999.0), 10u);
  w.clear();
  EXPECT_EQ(w.count(999.0), 0u);
}

// --- P² quantile estimator (docs/FAULTS.md §8) ---

using clampi::metrics::P2Quantile;
using clampi::metrics::QuantileEstimator;

double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1.0);
  return v[std::min(idx, v.size() - 1)];
}

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile est(0.5);
  EXPECT_DOUBLE_EQ(est.quantile(), 0.0);  // empty: defined, not NaN
  est.add(30.0);
  EXPECT_DOUBLE_EQ(est.quantile(), 30.0);
  est.add(10.0);
  est.add(20.0);
  EXPECT_DOUBLE_EQ(est.quantile(), 20.0);  // nearest-rank of {10,20,30}
  est.add(5.0);
  EXPECT_DOUBLE_EQ(est.quantile(), 10.0);  // {5,10,20,30}: rank ceil(2)-1
}

TEST(P2Quantile, TracksUniformDistribution) {
  clampi::util::Xoshiro256 rng(77);
  for (const double q : {0.5, 0.9, 0.99}) {
    P2Quantile est(q);
    std::vector<double> v;
    for (int i = 0; i < 5000; ++i) {
      const double x = 100.0 + rng.uniform() * 900.0;
      v.push_back(x);
      est.add(x);
    }
    const double exact = exact_quantile(v, q);
    // P² is an estimate; on a smooth distribution it lands within a few
    // percent of the exact order statistic.
    EXPECT_NEAR(est.quantile(), exact, 0.05 * exact) << "q=" << q;
  }
}

TEST(P2Quantile, TracksZipfSpacedDistribution) {
  // Heavy-tailed spacing like the KV workload's popularity skew: values
  // 1/k^s so the mass piles up near the small end.
  clampi::util::Xoshiro256 rng(78);
  P2Quantile est(0.9);
  std::vector<double> v;
  for (int i = 0; i < 5000; ++i) {
    const double k = 1.0 + static_cast<double>(rng.bounded(1000));
    const double x = 1e6 / std::pow(k, 1.2);
    v.push_back(x);
    est.add(x);
  }
  const double exact = exact_quantile(v, 0.9);
  EXPECT_NEAR(est.quantile(), exact, 0.15 * exact);
}

TEST(P2Quantile, TracksBimodalStragglerMix) {
  // 90% fast ops near 100us, 10% straggled near 3000us — the regime the
  // hedge threshold must get right: p50 stays in the fast mode, p99 in
  // the slow one.
  clampi::util::Xoshiro256 rng(79);
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  for (int i = 0; i < 20000; ++i) {
    const bool slow = rng.bounded(10) == 0;
    const double x = (slow ? 3000.0 : 100.0) + rng.uniform() * 20.0;
    p50.add(x);
    p99.add(x);
  }
  EXPECT_GT(p50.quantile(), 90.0);
  EXPECT_LT(p50.quantile(), 200.0);
  EXPECT_GT(p99.quantile(), 2500.0);
  EXPECT_LT(p99.quantile(), 3100.0);
}

TEST(QuantileEstimator, WindowDecayForgetsAStragglerEpoch) {
  // Straggled samples fill one window; after two clean windows the
  // estimate must be back in the fast mode — this is what re-arms hedging
  // right after an epoch of slowness ends.
  QuantileEstimator est(0.9, 1000.0);
  double now = 0.0;
  for (int i = 0; i < 100; ++i) est.add(5000.0, now += 5.0);
  EXPECT_GT(est.quantile(), 4000.0);
  for (int i = 0; i < 400; ++i) est.add(100.0, now += 5.0);
  EXPECT_LT(est.quantile(), 200.0);
  EXPECT_EQ(est.samples(), 500u);  // lifetime count never resets
}

TEST(QuantileEstimator, IdleGapDropsTheStaleWindow) {
  QuantileEstimator est(0.9, 1000.0);
  for (int i = 0; i < 50; ++i) est.add(5000.0, 10.0 * i);
  // A gap of two-plus windows: the stale straggled estimate is dropped
  // rather than aged forward as "previous".
  est.add(100.0, 10000.0);
  est.add(110.0, 10001.0);
  EXPECT_LT(est.quantile(), 200.0);
}

TEST(QuantileEstimator, WarmingWindowFallsBackToPrevious) {
  QuantileEstimator est(0.5, 1000.0);
  double now = 0.0;
  for (int i = 0; i < 100; ++i) est.add(500.0, now += 5.0);
  // Roll into a fresh window with too few samples to trust: the previous
  // window's estimate answers.
  est.add(9000.0, now + 1000.0);
  EXPECT_NEAR(est.quantile(), 500.0, 50.0);
}

}  // namespace

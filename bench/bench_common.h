// Shared infrastructure for the figure-reproduction benchmarks.
//
// Every bench binary prints self-describing CSV rows:
//   # <figure id>: <description>
//   # col1,col2,...
//   val1,val2,...
// so `for b in build/bench/*; do $b; done` regenerates every figure's
// data series. Problem sizes default to the scaled-down values recorded
// in EXPERIMENTS.md; set CLAMPI_BENCH_SCALE (0 < s <= 1) to shrink them
// further for smoke runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "metrics/stats.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"

namespace clampi::benchx {

/// Engine with the Aries-calibrated model and the measured-time policy
/// (cache-management costs are real, the network is modelled; DESIGN.md).
inline rmasim::Engine::Config default_engine(int nranks) {
  rmasim::Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = net::make_aries_model(/*ranks_per_node=*/1);
  cfg.time_policy = rmasim::TimePolicy::kMeasured;
  return cfg;
}

/// Deterministic variant for structural figures (occupancy, histograms).
inline rmasim::Engine::Config modeled_engine(int nranks) {
  rmasim::Engine::Config cfg = default_engine(nranks);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

/// CLAMPI_BENCH_SCALE, or 1 when unset. Anything but a number in (0, 1]
/// ends the run with status 2: a typo must not silently run full scale.
inline double bench_scale() {
  const char* s = std::getenv("CLAMPI_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0 && v <= 1.0)) {
    std::fprintf(stderr, "CLAMPI_BENCH_SCALE=\"%s\" is not a number in (0, 1]\n", s);
    std::exit(2);
  }
  return v;
}

inline std::size_t scaled(std::size_t n, std::size_t min_n = 1) {
  const auto v = static_cast<std::size_t>(static_cast<double>(n) * bench_scale());
  return v < min_n ? min_n : v;
}

/// Median with the paper's 95%-CI-within-5% repetition rule.
using metrics::RepetitionController;
using metrics::Summary;
using metrics::summarize;

inline void header(const char* fig, const char* what, const char* columns) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // rows appear as they are computed
  std::printf("# %s: %s\n# %s\n", fig, what, columns);
}

}  // namespace clampi::benchx

// Fig. 12 — "Barnes-Hut force computation time per body (N = 20K,
// P = 16). The non-caching enabled body force computation needs 1.53 ms."
//
// Sweeps |S_w| for the CLaMPI fixed (|I_w| in {1K, 30K}) and adaptive
// strategies and the native block cache (memory = |S_w|). Expected shape
// (paper): fixed with |I_w| = 1K is throttled by conflicting accesses;
// adaptive converges to ~|S_w| = 1 MB / |I_w| ~ 20K and wins; the native
// cache improves steeply with memory (direct mapping: conflicts tied to
// memory size); everything beats foMPI.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bh_run.h"

using namespace clampi;

namespace {

struct Setup {
  const char* name;
  bh::CacheBackend backend;
  std::size_t iw;    // |I_w| (clampi only)
  std::size_t s_mb;  // |S_w| / native memory, MiB
  bool adaptive;
};

}  // namespace

int main() {
  const std::size_t nbodies = benchx::scaled(20000, 2000);
  const int nranks = 16;
  const int steps = 2;
  benchx::header("fig12", "BH force time per body vs |S_w| per strategy (N=20K, P=16)",
                 "strategy,index_entries,storage_mb,force_us_per_body,hit_ratio,"
                 "adjustments,invalidations,final_index_entries,final_storage_mb");

  std::vector<Setup> setups;
  setups.push_back({"foMPI", bh::CacheBackend::kNone, 0, 0, false});
  for (const std::size_t s_mb : {1u, 2u, 4u}) {
    setups.push_back({"native", bh::CacheBackend::kNative, 0, s_mb, false});
    setups.push_back({"fixed", bh::CacheBackend::kClampi, std::size_t{1} << 10, s_mb, false});
    setups.push_back(
        {"fixed", bh::CacheBackend::kClampi, std::size_t{30} << 10, s_mb, false});
    setups.push_back(
        {"adaptive", bh::CacheBackend::kClampi, std::size_t{1} << 10, s_mb, true});
  }

  // One body set per configuration, created up front: every rank must see
  // the same instance.
  std::vector<std::shared_ptr<bh::SharedBodies>> bodies;
  bodies.reserve(setups.size());
  for (std::size_t i = 0; i < setups.size(); ++i) {
    bodies.push_back(std::make_shared<bh::SharedBodies>(nbodies, 2026));
  }

  rmasim::Engine engine(benchx::default_engine(nranks));
  engine.run([&](rmasim::Process& p) {
    for (std::size_t i = 0; i < setups.size(); ++i) {
      const Setup& s = setups[i];
      bh::SolverConfig cfg;
      cfg.nbodies = nbodies;
      cfg.backend = s.backend;
      cfg.clampi_cfg.mode = Mode::kUserDefined;
      cfg.clampi_cfg.index_entries = s.iw > 0 ? s.iw : 1024;
      cfg.clampi_cfg.storage_bytes = std::max<std::size_t>(s.s_mb << 20, 1 << 20);
      cfg.clampi_cfg.adaptive = s.adaptive;
      cfg.clampi_cfg.adapt_interval = 2048;
      cfg.native_mem_bytes = std::max<std::size_t>(s.s_mb << 20, 1 << 20);
      const auto r = benchx::run_bh(p, bodies[i], cfg, steps);
      if (p.rank() != 0) continue;
      std::printf("%s,%zu,%zu,%.3f,%.3f,%llu,%llu,%zu,%.0f\n", s.name, s.iw, s.s_mb,
                  r.force_us_per_body, r.clampi.hit_ratio(),
                  static_cast<unsigned long long>(r.clampi.adjustments),
                  static_cast<unsigned long long>(r.clampi.invalidations),
                  r.final_index_entries,
                  static_cast<double>(r.final_storage_bytes) / (1 << 20));
    }
  });
  return 0;
}

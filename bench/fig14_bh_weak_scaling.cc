// Fig. 14 — "Barnes-Hut weak scaling. Force computation time per body as
// function of the number of processing elements (PEs). Bodies per
// process: 1.5K." CLaMPI parameters: |S_w| = 2 MB, |I_w| = 30K (also the
// adaptive starting point; the paper notes the adaptive strategy performs
// no adjustment here).
//
// Expected shape (paper): both CLaMPI strategies beat native by up to ~3x
// and foMPI by up to ~5x across the PE range.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bh_run.h"

using namespace clampi;

int main() {
  benchx::header("fig14", "BH weak scaling: force time per body vs PEs (1.5K bodies/PE)",
                 "strategy,pes,force_us_per_body,hit_ratio,adjustments,remote_gets");

  const std::size_t bodies_per_pe = benchx::scaled(1500, 200);
  for (const int pes : {16, 32, 64, 128}) {
    const std::size_t nbodies = bodies_per_pe * static_cast<std::size_t>(pes);
    struct Setup {
      const char* name;
      bh::CacheBackend backend;
      bool adaptive;
    };
    const Setup setups[] = {
        {"foMPI", bh::CacheBackend::kNone, false},
        {"native", bh::CacheBackend::kNative, false},
        {"fixed", bh::CacheBackend::kClampi, false},
        {"adaptive", bh::CacheBackend::kClampi, true},
    };
    // One body set per configuration (every rank must see the same one).
    std::vector<std::shared_ptr<bh::SharedBodies>> bodies;
    for (std::size_t i = 0; i < 4; ++i) {
      bodies.push_back(std::make_shared<bh::SharedBodies>(nbodies, 1414));
    }
    rmasim::Engine engine(benchx::default_engine(pes));
    engine.run([&](rmasim::Process& p) {
      for (std::size_t i = 0; i < 4; ++i) {
        const auto& s = setups[i];
        const auto shared = bodies[i];
        bh::SolverConfig cfg;
        cfg.nbodies = nbodies;
        cfg.theta = 0.6;  // keeps the largest (P=128) runs tractable
        cfg.backend = s.backend;
        cfg.clampi_cfg.mode = Mode::kUserDefined;
        cfg.clampi_cfg.index_entries = std::size_t{30} << 10;
        cfg.clampi_cfg.storage_bytes = std::size_t{2} << 20;
        cfg.clampi_cfg.adaptive = s.adaptive;
        cfg.native_mem_bytes = std::size_t{2} << 20;
        const auto r = benchx::run_bh(p, shared, cfg, /*steps=*/1);
        if (p.rank() == 0) {
          std::printf("%s,%d,%.3f,%.3f,%llu,%llu\n", s.name, p.nranks(),
                      r.force_us_per_body, r.clampi.hit_ratio(),
                      static_cast<unsigned long long>(r.clampi.adjustments),
                      static_cast<unsigned long long>(r.remote_gets));
        }
      }
    });
  }
  return 0;
}

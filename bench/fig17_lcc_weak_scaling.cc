// Fig. 17 — "LCC weak scaling experiment starting with R-MAT graph
// ranging from S=19 to S=22 and EF=16." (Paper: |V| = P * 2^15,
// |E| = 16 |V|, P = 16..128, |I_w| = 128K, |S_w| = 128 MB.)
//
// Scaled instance (EXPERIMENTS.md): |V| = P * 2^11, EF = 16, parameters
// scaled by the same 1/16 factor. Expected shape (paper): the fixed
// strategy degrades as P grows (average get size grows, capacity/failed
// accesses increase) while adaptive resizes |S_w| and follows the best
// configuration; both converge towards foMPI at high P because data
// reuse shrinks with the weak-scaled partitioning.
//
// Exits 1 when a row's lcc_sum differs from the foMPI row's at the same P
// (benchx::lcc_sum_matches).
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "bench/lcc_run.h"

using namespace clampi;

int main() {
  benchx::header("fig17", "LCC weak scaling: vertex time vs PEs (V = P*2^11, EF=16)",
                 "strategy,pes,comm_us_per_vertex,total_us_per_vertex,hit_ratio,adjustments,invalidations,"
                 "final_storage_mb,lcc_sum");

  bool sums_match = true;
  for (const int pes : {16, 32, 64, 128}) {
    // |V| = P * 2^11 => scale = 11 + log2(P)
    int log2p = 0;
    while ((1 << log2p) < pes) ++log2p;
    auto g = std::make_shared<graph::Csr>(
        graph::rmat_graph({.scale = 11 + log2p, .edge_factor = 16, .seed = 77}));

    rmasim::Engine engine(benchx::default_engine(pes));
    engine.run([&](rmasim::Process& p) {
      struct Setup {
        const char* name;
        bool clampi;
        bool adaptive;
      };
      const Setup setups[] = {
          {"foMPI", false, false},
          {"fixed", true, false},
          {"adaptive", true, true},
      };
      double fompi_sum = 0.0;
      for (const auto& s : setups) {
        graph::LccConfig cfg;
        if (s.clampi) {
          cfg.backend = graph::LccBackend::kClampi;
          cfg.clampi_cfg.mode = Mode::kAlwaysCache;
          cfg.clampi_cfg.index_entries = std::size_t{8} << 10;  // 128K / 16
          cfg.clampi_cfg.storage_bytes = std::size_t{8} << 20;  // 128MB / 16
          cfg.clampi_cfg.adaptive = s.adaptive;
          cfg.clampi_cfg.adapt_interval = 4096;
        }
        const auto r = benchx::run_lcc(p, g, cfg);
        if (p.rank() == 0) {
          std::printf("%s,%d,%.3f,%.3f,%.3f,%llu,%llu,%.0f,%.1f\n", s.name, pes,
                      r.comm_us_per_vertex, r.us_per_vertex, r.clampi.hit_ratio(),
                      static_cast<unsigned long long>(r.clampi.adjustments),
                      static_cast<unsigned long long>(r.clampi.invalidations),
                      static_cast<double>(r.final_storage_bytes) / (1 << 20), r.lcc_sum);
          if (!s.clampi) fompi_sum = r.lcc_sum;
          sums_match &= benchx::lcc_sum_matches("fig17", s.name, r.lcc_sum, fompi_sum);
        }
      }
    });
  }
  return sums_match ? 0 : 1;
}

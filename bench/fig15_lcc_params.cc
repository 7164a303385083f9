// Fig. 15 — "LCC communication time. Input graph: 2^20 vertices and 2^24
// edges. Number of processes: 32." (Vertex processing time per strategy
// and CLaMPI parameters.)
//
// Scaled instance (see EXPERIMENTS.md): R-MAT 2^16 vertices / 2^20 edges
// on 32 ranks, |S_w| and |I_w| scaled by the same 1/16 factor. Expected
// shape (paper): the small-|S_w| fixed configuration is throttled by
// ~60% capacity/failed accesses; doubling |S_w| drops them below 5% and
// yields ~5x over foMPI; adaptive matches the best fixed configuration
// regardless of its starting point.
//
// Exits 1 when a row's lcc_sum differs from the foMPI row's on the same
// graph (benchx::lcc_sum_matches).
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "bench/lcc_run.h"

using namespace clampi;

int main() {
  benchx::header("fig15",
                 "LCC vertex time per strategy (R-MAT 2^16 v / 2^20 e, P=32, scaled)",
                 "strategy,index_entries,storage_mb,comm_us_per_vertex,total_us_per_vertex,hit_ratio,"
                 "capacity_failed_frac,adjustments,invalidations,final_index_entries,"
                 "final_storage_mb,lcc_sum");

  auto g = std::make_shared<graph::Csr>(
      graph::rmat_graph({.scale = 16, .edge_factor = 16, .seed = 42}));
  const int nranks = 32;

  bool sums_match = true;
  rmasim::Engine engine(benchx::default_engine(nranks));
  engine.run([&](rmasim::Process& p) {
    struct Setup {
      const char* name;
      std::size_t iw;
      std::size_t s_mb;
      bool adaptive;
    };
    const Setup setups[] = {
        {"foMPI", 0, 0, false},
        {"fixed", std::size_t{16} << 10, 2, false},  // starved |S_w|
        {"fixed", std::size_t{16} << 10, 8, false},
        {"fixed", std::size_t{64} << 10, 8, false},
        {"adaptive", std::size_t{4} << 10, 2, true},
        {"adaptive", std::size_t{16} << 10, 4, true},
    };
    double fompi_sum = 0.0;
    for (const auto& s : setups) {
      graph::LccConfig cfg;
      if (s.iw == 0) {
        cfg.backend = graph::LccBackend::kNone;
      } else {
        cfg.backend = graph::LccBackend::kClampi;
        cfg.clampi_cfg.mode = Mode::kAlwaysCache;
        cfg.clampi_cfg.index_entries = s.iw;
        cfg.clampi_cfg.storage_bytes = s.s_mb << 20;
        cfg.clampi_cfg.adaptive = s.adaptive;
        cfg.clampi_cfg.adapt_interval = 4096;
      }
      const auto r = benchx::run_lcc(p, g, cfg);
      if (p.rank() != 0) continue;
      const auto& st = r.clampi;
      const double total = static_cast<double>(st.total_gets > 0 ? st.total_gets : 1);
      std::printf("%s,%zu,%zu,%.3f,%.3f,%.3f,%.3f,%llu,%llu,%zu,%.0f,%.1f\n", s.name, s.iw,
                  s.s_mb, r.comm_us_per_vertex, r.us_per_vertex, st.hit_ratio(),
                  static_cast<double>(st.capacity + st.failing) / total,
                  static_cast<unsigned long long>(st.adjustments),
                  static_cast<unsigned long long>(st.invalidations),
                  r.final_index_entries,
                  static_cast<double>(r.final_storage_bytes) / (1 << 20), r.lcc_sum);
      if (s.iw == 0) fompi_sum = r.lcc_sum;
      sums_match &= benchx::lcc_sum_matches("fig15", s.name, r.lcc_sum, fompi_sum);
    }
  });
  return sums_match ? 0 : 1;
}

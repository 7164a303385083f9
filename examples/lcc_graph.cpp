// Example: distributed Local Clustering Coefficient with CLaMPI
// (paper Sec. IV-C).
//
// Generates an R-MAT graph, partitions it over 16 simulated ranks and
// computes every vertex's clustering coefficient, comparing plain RMA
// gets against CLaMPI in always-cache mode (the graph is immutable, so
// the cache is never invalidated). Results are verified against the
// serial reference; a mismatch exits with status 1.
//
// Usage: lcc_graph [scale] [edge_factor]
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "graph/lcc.h"
#include "graph/rmat.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"

using namespace clampi;

namespace {

double run(const char* label, std::shared_ptr<const graph::Csr> g, bool use_clampi) {
  rmasim::Engine::Config ecfg;
  ecfg.nranks = 16;
  ecfg.model = net::make_aries_model();
  ecfg.time_policy = rmasim::TimePolicy::kMeasured;

  auto total_sum = std::make_shared<double>(0.0);
  rmasim::Engine engine(ecfg);
  engine.run([&](rmasim::Process& p) {
    graph::LccConfig cfg;
    cfg.backend = use_clampi ? graph::LccBackend::kClampi : graph::LccBackend::kNone;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 32 << 10;
    cfg.clampi_cfg.storage_bytes = 8 << 20;
    cfg.clampi_cfg.adaptive = true;  // let CLaMPI size itself
    graph::DistributedLcc solver(p, g, cfg);
    const auto rep = solver.run();

    double worst = rep.compute_us;
    p.allreduce_f64(&rep.compute_us, &worst, 1, rmasim::ReduceOp::kMax);
    double sum = rep.lcc_sum;
    p.allreduce_f64(&rep.lcc_sum, &sum, 1, rmasim::ReduceOp::kSum);
    if (p.rank() == 0) {
      *total_sum = sum;
      std::printf("%-8s %10.1f us", label, worst);
      if (const auto* st = solver.clampi_stats()) {
        std::printf("  (%.1f%% hits, |I_w|=%zu, |S_w|=%.1f MB, %llu adjustments)",
                    100.0 * st->hit_ratio(), solver.clampi_index_entries(),
                    static_cast<double>(solver.clampi_storage_bytes()) / (1 << 20),
                    static_cast<unsigned long long>(st->adjustments));
      }
      std::printf("\n");
    }
  });
  return *total_sum;
}

}  // namespace

int main(int argc, char** argv) {
  graph::RmatParams params;
  params.scale = argc > 1 ? std::atoi(argv[1]) : 13;
  params.edge_factor = argc > 2 ? std::atoi(argv[2]) : 16;
  params.seed = 7;

  auto g = std::make_shared<graph::Csr>(graph::rmat_graph(params));
  std::printf("R-MAT scale %d: %zu vertices, %zu undirected edges\n", params.scale,
              g->num_vertices(), g->num_undirected_edges());

  const double base = run("foMPI", g, false);
  const double cached = run("CLaMPI", g, true);

  // Cross-check both runs against the serial reference.
  const auto ref = graph::lcc_reference(*g);
  double ref_sum = 0.0;
  for (const double c : ref) ref_sum += c;
  const bool agree = std::abs(base - ref_sum) < 1e-6 && std::abs(cached - ref_sum) < 1e-6;
  std::printf("LCC checksum: reference=%.6f foMPI=%.6f CLaMPI=%.6f %s\n", ref_sum, base,
              cached, agree ? "(all agree)" : "(MISMATCH!)");
  return agree ? 0 : 1;
}

// Driver for the LCC benchmarks (Figs. 15-18): one solver configuration,
// aggregated vertex-processing time (max over ranks / owned vertices).
#pragma once

#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "graph/lcc.h"

namespace clampi::benchx {

struct LccRow {
  double us_per_vertex = 0.0;
  double comm_us_per_vertex = 0.0;  ///< max-rank communication time / vertex
  std::uint64_t remote_gets = 0;
  double lcc_sum = 0.0;  ///< result checksum: must match across strategies
  Stats clampi;
  std::size_t final_index_entries = 0;
  std::size_t final_storage_bytes = 0;
};

inline LccRow run_lcc(rmasim::Process& p, std::shared_ptr<const graph::Csr> g,
                      const graph::LccConfig& cfg) {
  graph::DistributedLcc solver(p, g, cfg);
  const auto rep = solver.run();
  LccRow row;
  double worst = rep.compute_us;
  p.allreduce_f64(&rep.compute_us, &worst, 1, rmasim::ReduceOp::kMax);
  double worst_comm = rep.comm_us;
  p.allreduce_f64(&rep.comm_us, &worst_comm, 1, rmasim::ReduceOp::kMax);
  const double owned =
      static_cast<double>(rep.owned_vertices > 0 ? rep.owned_vertices : 1);
  row.us_per_vertex = worst / owned;
  row.comm_us_per_vertex = worst_comm / owned;
  row.remote_gets = rep.remote_gets;
  p.allreduce_f64(&rep.lcc_sum, &row.lcc_sum, 1, rmasim::ReduceOp::kSum);
  if (const auto* st = solver.clampi_stats()) row.clampi = *st;
  row.final_index_entries = solver.clampi_index_entries();
  row.final_storage_bytes = solver.clampi_storage_bytes();
  return row;
}

/// A strategy's checksum against the reference (foMPI) row's on the same
/// graph. Both are rank-ordered sums of the same coefficients, so they
/// must be equal, not merely close; a mismatch is reported on stderr.
inline bool lcc_sum_matches(const char* fig, const char* strategy, double sum,
                            double reference) {
  if (sum == reference) return true;
  std::fprintf(stderr, "%s: GATE FAILED: %s lcc_sum %.17g differs from foMPI's %.17g\n",
               fig, strategy, sum, reference);
  return false;
}

}  // namespace clampi::benchx

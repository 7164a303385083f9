// Distributed Local Clustering Coefficient over RMA gets (paper Sec. IV-C).
//
// The graph is 1-D partitioned: rank r owns a contiguous vertex range and
// exposes the adjacency lists of its vertices through a window. Computing
// LCC(v) requires the adjacency list of every neighbour u of v; remote
// lists are fetched with one-sided gets whose size is deg(u) * 4 bytes —
// the variable-size, heavily-reused traffic that motivates CLaMPI
// (Figs. 3, 15-18). The always-cache mode applies: the graph is immutable.
//
// Simulation shortcut (DESIGN.md): the CSR is stored once and shared by
// the rank threads; each rank's window maps its own adjacency slice, and
// *remote* lists are only ever accessed through gets. The offsets array is
// replicated in the real system (MPI_Allgather) and read directly here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "clampi/clampi.h"
#include "graph/rmat.h"
#include "rt/engine.h"

namespace clampi::graph {

enum class LccBackend {
  kNone,    ///< direct gets: the foMPI baseline
  kClampi,  ///< CLaMPI caching layer
};

struct LccConfig {
  LccBackend backend = LccBackend::kNone;
  clampi::Config clampi_cfg{};
  /// Survivability (docs/FAULTS.md §6): instead of aborting on the first
  /// OpFailedError, drop gets against dead/quarantined owners (their
  /// wedges contribute no closed triangles; LCC becomes a lower bound)
  /// and count them in Report::dropped_gets. Degraded reads, when the
  /// clampi config enables them, still serve cached lists for down owners.
  bool skip_dead_ranks = false;
};

class DistributedLcc {
 public:
  struct Report {
    double compute_us = 0.0;  ///< this rank's vertex-processing virtual time
    /// Time spent issuing/completing gets only (the paper's Fig. 15 plots
    /// "LCC communication time"; the intersection compute is identical
    /// across strategies and, under 1-D partitioning of a skewed R-MAT,
    /// dominates the hub-owning rank).
    double comm_us = 0.0;
    std::uint64_t remote_gets = 0;
    std::uint64_t local_reads = 0;
    std::uint64_t owned_vertices = 0;
    std::uint64_t dropped_gets = 0;  ///< skipped: owner dead/quarantined
    double lcc_sum = 0.0;  ///< sum of this rank's coefficients (checksum)
  };

  DistributedLcc(rmasim::Process& p, std::shared_ptr<const Csr> graph,
                 const LccConfig& cfg);

  /// Compute LCC for every owned vertex (collective: barriers around the
  /// measured phase).
  Report run();

  Vertex first_vertex() const { return first_; }

  /// Per-owned-vertex coefficients, filled by run().
  const std::vector<double>& local_lcc() const { return lcc_; }

  const clampi::Stats* clampi_stats() const {
    return cached_.has_value() ? &cached_->stats() : nullptr;
  }
  std::size_t clampi_index_entries() const {
    return cached_.has_value() ? cached_->index_entries() : 0;
  }
  std::size_t clampi_storage_bytes() const {
    return cached_.has_value() ? cached_->storage_bytes() : 0;
  }

 private:
  int owner_of(Vertex v) const;
  /// Fetch adj(u) into `dst` (deg(u) entries) and complete the transfer;
  /// returns a pointer to the data (either `dst` or the shared CSR for
  /// local vertices), or nullptr when the owner is down and
  /// cfg.skip_dead_ranks dropped the get.
  const Vertex* fetch_adjacency(Vertex u, Vertex* dst);

  rmasim::Process* p_;
  std::shared_ptr<const Csr> g_;
  LccConfig cfg_;
  Vertex first_ = 0, last_ = 0;
  std::vector<Vertex> range_first_;  ///< first vertex of each rank
  rmasim::Window win_{};
  std::optional<clampi::CachedWindow> cached_;
  std::vector<double> lcc_;
  /// Bitmap over vertex ids 0..|V|: run() sets the bits of N(v) while it
  /// counts v's closed wedges, then clears the words it touched.
  std::vector<std::uint64_t> marks_;
  Report current_{};
};

}  // namespace clampi::graph

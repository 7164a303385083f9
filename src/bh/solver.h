// Distributed Barnes-Hut over RMA gets (paper Sec. IV-B).
//
// Ranks own contiguous slices of the body array. Each timestep:
//   1. the octree topology is rebuilt (replicated, as in the
//      Global-Trees-based UPC code the paper modified);
//   2. every rank publishes the payloads (mass + center of mass) of the
//      nodes it owns into its payload window (node i is owned by rank
//      i mod P);
//   3. the *force phase* — the measured region — traverses the tree for
//      each owned body; every remote node visit fetches 32 bytes through
//      the configured backend: direct RMA (the foMPI baseline), CLaMPI,
//      or the native block-based cache;
//   4. CLaMPI is invalidated (user-defined mode) and bodies are updated.
//
// Simulation shortcut (see DESIGN.md): replicated read-only structures
// (positions, tree topology) are stored once and shared by all rank
// threads, because rmasim ranks live in one address space. The paper's
// per-node copies behave identically; only the distributed payloads are
// accessed through windows.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bh/native_cache.h"
#include "bh/octree.h"
#include "bh/vec3.h"
#include "clampi/clampi.h"
#include "rt/engine.h"
#include "util/rng.h"

namespace clampi::bh {

enum class CacheBackend {
  kNone,    ///< direct gets: the foMPI baseline
  kClampi,  ///< CLaMPI caching layer
  kNative,  ///< block-based direct-mapped cache (UPC baseline)
};

/// Plummer softening length of every force evaluation.
inline constexpr double kSoftening = 1e-3;
/// Line size of the native block cache (the paper's UPC baseline).
inline constexpr std::size_t kNativeBlockBytes = 512;

struct SolverConfig {
  std::size_t nbodies = 1000;
  double theta = 0.5;       ///< MAC opening angle
  double dt = 0.025;
  std::uint64_t seed = 7;
  CacheBackend backend = CacheBackend::kNone;
  clampi::Config clampi_cfg{};
  std::size_t native_mem_bytes = std::size_t{1} << 20;
  bool track_access_histogram = false;  ///< per-(target,disp) get counts (Fig. 2)
  /// Survivability (docs/FAULTS.md §6): payload fetches against
  /// dead/quarantined owners return a zero-mass payload — the traversal
  /// naturally skips those cells (forces lose the dead ranks' mass) —
  /// instead of aborting; counted in StepReport::dropped_gets. Degraded
  /// reads, when the clampi config enables them, still serve cached
  /// payloads for down owners.
  bool skip_dead_ranks = false;
};

/// State shared by all rank threads (replicated data in the real system).
struct SharedBodies {
  std::vector<Vec3> pos;
  std::vector<Vec3> vel;
  std::vector<double> mass;
  Octree tree;
  /// Per-node local window slot on its owner (filled next to the tree by
  /// rank 0; identical on every rank since the topology is replicated).
  std::vector<std::uint32_t> payload_slot;

  /// Uniform random bodies in [-1,1]^3 with unit total mass.
  SharedBodies(std::size_t n, std::uint64_t seed);
};

/// Deterministically assign each tree node a slot inside its owner's
/// payload window (owner = node mod nranks). Hash probing scatters the
/// payloads pseudo-randomly, mimicking the heap-allocated node placement
/// of the Global Trees substrate the paper builds on. Dense packing would
/// hand the block-based native cache artificial spatial locality that the
/// real system does not have (cf. the block-size discussion in Sec. II).
void assign_payload_slots(std::size_t tree_nodes, int nranks, std::size_t slots_per_rank,
                          std::vector<std::uint32_t>& out);

class DistributedBarnesHut {
 public:
  struct StepReport {
    double force_us = 0.0;       ///< this rank's force-phase virtual time
    std::uint64_t remote_gets = 0;  ///< payload fetches to other ranks
    std::uint64_t local_reads = 0;
    std::uint64_t dropped_gets = 0;  ///< skipped: owner dead/quarantined
    std::size_t tree_nodes = 0;
  };

  DistributedBarnesHut(rmasim::Process& p, std::shared_ptr<SharedBodies> shared,
                       const SolverConfig& cfg);
  ~DistributedBarnesHut();

  /// One timestep (collective).
  StepReport step();

  /// Compute the acceleration of one body via tree traversal; exposed for
  /// the correctness tests (compare against direct summation).
  Vec3 accel_of(std::int32_t body);

  std::size_t first_body() const { return first_; }
  std::size_t last_body() const { return last_; }

  const clampi::Stats* clampi_stats() const;
  const NativeBlockCache::Stats* native_stats() const;
  std::size_t clampi_index_entries() const;
  std::size_t clampi_storage_bytes() const;

  /// (target, disp) -> repetition count over the last force phase.
  const std::unordered_map<std::uint64_t, std::uint32_t>& access_counts() const {
    return access_counts_;
  }

 private:
  NodePayload fetch_payload(std::int32_t node);
  void publish_payloads();
  Vec3 traverse(std::int32_t body);

  rmasim::Process* p_;
  std::shared_ptr<SharedBodies> shared_;
  SolverConfig cfg_;
  std::size_t first_ = 0, last_ = 0;  ///< owned body range [first, last)
  std::size_t payload_slots_ = 0;     ///< per-rank window capacity (payload count)
  rmasim::Window win_{};
  std::byte* win_base_ = nullptr;
  std::optional<clampi::CachedWindow> cached_;
  std::optional<NativeBlockCache> native_;
  std::unordered_map<std::uint64_t, std::uint32_t> access_counts_;
  StepReport current_{};
  std::vector<std::int32_t> stack_;  // traversal scratch
};

/// Exact O(N^2) acceleration of one body (test/validation reference).
Vec3 direct_accel(const SharedBodies& sh, std::int32_t body);

}  // namespace clampi::bh

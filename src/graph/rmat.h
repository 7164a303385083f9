// R-MAT random graph generation (Chakrabarti, Zhan, Faloutsos [6]) and the
// undirected CSR representation used by the LCC application (Sec. IV-C).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace clampi::graph {

using Vertex = std::uint32_t;

/// Undirected graph in CSR form; adjacency lists are sorted and free of
/// self-loops and duplicate edges.
struct Csr {
  std::vector<std::uint64_t> offsets;  ///< |V|+1
  std::vector<Vertex> adj;             ///< 2|E| entries

  std::size_t num_vertices() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::size_t num_undirected_edges() const { return adj.size() / 2; }

  std::uint64_t degree(Vertex v) const { return offsets[v + 1] - offsets[v]; }
  const Vertex* neighbors(Vertex v) const { return adj.data() + offsets[v]; }
};

struct RmatParams {
  int scale = 14;          ///< |V| = 2^scale
  int edge_factor = 16;    ///< |E| ~ edge_factor * |V| (before dedup)
  double a = 0.57, b = 0.19, c = 0.19;  ///< d = 1 - a - b - c
  std::uint64_t seed = 12345;
  /// Randomly relabel vertices. Raw R-MAT concentrates high degrees at
  /// low vertex ids, which under 1-D partitioning puts every hub on rank
  /// 0; relabeling (standard practice for partitioned graph kernels)
  /// balances the load. Degree distribution is unaffected.
  bool permute_labels = true;
};

/// Generate directed R-MAT edges (may contain duplicates and self-loops).
std::vector<std::pair<Vertex, Vertex>> rmat_edges(const RmatParams& p);

/// Generator + symmetrization + dedup + CSR build.
Csr rmat_graph(const RmatParams& p);

/// Build an undirected CSR from an edge list (dedups, drops self-loops).
Csr build_csr(std::size_t num_vertices, std::vector<std::pair<Vertex, Vertex>> edges);

// The naive oracle: a plain serial LCC built on a sorted-list merge.
// DistributedLcc counts with marked_count instead; graph_test and
// perfbench's correctness check compare its coefficients against
// lcc_reference, so the two sides share no counting code.

/// Exact serial LCC of every vertex (reference implementation).
/// LCC(v) = 2 * |{(u,w) in E : u,w in adj(v)}| / (deg(v) * (deg(v)-1)),
/// defined as 0 when deg(v) < 2 (Watts & Strogatz [22]).
std::vector<double> lcc_reference(const Csr& g);

/// Number of sorted-list intersections |adj(a) cap adj(b)| (a merge).
std::size_t intersect_count(const Vertex* a, std::size_t na, const Vertex* b,
                            std::size_t nb);

/// Number of entries of `list` whose bit is set in `marks`, a bitmap over
/// vertex ids 0..n (n/64 + 1 words). Branch-free: an id >= n counts
/// against sentinel bit n, which the caller keeps clear, so a corrupted
/// list never reads outside the bitmap. For two sorted, duplicate-free
/// lists a and b with a's bits set, this equals intersect_count(a, b).
///
/// Runs one of two kernels, picked once per process from the CPU it runs
/// on: on x86-64 with AVX2, eight ids per step (clamp, gather the 32-bit
/// bitmap words, shift and mask), with the last len % 8 ids counted as
/// marked_count_scalar counts them; everywhere else marked_count_scalar.
/// No build flag selects it, so a portable build gets the vector kernel
/// too.
std::size_t marked_count(const std::uint64_t* marks, Vertex n, const Vertex* list,
                         std::size_t len);

/// The portable kernel of marked_count, one id per step; same contract.
/// Tests compare the dispatched kernel against it.
std::size_t marked_count_scalar(const std::uint64_t* marks, Vertex n, const Vertex* list,
                                std::size_t len);

}  // namespace clampi::graph

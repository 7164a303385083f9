#include "graph/rmat.h"

#include <algorithm>

#include "util/error.h"
#include "util/rng.h"

namespace clampi::graph {

std::vector<std::pair<Vertex, Vertex>> rmat_edges(const RmatParams& p) {
  CLAMPI_REQUIRE(p.scale >= 1 && p.scale < 31, "rmat scale out of range");
  CLAMPI_REQUIRE(p.a > 0 && p.b >= 0 && p.c >= 0 && p.a + p.b + p.c < 1.0,
                 "rmat probabilities invalid");
  const std::size_t n_edges = (std::size_t{1} << p.scale) * static_cast<std::size_t>(p.edge_factor);
  util::Xoshiro256 rng(p.seed);
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(n_edges);
  for (std::size_t e = 0; e < n_edges; ++e) {
    Vertex src = 0, dst = 0;
    for (int bit = 0; bit < p.scale; ++bit) {
      const double r = rng.uniform();
      int quadrant;
      if (r < p.a) {
        quadrant = 0;
      } else if (r < p.a + p.b) {
        quadrant = 1;
      } else if (r < p.a + p.b + p.c) {
        quadrant = 2;
      } else {
        quadrant = 3;
      }
      src = (src << 1) | static_cast<Vertex>(quadrant >> 1);
      dst = (dst << 1) | static_cast<Vertex>(quadrant & 1);
    }
    edges.emplace_back(src, dst);
  }
  return edges;
}

Csr build_csr(std::size_t num_vertices, std::vector<std::pair<Vertex, Vertex>> edges) {
  // Symmetrize, drop self-loops, dedup.
  std::vector<std::pair<Vertex, Vertex>> sym;
  sym.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    CLAMPI_REQUIRE(u < num_vertices && v < num_vertices, "edge endpoint out of range");
    sym.emplace_back(u, v);
    sym.emplace_back(v, u);
  }
  std::sort(sym.begin(), sym.end());
  sym.erase(std::unique(sym.begin(), sym.end()), sym.end());

  Csr g;
  g.offsets.assign(num_vertices + 1, 0);
  for (const auto& [u, v] : sym) ++g.offsets[u + 1];
  for (std::size_t i = 1; i <= num_vertices; ++i) g.offsets[i] += g.offsets[i - 1];
  g.adj.resize(sym.size());
  std::vector<std::uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const auto& [u, v] : sym) g.adj[cursor[u]++] = v;
  return g;
}

Csr rmat_graph(const RmatParams& p) {
  auto edges = rmat_edges(p);
  if (p.permute_labels) {
    const std::size_t n = std::size_t{1} << p.scale;
    std::vector<Vertex> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Vertex>(i);
    util::Xoshiro256 rng(p.seed ^ 0x5ca1ab1eull);
    for (std::size_t i = n; i-- > 1;) {
      std::swap(perm[i], perm[rng.bounded(i + 1)]);
    }
    for (auto& [u, v] : edges) {
      u = perm[u];
      v = perm[v];
    }
  }
  return build_csr(std::size_t{1} << p.scale, std::move(edges));
}

std::size_t intersect_count(const Vertex* a, std::size_t na, const Vertex* b,
                            std::size_t nb) {
  std::size_t i = 0, j = 0, count = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// The marked count is the loop that runs for most of an LCC solve, so its
// speed swings with where it lands relative to fetch boundaries. Kept out
// of line and 64-byte aligned, it sits at the same offset whatever code
// precedes it, so unrelated code-size changes elsewhere cannot move LCC
// timings.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((noinline, aligned(64)))
#endif
std::size_t marked_count(const std::uint64_t* marks, Vertex n, const Vertex* list,
                         std::size_t len) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const Vertex id = std::min(list[i], n);  // out-of-range ids hit sentinel bit n
    count += (marks[id >> 6] >> (id & 63)) & 1;
  }
  return count;
}

std::vector<double> lcc_reference(const Csr& g) {
  const std::size_t n = g.num_vertices();
  std::vector<double> out(n, 0.0);
  for (Vertex v = 0; v < n; ++v) {
    const auto deg = g.degree(v);
    if (deg < 2) continue;
    std::size_t closed = 0;  // ordered pairs (u,w) adjacent to v with (u,w) in E
    const Vertex* nv = g.neighbors(v);
    for (std::uint64_t k = 0; k < deg; ++k) {
      const Vertex u = nv[k];
      closed += intersect_count(nv, deg, g.neighbors(u), g.degree(u));
    }
    // `closed` counts each triangle edge twice (once per endpoint in
    // adj(v)), matching the 2*|{...}| numerator of the paper's formula.
    out[v] = static_cast<double>(closed) /
             (static_cast<double>(deg) * static_cast<double>(deg - 1));
  }
  return out;
}

}  // namespace clampi::graph

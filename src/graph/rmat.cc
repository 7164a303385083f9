#include "graph/rmat.h"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define CLAMPI_GRAPH_X86_AVX2 1
#endif

#include "util/error.h"
#include "util/rng.h"

namespace clampi::graph {

std::vector<std::pair<Vertex, Vertex>> rmat_edges(const RmatParams& p) {
  CLAMPI_REQUIRE(p.scale >= 1 && p.scale < 31, "rmat scale out of range");
  CLAMPI_REQUIRE(p.a > 0 && p.b >= 0 && p.c >= 0 && p.a + p.b + p.c < 1.0,
                 "rmat probabilities invalid");
  const std::size_t n_edges = (std::size_t{1} << p.scale) * static_cast<std::size_t>(p.edge_factor);
  // The thresholds are summed exactly as a branchy a / a+b / a+b+c chain
  // would sum them, so every draw picks the same quadrant.
  const double ab = p.a + p.b;
  const double abc = p.a + p.b + p.c;
  util::Xoshiro256 rng(p.seed);
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(n_edges);
  for (std::size_t e = 0; e < n_edges; ++e) {
    Vertex src = 0, dst = 0;
    for (int bit = 0; bit < p.scale; ++bit) {
      const double r = rng.uniform();
      const int quadrant = (r >= p.a) + (r >= ab) + (r >= abc);
      src = (src << 1) | static_cast<Vertex>(quadrant >> 1);
      dst = (dst << 1) | static_cast<Vertex>(quadrant & 1);
    }
    edges.emplace_back(src, dst);
  }
  return edges;
}

Csr build_csr(std::size_t num_vertices, std::vector<std::pair<Vertex, Vertex>> edges) {
  // Counting sort by source: count both directions of every non-loop
  // edge, scatter them into per-vertex lists, then sort and dedup each
  // list in place and close the gaps duplicates leave.
  Csr g;
  g.offsets.assign(num_vertices + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    CLAMPI_REQUIRE(u < num_vertices && v < num_vertices, "edge endpoint out of range");
    ++g.offsets[u + 1];
    ++g.offsets[v + 1];
  }
  for (std::size_t i = 1; i <= num_vertices; ++i) g.offsets[i] += g.offsets[i - 1];
  g.adj.resize(g.offsets[num_vertices]);
  std::vector<std::uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    g.adj[cursor[u]++] = v;
    g.adj[cursor[v]++] = u;
  }
  std::vector<std::pair<Vertex, Vertex>>().swap(edges);

  std::uint64_t kept = 0;
  for (std::size_t x = 0; x < num_vertices; ++x) {
    Vertex* const first = g.adj.data() + g.offsets[x];
    Vertex* const last = g.adj.data() + cursor[x];  // cursor[x] is the old offsets[x + 1]
    std::sort(first, last);
    Vertex* const end = std::unique(first, last);
    g.offsets[x] = kept;
    kept = static_cast<std::uint64_t>(std::copy(first, end, g.adj.data() + kept) - g.adj.data());
  }
  g.offsets[num_vertices] = kept;
  g.adj.resize(kept);
  g.adj.shrink_to_fit();
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
// speed swings with where it lands relative to fetch boundaries. Each
// kernel is kept out of line and 64-byte aligned, so it sits at the same
// offset whatever code precedes it, and unrelated code-size changes
// elsewhere cannot move LCC timings.
#if defined(__GNUC__) || defined(__clang__)
#define CLAMPI_PINNED_LOOP __attribute__((noinline, aligned(64)))
#else
#define CLAMPI_PINNED_LOOP
#endif

namespace {

// One id: clamp to sentinel bit n, then test its bit.
inline std::size_t marked_bit(const std::uint64_t* marks, Vertex n, Vertex id) {
  id = std::min(id, n);  // out-of-range ids hit sentinel bit n
  return (marks[id >> 6] >> (id & 63)) & 1;
}

#ifdef CLAMPI_GRAPH_X86_AVX2
// Eight ids per step. The bitmap is read as 32-bit words (little-endian
// x86-64, so word k holds ids 32k..32k+31); a clamped id n reads word
// n >> 5, which lies inside the n/64 + 1 64-bit words. Every __m256i stays
// inside this function, so no vector crosses a call boundary.
__attribute__((target("avx2"))) CLAMPI_PINNED_LOOP std::size_t marked_count_avx2(
    const std::uint64_t* marks, Vertex n, const Vertex* list, std::size_t len) {
  const auto* words = reinterpret_cast<const int*>(marks);
  const __m256i sentinel = _mm256_set1_epi32(static_cast<int>(n));
  const __m256i low5 = _mm256_set1_epi32(31);
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t count = 0;
  std::size_t i = 0;
  while (len - i >= 8) {
    // A 32-bit lane gains at most 1 per step; fold the lanes at least
    // every 2^28 steps so none can wrap.
    const std::size_t stop = i + std::min((len - i) & ~std::size_t{7}, std::size_t{1} << 31);
    __m256i acc = _mm256_setzero_si256();
    for (; i < stop; i += 8) {
      __m256i id = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(list + i));
      id = _mm256_min_epu32(id, sentinel);
      const __m256i word = _mm256_i32gather_epi32(words, _mm256_srli_epi32(id, 5), 4);
      const __m256i bit = _mm256_srlv_epi32(word, _mm256_and_si256(id, low5));
      acc = _mm256_add_epi32(acc, _mm256_and_si256(bit, one));
    }
    __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0x4e));
    sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, 0xb1));
    count += static_cast<std::uint32_t>(_mm_cvtsi128_si32(sum));
  }
  for (; i < len; ++i) count += marked_bit(marks, n, list[i]);
  return count;
}
#endif

}  // namespace

CLAMPI_PINNED_LOOP std::size_t marked_count_scalar(const std::uint64_t* marks, Vertex n,
                                                   const Vertex* list, std::size_t len) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < len; ++i) count += marked_bit(marks, n, list[i]);
  return count;
}

std::size_t marked_count(const std::uint64_t* marks, Vertex n, const Vertex* list,
                         std::size_t len) {
#ifdef CLAMPI_GRAPH_X86_AVX2
  // Asked on first use rather than at static initialisation, which may run
  // before the CPU model is filled in.
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  if (avx2) return marked_count_avx2(marks, n, list, len);
#endif
  return marked_count_scalar(marks, n, list, len);
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

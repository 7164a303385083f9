// Tests for the graph substrate: R-MAT generation, CSR construction and
// the distributed LCC against the serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "fault/injector.h"
#include "fault/plan.h"
#include "graph/lcc.h"
#include "graph/rmat.h"
#include "netmodel/model.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using graph::build_csr;
using graph::Csr;
using graph::DistributedLcc;
using graph::intersect_count;
using graph::lcc_reference;
using graph::LccBackend;
using graph::LccConfig;
using graph::marked_count;
using graph::rmat_graph;
using graph::RmatParams;
using graph::Vertex;
using rmasim::Engine;
using rmasim::Process;
using rmasim::Window;

Engine::Config engine_cfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

TEST(Csr, BuildDedupsAndSymmetrizes) {
  // Edges: 0-1 (x2, both directions), 1-2, self-loop 2-2.
  const Csr g = build_csr(3, {{0, 1}, {1, 0}, {0, 1}, {1, 2}, {2, 2}});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_undirected_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
  EXPECT_EQ(g.neighbors(1)[1], 2u);
}

TEST(Csr, AdjacencyListsAreSorted) {
  const Csr g = rmat_graph({.scale = 10, .edge_factor = 8, .seed = 5});
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint64_t k = 1; k < g.degree(v); ++k) {
      ASSERT_LT(g.neighbors(v)[k - 1], g.neighbors(v)[k]);
    }
  }
}

TEST(Csr, SymmetryHolds) {
  const Csr g = rmat_graph({.scale = 9, .edge_factor = 6, .seed = 6});
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::uint64_t k = 0; k < g.degree(v); ++k) {
      const Vertex u = g.neighbors(v)[k];
      ASSERT_EQ(intersect_count(&v, 1, g.neighbors(u), g.degree(u)), 1u)
          << "edge (" << v << "," << u << ") not symmetric";
    }
  }
}

TEST(Rmat, DeterministicForSeed) {
  const auto e1 = graph::rmat_edges({.scale = 8, .edge_factor = 4, .seed = 9});
  const auto e2 = graph::rmat_edges({.scale = 8, .edge_factor = 4, .seed = 9});
  EXPECT_EQ(e1, e2);
  const auto e3 = graph::rmat_edges({.scale = 8, .edge_factor = 4, .seed = 10});
  EXPECT_NE(e1, e3);
}

TEST(Rmat, SkewedDegreeDistribution) {
  // R-MAT with a=0.57 produces scale-free-ish graphs: the max degree must
  // far exceed the average.
  const Csr g = rmat_graph({.scale = 12, .edge_factor = 16, .seed = 11});
  std::uint64_t maxdeg = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) maxdeg = std::max(maxdeg, g.degree(v));
  const double avg = static_cast<double>(g.adj.size()) / g.num_vertices();
  EXPECT_GT(static_cast<double>(maxdeg), 8.0 * avg);
}

TEST(Rmat, EdgeCountInExpectedRange) {
  const RmatParams p{.scale = 10, .edge_factor = 16, .seed = 3};
  const Csr g = rmat_graph(p);
  const auto requested = (std::size_t{1} << p.scale) * 16;
  EXPECT_LE(g.num_undirected_edges(), requested);
  EXPECT_GT(g.num_undirected_edges(), requested / 4);  // dedup removes some
}

TEST(Intersect, SortedIntersection) {
  const Vertex a[] = {1, 3, 5, 7, 9};
  const Vertex b[] = {2, 3, 4, 7, 8, 9};
  EXPECT_EQ(intersect_count(a, 5, b, 6), 3u);
  EXPECT_EQ(intersect_count(a, 0, b, 6), 0u);
  EXPECT_EQ(intersect_count(a, 5, a, 5), 5u);
}

// A random sorted, duplicate-free list of `len` ids below `n`.
std::vector<Vertex> random_list(std::mt19937_64& rng, Vertex n, std::size_t len) {
  std::vector<Vertex> ids(n);
  std::iota(ids.begin(), ids.end(), Vertex{0});
  std::shuffle(ids.begin(), ids.end(), rng);
  ids.resize(len);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void set_marks(std::vector<std::uint64_t>& marks, const std::vector<Vertex>& ids) {
  for (const Vertex x : ids) marks[x >> 6] |= std::uint64_t{1} << (x & 63);
}

TEST(Intersect, MarkedCountMatchesMerge) {
  constexpr Vertex kN = 5000;  // sentinel bit 5000 sits inside the last word
  std::mt19937_64 rng(71);
  std::vector<std::uint64_t> marks(kN / 64 + 1, 0);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t na = trial == 0 ? 0 : trial == 1 ? 2000 : rng() % 2001;
    const std::size_t nb = trial == 2 ? 0 : trial == 3 ? 2000 : rng() % 2001;
    const auto a = random_list(rng, kN, na);
    const auto b = random_list(rng, kN, nb);
    set_marks(marks, a);
    ASSERT_EQ(marked_count(marks.data(), kN, b.data(), b.size()),
              intersect_count(a.data(), a.size(), b.data(), b.size()))
        << "trial " << trial << ": |a| " << na << ", |b| " << nb;
    std::fill(marks.begin(), marks.end(), 0);
  }

  // Every real id marked: ids >= |V| still count as no match.
  std::vector<Vertex> all(kN);
  std::iota(all.begin(), all.end(), Vertex{0});
  set_marks(marks, all);
  const Vertex out_of_range[] = {kN, kN + 1, kN + 63, kN + 64, 1u << 20, 0xffffffffu};
  EXPECT_EQ(marked_count(marks.data(), kN, out_of_range, 6), 0u);
  const Vertex mixed[] = {0, kN, 17, 0xfffffffeu, kN - 1};
  EXPECT_EQ(marked_count(marks.data(), kN, mixed, 5), 3u);
}

TEST(LccReference, TriangleAndPath) {
  // Triangle 0-1-2 plus pendant 3 attached to 2.
  const Csr g = build_csr(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto lcc = lcc_reference(g);
  EXPECT_DOUBLE_EQ(lcc[0], 1.0);
  EXPECT_DOUBLE_EQ(lcc[1], 1.0);
  EXPECT_DOUBLE_EQ(lcc[2], 1.0 / 3.0);  // one of three possible edges
  EXPECT_DOUBLE_EQ(lcc[3], 0.0);        // degree 1
}

TEST(LccReference, CompleteGraphIsAllOnes) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex u = 0; u < 6; ++u) {
    for (Vertex v = u + 1; v < 6; ++v) edges.emplace_back(u, v);
  }
  const auto lcc = lcc_reference(build_csr(6, std::move(edges)));
  for (const double c : lcc) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(LccReference, StarHasZeroCenter) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 1; v < 8; ++v) edges.emplace_back(0, v);
  const auto lcc = lcc_reference(build_csr(8, std::move(edges)));
  EXPECT_DOUBLE_EQ(lcc[0], 0.0);
}

class LccDistributed : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(LccDistributed, MatchesSerialReference) {
  const int nranks = std::get<0>(GetParam());
  const bool use_clampi = std::get<1>(GetParam());
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21}));
  const auto want = lcc_reference(*g);

  Engine e(engine_cfg(nranks));
  auto results = std::make_shared<std::vector<double>>(g->num_vertices(), -1.0);
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = use_clampi ? LccBackend::kClampi : LccBackend::kNone;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 4096;
    cfg.clampi_cfg.storage_bytes = 4 << 20;
    DistributedLcc solver(p, g, cfg);
    solver.run();
    const auto& local = solver.local_lcc();
    for (std::size_t i = 0; i < local.size(); ++i) {
      (*results)[solver.first_vertex() + i] = local[i];
    }
    p.barrier();
  });
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_NEAR((*results)[v], want[v], 1e-12) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, LccDistributed,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Bool()));

TEST(LccDistributed, CachingProducesHitsOnSharedNeighbours) {
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 10, .edge_factor = 16, .seed = 31}));
  Engine e(engine_cfg(4));
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = LccBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 1 << 15;
    cfg.clampi_cfg.storage_bytes = 16 << 20;
    DistributedLcc solver(p, g, cfg);
    const auto rep = solver.run();
    const auto* st = solver.clampi_stats();
    ASSERT_NE(st, nullptr);
    EXPECT_GT(rep.remote_gets, 0u);
    // Hub vertices appear in many adjacency lists: hits must be plentiful.
    EXPECT_GT(st->hit_ratio(), 0.4);
    p.barrier();
  });
}

TEST(LccDistributed, RepeatedRunIsIdentical) {
  // run() leaves its neighbour marks clean: a second solve on the same
  // solver (now served from the cache) reproduces every coefficient bit.
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21}));
  Engine e(engine_cfg(4));
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = LccBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 4096;
    cfg.clampi_cfg.storage_bytes = 4 << 20;
    DistributedLcc solver(p, g, cfg);
    solver.run();
    const std::vector<double> first = solver.local_lcc();
    solver.run();
    const std::vector<double>& second = solver.local_lcc();
    ASSERT_EQ(second.size(), first.size());
    EXPECT_EQ(std::memcmp(second.data(), first.data(), first.size() * sizeof(double)), 0)
        << "rank " << p.rank();
    p.barrier();
  });
}

TEST(LccDistributed, CorruptedCachedListsStayInBounds) {
  // Bit rot at every flush's epoch close with integrity verification off:
  // rotted cached lists reach the solver, and a flip in bits 9-31 of a
  // scale-9 id makes it >= |V|. The count must treat such ids as no match
  // and never index the mark bitmap with them (ASan builds check reads).
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21}));
  const auto want = lcc_reference(*g);
  fault::Plan plan;
  plan.corrupt_storage(1e-4);
  Engine::Config ec = engine_cfg(4);
  ec.injector = std::make_shared<fault::Injector>(plan);
  Engine e(ec);
  auto flips = std::make_shared<std::vector<std::uint64_t>>(4, 0);
  auto differing = std::make_shared<std::vector<std::size_t>>(4, 0);
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = LccBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 4096;
    cfg.clampi_cfg.storage_bytes = 4 << 20;
    cfg.clampi_cfg.verify_every_n = 0;
    cfg.clampi_cfg.scrub_entries_per_epoch = 0;
    DistributedLcc solver(p, g, cfg);
    solver.run();
    const auto me = static_cast<std::size_t>(p.rank());
    (*flips)[me] = solver.clampi_stats()->storage_bitflips;
    const auto& local = solver.local_lcc();
    for (std::size_t i = 0; i < local.size(); ++i) {
      EXPECT_TRUE(std::isfinite(local[i])) << "vertex " << solver.first_vertex() + i;
      if (local[i] != want[solver.first_vertex() + i]) ++(*differing)[me];
    }
    p.barrier();
  });
  EXPECT_GT(std::accumulate(flips->begin(), flips->end(), std::uint64_t{0}), 0u);
  // The rot reached the counts: some coefficients moved off the reference.
  EXPECT_GT(std::accumulate(differing->begin(), differing->end(), std::size_t{0}), 0u);
}

TEST(LccDistributed, SkipDeadRanksDropsDeadOwnersAdjacency) {
  // Rank 2 is dead from the start; with skip_dead_ranks triangles that
  // need its adjacency lists are skipped (their wedges go uncounted)
  // instead of aborting the whole computation.
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 21}));
  fault::Plan plan;
  plan.kill_rank(2, 0.0);
  Engine::Config ec = engine_cfg(4);
  ec.injector = std::make_shared<fault::Injector>(plan);
  Engine e(ec);
  auto dropped = std::make_shared<std::vector<std::uint64_t>>(4, 0);
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = LccBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 4096;
    cfg.clampi_cfg.storage_bytes = 4 << 20;
    cfg.skip_dead_ranks = true;
    DistributedLcc solver(p, g, cfg);
    const auto rep = solver.run();
    (*dropped)[static_cast<std::size_t>(p.rank())] = rep.dropped_gets;
    // Coefficients stay well-formed under partial information.
    for (const double c : solver.local_lcc()) {
      EXPECT_GE(c, 0.0);
      EXPECT_LE(c, 1.0);
    }
    p.barrier();
  });
  EXPECT_GT((*dropped)[0] + (*dropped)[1] + (*dropped)[3], 0u);
}

TEST(LccDistributed, SizeHistogramTracksDegrees) {
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 9, .edge_factor = 8, .seed = 41}));
  Engine e(engine_cfg(4));
  e.run([&](Process& p) {
    LccConfig cfg;
    cfg.backend = LccBackend::kNone;
    cfg.track_size_histogram = true;
    DistributedLcc solver(p, g, cfg);
    const auto rep = solver.run();
    std::uint64_t histo_total = 0;
    for (const auto& [sz, cnt] : solver.size_histogram()) {
      EXPECT_EQ(sz % sizeof(Vertex), 0u);
      histo_total += cnt;
    }
    EXPECT_EQ(histo_total, rep.remote_gets);
    p.barrier();
  });
}

TEST(LccDistributed, OwnershipPartitionsCoverAllVertices) {
  auto g = std::make_shared<Csr>(rmat_graph({.scale = 8, .edge_factor = 4, .seed = 51}));
  Engine e(engine_cfg(5));
  auto covered = std::make_shared<std::vector<int>>(g->num_vertices(), 0);
  e.run([&](Process& p) {
    LccConfig cfg;
    DistributedLcc solver(p, g, cfg);
    for (Vertex v = solver.first_vertex(); v < solver.last_vertex(); ++v) {
      EXPECT_EQ(solver.owner_of(v), p.rank());
      (*covered)[v] += 1;
    }
    p.barrier();
  });
  for (const int c : *covered) EXPECT_EQ(c, 1);
}

// One CLaMPI LCC solve of an R-MAT graph under the modelled clock: what
// each rank computed, fetched and counted, and when it finished.
struct LccOutcome {
  std::vector<double> coeff;
  std::vector<std::uint64_t> remote_gets;
  std::vector<Stats> stats;
  std::vector<double> final_us;
};

LccOutcome solve_rmat(const std::shared_ptr<const Csr>& g, bool writable_exposure) {
  constexpr int kRanks = 4;
  Engine e(engine_cfg(kRanks));
  LccOutcome out;
  out.coeff.assign(g->num_vertices(), -1.0);
  out.remote_gets.assign(kRanks, 0);
  out.stats.resize(kRanks);
  e.run([&](Process& p) {
    // A second exposure of the same CSR. Writable, it keeps the single
    // baton for the whole solve; read-only, the ranks solve at once. Both
    // cost the same modelled window creation.
    std::vector<Vertex> copy(g->adj);
    const std::size_t bytes = copy.size() * sizeof(Vertex);
    const Window extra = writable_exposure
                             ? p.win_create(copy.data(), bytes)
                             : p.win_create(static_cast<const void*>(copy.data()), bytes);
    LccConfig cfg;
    cfg.backend = LccBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.clampi_cfg.index_entries = 1024;
    cfg.clampi_cfg.storage_bytes = 256 << 10;
    cfg.clampi_cfg.adaptive = true;
    cfg.clampi_cfg.adapt_interval = 512;
    DistributedLcc solver(p, g, cfg);
    const auto rep = solver.run();
    const auto me = static_cast<std::size_t>(p.rank());
    std::copy(solver.local_lcc().begin(), solver.local_lcc().end(),
              out.coeff.begin() + solver.first_vertex());
    out.remote_gets[me] = rep.remote_gets;
    out.stats[me] = *solver.clampi_stats();
    p.barrier();
    p.win_free(extra);
  });
  for (int r = 0; r < kRanks; ++r) out.final_us.push_back(e.final_time_us(r));
  return out;
}

TEST(LccDistributed, ConcurrentRanksMatchSingleBaton) {
  const auto g = std::make_shared<const Csr>(
      rmat_graph({.scale = 11, .edge_factor = 16, .seed = 61}));
  const LccOutcome parallel = solve_rmat(g, /*writable_exposure=*/false);
  const LccOutcome baton = solve_rmat(g, /*writable_exposure=*/true);
  const auto want = lcc_reference(*g);
  for (std::size_t v = 0; v < want.size(); ++v) {
    ASSERT_EQ(parallel.coeff[v], baton.coeff[v]) << "vertex " << v;
    ASSERT_NEAR(parallel.coeff[v], want[v], 1e-12) << "vertex " << v;
  }
  for (std::size_t r = 0; r < parallel.stats.size(); ++r) {
    EXPECT_GT(parallel.remote_gets[r], 0u) << "rank " << r;
    EXPECT_EQ(parallel.remote_gets[r], baton.remote_gets[r]) << "rank " << r;
    for (const StatsField& f : kStatsFields) {
      EXPECT_EQ(parallel.stats[r].*f.member, baton.stats[r].*f.member)
          << "rank " << r << " " << f.name;
    }
    EXPECT_EQ(parallel.final_us[r], baton.final_us[r]) << "rank " << r;
  }
  EXPECT_GT(parallel.stats[0].evictions + parallel.stats[1].evictions, 0u);
}

}  // namespace

// Tests for the Barnes-Hut application substrate: octree invariants,
// force accuracy vs direct summation, cache backends, invalidation.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>

#include "bh/octree.h"
#include "bh/solver.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "netmodel/model.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using bh::CacheBackend;
using bh::DistributedBarnesHut;
using bh::NativeBlockCache;
using bh::Octree;
using bh::SharedBodies;
using bh::SolverConfig;
using bh::Vec3;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

TEST(Octree, EmptyAndSingleBody) {
  Octree t;
  t.build({}, {});
  EXPECT_TRUE(t.empty());
  t.build({Vec3{1, 2, 3}}, {5.0});
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.nodes()[0].is_leaf());
  EXPECT_DOUBLE_EQ(t.payloads()[0].mass, 5.0);
  EXPECT_DOUBLE_EQ(t.payloads()[0].comx, 1.0);
}

TEST(Octree, MassConservation) {
  SharedBodies sh(500, 3);
  Octree t;
  t.build(sh.pos, sh.mass);
  const double total = std::accumulate(sh.mass.begin(), sh.mass.end(), 0.0);
  EXPECT_NEAR(t.payloads()[Octree::kRoot].mass, total, 1e-12);
}

TEST(Octree, RootComIsGlobalCom) {
  SharedBodies sh(200, 4);
  Octree t;
  t.build(sh.pos, sh.mass);
  Vec3 com{};
  double m = 0;
  for (std::size_t i = 0; i < sh.pos.size(); ++i) {
    com += sh.pos[i] * sh.mass[i];
    m += sh.mass[i];
  }
  com *= 1.0 / m;
  EXPECT_NEAR(t.payloads()[0].comx, com.x, 1e-12);
  EXPECT_NEAR(t.payloads()[0].comy, com.y, 1e-12);
  EXPECT_NEAR(t.payloads()[0].comz, com.z, 1e-12);
}

TEST(Octree, EveryBodyInExactlyOneLeaf) {
  SharedBodies sh(300, 5);
  Octree t;
  t.build(sh.pos, sh.mass);
  std::set<std::int32_t> seen;
  for (const auto& n : t.nodes()) {
    if (n.body >= 0) {
      EXPECT_TRUE(seen.insert(n.body).second) << "body " << n.body << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), sh.pos.size());
}

TEST(Octree, ChildrenNestedInParents) {
  SharedBodies sh(128, 6);
  Octree t;
  t.build(sh.pos, sh.mass);
  for (const auto& n : t.nodes()) {
    for (const auto c : n.child) {
      if (c < 0) continue;
      const auto& ch = t.nodes()[static_cast<std::size_t>(c)];
      EXPECT_NEAR(ch.half * 2.0, n.half, 1e-12);
      EXPECT_LE(std::abs(ch.center.x - n.center.x), n.half);
      EXPECT_LE(std::abs(ch.center.y - n.center.y), n.half);
      EXPECT_LE(std::abs(ch.center.z - n.center.z), n.half);
    }
  }
}

TEST(Octree, DeterministicAcrossBuilds) {
  SharedBodies sh(256, 7);
  Octree a, b;
  a.build(sh.pos, sh.mass);
  b.build(sh.pos, sh.mass);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.nodes()[i].body, b.nodes()[i].body);
    EXPECT_EQ(a.nodes()[i].count, b.nodes()[i].count);
  }
}

TEST(Octree, NodeCountLinearInBodies) {
  SharedBodies sh(2000, 8);
  Octree t;
  t.build(sh.pos, sh.mass);
  EXPECT_LT(t.size(), 4 * sh.pos.size());
  EXPECT_GE(t.size(), sh.pos.size());
}

// --- force accuracy ---

class BhForceAccuracy : public ::testing::TestWithParam<int /*nranks*/> {};

TEST_P(BhForceAccuracy, ThetaZeroMatchesDirectSummation) {
  // theta = 0 never opens the MAC: the traversal degenerates to exact
  // pairwise interaction and must match the O(N^2) reference.
  const int nranks = GetParam();
  Engine e(engine_cfg(nranks));
  auto shared = std::make_shared<SharedBodies>(120, 11);
  e.run([shared](Process& p) {
    SolverConfig cfg;
    cfg.nbodies = shared->pos.size();
    cfg.theta = 0.0;
    cfg.dt = 0.0;  // keep bodies fixed so the published tree stays current
    cfg.backend = CacheBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    DistributedBarnesHut solver(p, shared, cfg);
    p.barrier();
    if (p.rank() == 0) shared->tree.build(shared->pos, shared->mass);
    p.barrier();
    // publish happens in step(); for accel_of we need payloads up:
    // run one step first (also exercises the full pipeline), then check.
    solver.step();
    for (std::size_t b = solver.first_body(); b < solver.last_body(); b += 7) {
      const Vec3 got = solver.accel_of(static_cast<std::int32_t>(b));
      const Vec3 want = bh::direct_accel(*shared, static_cast<std::int32_t>(b));
      EXPECT_NEAR(got.x, want.x, 1e-9 + 1e-6 * std::abs(want.x));
      EXPECT_NEAR(got.y, want.y, 1e-9 + 1e-6 * std::abs(want.y));
      EXPECT_NEAR(got.z, want.z, 1e-9 + 1e-6 * std::abs(want.z));
    }
    p.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, BhForceAccuracy, ::testing::Values(1, 3, 4));

TEST(BhForce, ModerateThetaApproximatesWell) {
  Engine e(engine_cfg(4));
  auto shared = std::make_shared<SharedBodies>(400, 13);
  e.run([shared](Process& p) {
    SolverConfig cfg;
    cfg.nbodies = shared->pos.size();
    cfg.theta = 0.5;
    cfg.dt = 0.0;  // keep bodies fixed so the published tree stays current
    cfg.backend = CacheBackend::kNone;
    DistributedBarnesHut solver(p, shared, cfg);
    solver.step();
    double max_rel = 0.0;
    for (std::size_t b = solver.first_body(); b < solver.last_body(); b += 11) {
      const Vec3 got = solver.accel_of(static_cast<std::int32_t>(b));
      const Vec3 want = bh::direct_accel(*shared, static_cast<std::int32_t>(b));
      const double rel = (got - want).norm() / (want.norm() + 1e-12);
      max_rel = std::max(max_rel, rel);
    }
    EXPECT_LT(max_rel, 0.05);  // BH with theta=0.5 is a few-% approximation
    p.barrier();
  });
}

TEST(BhBackends, AllBackendsComputeIdenticalForces) {
  Engine e(engine_cfg(4));
  auto s1 = std::make_shared<SharedBodies>(150, 17);
  auto s2 = std::make_shared<SharedBodies>(150, 17);
  auto s3 = std::make_shared<SharedBodies>(150, 17);
  e.run([&](Process& p) {
    auto run_backend = [&p](std::shared_ptr<SharedBodies> sh, CacheBackend be) {
      SolverConfig cfg;
      cfg.nbodies = sh->pos.size();
      cfg.backend = be;
      cfg.clampi_cfg.mode = Mode::kAlwaysCache;
      cfg.native_mem_bytes = 64 * 1024;
      DistributedBarnesHut solver(p, sh, cfg);
      solver.step();
      solver.step();
    };
    run_backend(s1, CacheBackend::kNone);
    run_backend(s2, CacheBackend::kClampi);
    run_backend(s3, CacheBackend::kNative);
  });
  for (std::size_t i = 0; i < s1->pos.size(); ++i) {
    EXPECT_NEAR(s1->pos[i].x, s2->pos[i].x, 1e-12);
    EXPECT_NEAR(s1->pos[i].x, s3->pos[i].x, 1e-12);
    EXPECT_NEAR(s1->vel[i].y, s2->vel[i].y, 1e-12);
    EXPECT_NEAR(s1->vel[i].y, s3->vel[i].y, 1e-12);
  }
}

TEST(BhCaching, ClampiGetsHitsOnReusedNodes) {
  Engine e(engine_cfg(4));
  auto shared = std::make_shared<SharedBodies>(600, 19);
  e.run([shared](Process& p) {
    SolverConfig cfg;
    cfg.nbodies = shared->pos.size();
    cfg.backend = CacheBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kUserDefined;
    cfg.clampi_cfg.index_entries = 1 << 14;
    cfg.clampi_cfg.storage_bytes = 4 << 20;
    DistributedBarnesHut solver(p, shared, cfg);
    const auto rep = solver.step();
    const auto* st = solver.clampi_stats();
    ASSERT_NE(st, nullptr);
    EXPECT_GT(rep.remote_gets, 0u);
    // Top-of-tree nodes are visited once per owned body: heavy reuse.
    EXPECT_GT(st->hit_ratio(), 0.5);
    // User-defined mode: invalidated once per step.
    EXPECT_EQ(st->invalidations, 1u);
    p.barrier();
  });
}

TEST(BhCaching, SkipDeadRanksDropsDeadOwnersPayloads) {
  // Rank 3 is dead from the start; with skip_dead_ranks payload fetches
  // against it return a zero-mass cell (the traversal skips it, forces
  // lose that rank's share of the mass) instead of aborting the step.
  fault::Plan plan;
  plan.kill_rank(3, 0.0);
  Engine::Config ec = engine_cfg(4);
  ec.injector = std::make_shared<fault::Injector>(plan);
  Engine e(ec);
  auto shared = std::make_shared<SharedBodies>(400, 23);
  auto dropped = std::make_shared<std::vector<std::uint64_t>>(4, 0);
  e.run([&](Process& p) {
    SolverConfig cfg;
    cfg.nbodies = shared->pos.size();
    cfg.backend = CacheBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kAlwaysCache;
    cfg.skip_dead_ranks = true;
    DistributedBarnesHut solver(p, shared, cfg);
    const auto rep = solver.step();
    (*dropped)[static_cast<std::size_t>(p.rank())] = rep.dropped_gets;
    // The step completes with finite state everywhere.
    for (std::size_t b = solver.first_body(); b < solver.last_body(); ++b) {
      EXPECT_TRUE(std::isfinite(shared->pos[b].x));
      EXPECT_TRUE(std::isfinite(shared->vel[b].y));
    }
    p.barrier();
  });
  EXPECT_GT((*dropped)[0] + (*dropped)[1] + (*dropped)[2], 0u);
}

TEST(BhCaching, AccessHistogramShowsReuse) {
  // Fig. 2 of the paper: the same remote data is fetched many times.
  Engine e(engine_cfg(4));
  auto shared = std::make_shared<SharedBodies>(500, 23);
  e.run([shared](Process& p) {
    SolverConfig cfg;
    cfg.nbodies = shared->pos.size();
    cfg.backend = CacheBackend::kNone;
    cfg.track_access_histogram = true;
    DistributedBarnesHut solver(p, shared, cfg);
    solver.step();
    const auto& counts = solver.access_counts();
    ASSERT_FALSE(counts.empty());
    std::uint32_t max_rep = 0;
    for (const auto& [k, c] : counts) max_rep = std::max(max_rep, c);
    // ~125 owned bodies all open the root-adjacent remote nodes.
    EXPECT_GT(max_rep, 50u);
    p.barrier();
  });
}

// --- native block cache ---

TEST(NativeCache, HitsOnRepeatedBlocks) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    const rmasim::Window w = p.win_allocate(4096, &base);
    auto* data = static_cast<std::uint8_t*>(base);
    for (int i = 0; i < 4096; ++i) data[i] = static_cast<std::uint8_t>(i * 3 + p.rank());
    p.barrier();
    NativeBlockCache cache(p, w, 2048, 256);
    std::uint8_t buf[64];
    cache.get(buf, 64, 1 - p.rank(), 128);
    EXPECT_EQ(cache.stats().block_misses, 1u);
    cache.get(buf, 64, 1 - p.rank(), 160);  // same block
    EXPECT_EQ(cache.stats().block_hits, 1u);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(buf[i], static_cast<std::uint8_t>((160 + i) * 3 + (1 - p.rank())));
    }
    p.barrier();
    p.win_free(w);
  });
}

TEST(NativeCache, MultiBlockRequestsSpanLines) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    const rmasim::Window w = p.win_allocate(4096, &base);
    auto* data = static_cast<std::uint8_t*>(base);
    for (int i = 0; i < 4096; ++i) data[i] = static_cast<std::uint8_t>(i ^ p.rank());
    p.barrier();
    NativeBlockCache cache(p, w, 4096, 256);
    std::vector<std::uint8_t> buf(700);
    cache.get(buf.data(), buf.size(), 1 - p.rank(), 100);  // spans 4 blocks
    EXPECT_GE(cache.stats().block_misses, 3u);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      ASSERT_EQ(buf[i], static_cast<std::uint8_t>((100 + i) ^ (1 - p.rank())));
    }
    p.barrier();
    p.win_free(w);
  });
}

TEST(NativeCache, DirectMappingConflictsEvict) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    const rmasim::Window w = p.win_allocate(64 * 1024, &base);
    p.barrier();
    NativeBlockCache cache(p, w, 512, 256);  // only 2 lines
    std::uint8_t buf[16];
    // Touch many distinct blocks: with 2 lines nearly everything misses.
    for (int i = 0; i < 32; ++i) cache.get(buf, 16, 1 - p.rank(), i * 256);
    EXPECT_GT(cache.stats().block_misses, 25u);
    // Re-touch: still mostly misses (working set >> cache).
    for (int i = 0; i < 32; ++i) cache.get(buf, 16, 1 - p.rank(), i * 256);
    EXPECT_GT(cache.stats().block_misses, 50u);
    p.barrier();
    p.win_free(w);
  });
}

TEST(NativeCache, InvalidateDropsBlocks) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    const rmasim::Window w = p.win_allocate(4096, &base);
    p.barrier();
    NativeBlockCache cache(p, w, 4096, 256);
    std::uint8_t buf[16];
    cache.get(buf, 16, 1 - p.rank(), 0);
    cache.invalidate();
    cache.get(buf, 16, 1 - p.rank(), 0);
    EXPECT_EQ(cache.stats().block_misses, 2u);
    EXPECT_EQ(cache.stats().block_hits, 0u);
    p.barrier();
    p.win_free(w);
  });
}

TEST(BhDynamics, EnergyStaysBoundedOverSteps) {
  Engine e(engine_cfg(2));
  auto shared = std::make_shared<SharedBodies>(100, 29);
  e.run([shared](Process& p) {
    SolverConfig cfg;
    cfg.nbodies = shared->pos.size();
    cfg.dt = 0.001;
    cfg.backend = CacheBackend::kClampi;
    cfg.clampi_cfg.mode = Mode::kUserDefined;
    DistributedBarnesHut solver(p, shared, cfg);
    for (int s = 0; s < 5; ++s) solver.step();
    p.barrier();
  });
  // Sanity: the system did not blow up numerically.
  for (const auto& v : shared->vel) {
    EXPECT_TRUE(std::isfinite(v.x));
    EXPECT_LT(v.norm(), 100.0);
  }
}

}  // namespace

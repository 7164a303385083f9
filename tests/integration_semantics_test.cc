// End-to-end semantic tests: the paper's Listing 1 verbatim, and
// staleness safety — the property that makes "transparent" caching safe:
// a cached window must never return bytes that an epoch boundary has
// made stale.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "clampi/clampi.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/rng.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config ecfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

TEST(Listing1, PaperExample) {
  // Listing 1 with MPI_Win_lock(MPI_LOCK_SHARED, peer) / MPI_Win_unlock
  // spelled lock_all / unlock_all: rmasim has no per-target locks
  // (DESIGN.md module 3).
  // MPI_Win_lock_all(0, win);
  // while (!terminate) {
  //   MPI_Get(lbuf1, ..., peer, off1, ..., win);
  //   MPI_Get(lbuf2, ..., peer, off2, ..., win);
  //   MPI_Win_flush(peer, win);      // closes epoch
  //   terminate = computation(lbuf1, lbuf2);
  // }
  // CLAMPI_Invalidate(win);
  // MPI_Win_unlock_all(win);
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::vector<std::uint32_t> mem(64);
    for (std::size_t i = 0; i < mem.size(); ++i) {
      mem[i] = static_cast<std::uint32_t>(i + 10 * p.rank());
    }
    Config cfg;
    cfg.mode = Mode::kUserDefined;
    CachedWindow win(p, p.win_create(mem.data(), mem.size() * sizeof(std::uint32_t)), cfg);
    p.barrier();

    const int peer = 1 - p.rank();
    win.lock_all();
    std::uint32_t lbuf1 = 0, lbuf2 = 0;
    int iters = 0;
    bool terminate = false;
    while (!terminate) {
      win.get(&lbuf1, sizeof(lbuf1), peer, 4 * sizeof(std::uint32_t));
      win.get(&lbuf2, sizeof(lbuf2), peer, 9 * sizeof(std::uint32_t));
      win.flush(peer);  // closes epoch
      EXPECT_EQ(lbuf1, 4u + 10u * peer);
      EXPECT_EQ(lbuf2, 9u + 10u * peer);
      terminate = ++iters >= 8;
    }
    clampi_invalidate(win);
    win.unlock_all();

    // 8 iterations x 2 gets: 2 misses, 14 hits, one invalidation.
    EXPECT_EQ(win.stats().total_gets, 16u);
    EXPECT_EQ(win.stats().hits_full, 14u);
    EXPECT_EQ(win.stats().invalidations, 1u);
    p.barrier();
    win.free_window();
  });
}

TEST(Staleness, TransparentModeNeverServesStaleBytes) {
  // The target's memory changes every epoch; the transparent cache is
  // invalidated at every epoch closure, so every read must see the
  // current value. This is the semantic contract that lets transparent
  // mode work "without any code change" (Sec. III-A).
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::vector<std::uint64_t> mem(16, 0);
    Config cfg;
    cfg.mode = Mode::kTransparent;
    CachedWindow win(p, p.win_create(mem.data(), mem.size() * sizeof(std::uint64_t)), cfg);
    p.barrier();
    const int peer = 1 - p.rank();
    win.lock_all();
    for (std::uint64_t round = 1; round <= 10; ++round) {
      // Everyone updates its own window memory (a write phase, separated
      // from reads by barriers as the epoch model requires).
      for (auto& v : mem) v = round * 1000 + p.rank();
      p.barrier();
      std::uint64_t got = 0;
      win.get(&got, sizeof(got), peer, 8 * sizeof(std::uint64_t));
      win.flush_all();  // epoch closes -> invalidation
      ASSERT_EQ(got, round * 1000 + static_cast<std::uint64_t>(peer)) << "round " << round;
      p.barrier();
    }
    // Every read was a miss: transparent mode cannot reuse across epochs.
    EXPECT_EQ(win.stats().hits_full, 0u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(Staleness, AlwaysCacheServesOldBytesByContract) {
  // Contrast: always-cache promises the window is read-only. If the user
  // breaks that promise the cache will serve the old value — this test
  // pins the documented contract (and shows why the mode exists).
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::vector<std::uint64_t> mem(4, 111);
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    CachedWindow win(p, p.win_create(mem.data(), mem.size() * sizeof(std::uint64_t)), cfg);
    p.barrier();
    const int peer = 1 - p.rank();
    win.lock_all();
    std::uint64_t got = 0;
    win.get(&got, sizeof(got), peer, 0);
    win.flush_all();
    EXPECT_EQ(got, 111u);
    p.barrier();
    mem[0] = 222;  // contract violation
    p.barrier();
    win.get(&got, sizeof(got), peer, 0);
    win.flush_all();
    EXPECT_EQ(got, 111u);  // served from cache: the old value
    // After an explicit invalidation the new value is visible.
    clampi_invalidate(win);
    win.get(&got, sizeof(got), peer, 0);
    win.flush_all();
    EXPECT_EQ(got, 222u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(Staleness, UserDefinedInvalidationBoundsStaleness) {
  // BSP rounds: reads within a round may hit; after clampi_invalidate a
  // new round must observe the updated remote data.
  Engine e(ecfg(4));
  e.run([](Process& p) {
    std::vector<std::uint32_t> mem(32, 0);
    Config cfg;
    cfg.mode = Mode::kUserDefined;
    CachedWindow win(p, p.win_create(mem.data(), mem.size() * sizeof(std::uint32_t)), cfg);
    p.barrier();
    win.lock_all();
    util::Xoshiro256 rng(7u + p.rank());
    for (std::uint32_t round = 1; round <= 6; ++round) {
      for (auto& v : mem) v = round * 100 + p.rank();
      p.barrier();
      for (int i = 0; i < 20; ++i) {
        const int peer = static_cast<int>(rng.bounded(p.nranks()));
        if (peer == p.rank()) continue;
        const std::size_t slot = rng.bounded(32);
        std::uint32_t got = 0;
        win.get(&got, sizeof(got), peer, slot * sizeof(std::uint32_t));
        win.flush(peer);
        ASSERT_EQ(got, round * 100 + static_cast<std::uint32_t>(peer));
      }
      clampi_invalidate(win);
      p.barrier();
    }
    EXPECT_EQ(win.stats().invalidations, 6u);
    EXPECT_GT(win.stats().hitting(), 0u);  // reuse happened within rounds
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(Oracle, RandomMixedOpsAgainstUncachedTwin) {
  // The decisive end-to-end property: a cached window and an uncached
  // window driven by the identical random operation stream must return
  // identical bytes for every get.
  Engine e(ecfg(3));
  e.run([](Process& p) {
    std::vector<std::uint8_t> mem_a(4096), mem_b(4096);
    for (std::size_t i = 0; i < mem_a.size(); ++i) {
      mem_a[i] = mem_b[i] = static_cast<std::uint8_t>(i * 31 + p.rank());
    }
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 128;
    cfg.storage_bytes = 8 * 1024;  // small: constant eviction churn
    CachedWindow cached(p, p.win_create(mem_a.data(), mem_a.size()), cfg);
    const rmasim::Window plain = p.win_create(mem_b.data(), mem_b.size());
    p.barrier();
    cached.lock_all();
    p.lock_all(plain);
    util::Xoshiro256 rng(p.rank() * 7 + 1);
    std::vector<std::uint8_t> x(2048), y(2048);
    for (int i = 0; i < 3000; ++i) {
      const int peer = static_cast<int>(rng.bounded(p.nranks()));
      if (peer == p.rank()) continue;
      const std::size_t bytes = 1 + rng.bounded(1024);
      const std::size_t disp = rng.bounded(mem_a.size() - bytes);
      cached.get(x.data(), bytes, peer, disp);
      p.get(y.data(), bytes, peer, disp, plain);
      cached.flush_all();
      p.flush_all(plain);
      ASSERT_EQ(std::memcmp(x.data(), y.data(), bytes), 0)
          << "i=" << i << " peer=" << peer << " disp=" << disp << " n=" << bytes;
    }
    EXPECT_TRUE(cached.core().validate());
    cached.unlock_all();
    p.unlock_all(plain);
    p.barrier();
    p.win_free(plain);
    cached.free_window();
  });
}

}  // namespace

// Integration tests: CachedWindow over the rmasim runtime — epoch
// semantics, the three operational modes, pending copy machinery and
// adaptive resizing (Secs. II, III-A, III-B).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "clampi/clampi.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/align.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks, double alpha = 2.0, double beta = 0.001) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(alpha, beta);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

Config cache_cfg(Mode mode) {
  Config cfg;
  cfg.mode = mode;
  cfg.index_entries = 512;
  cfg.storage_bytes = 256 * 1024;
  return cfg;
}

/// Fill a window's local memory with a deterministic per-rank pattern.
void fill_pattern(void* base, std::size_t n, int rank) {
  auto* b = static_cast<std::uint8_t*>(base);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 7 + rank * 13) & 0xff);
  }
}

std::uint8_t pattern_at(std::size_t i, int rank) {
  return static_cast<std::uint8_t>((i * 7 + rank * 13) & 0xff);
}

TEST(CachedWindow, MissThenHitReturnsIdenticalBytes) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, cache_cfg(Mode::kAlwaysCache));
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();
    std::vector<std::uint8_t> a(256), b(256);
    win.get(a.data(), 256, peer, 128);
    EXPECT_EQ(win.last_access(), AccessType::kDirect);
    win.flush_all();
    win.get(b.data(), 256, peer, 128);
    EXPECT_EQ(win.last_access(), AccessType::kHit);
    for (int i = 0; i < 256; ++i) {
      ASSERT_EQ(a[i], pattern_at(128 + i, peer));
      ASSERT_EQ(b[i], a[i]);
    }
    EXPECT_EQ(win.stats().hits_full, 1u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, HitsAvoidTheNetwork) {
  // After warming the cache, repeated gets must not advance the modelled
  // network time (alpha is huge to make any network use obvious).
  Engine e(engine_cfg(2, /*alpha=*/1000.0, /*beta=*/0.0));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 1024, &base, cache_cfg(Mode::kAlwaysCache));
    p.barrier();
    win.lock_all();
    std::vector<std::uint8_t> buf(64);
    win.get(buf.data(), 64, 1 - p.rank(), 0);
    win.flush_all();
    const double warm = p.now_us();
    for (int i = 0; i < 100; ++i) {
      win.get(buf.data(), 64, 1 - p.rank(), 0);
      win.flush_all();
    }
    // 100 cached epochs must cost less than a single remote get.
    EXPECT_LT(p.now_us() - warm, 1000.0);
    EXPECT_EQ(win.stats().hits_full, 100u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, PendingHitSameEpoch) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 1024, &base, cache_cfg(Mode::kAlwaysCache));
    fill_pattern(base, 1024, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();
    std::vector<std::uint8_t> a(100, 0), b(100, 0);
    win.get(a.data(), 100, peer, 40);  // miss: pending insert
    win.get(b.data(), 100, peer, 40);  // same epoch: pending hit
    EXPECT_EQ(win.last_access(), AccessType::kHitPending);
    // b is not filled yet: the copy-out happens at flush.
    win.flush_all();
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(a[i], pattern_at(40 + i, peer));
      ASSERT_EQ(b[i], a[i]);
    }
    EXPECT_EQ(win.stats().hits_pending, 1u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, PartialHitFetchesOnlyTail) {
  Engine e(engine_cfg(2, /*alpha=*/10.0, /*beta=*/1.0));  // 1us per byte
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, cache_cfg(Mode::kAlwaysCache));
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();
    std::vector<std::uint8_t> a(64), b(256);
    win.get(a.data(), 64, peer, 0);
    win.flush_all();
    const double t0 = p.now_us();
    win.get(b.data(), 256, peer, 0);
    EXPECT_EQ(win.last_access(), AccessType::kPartialHit);
    win.flush_all();
    const double dt = p.now_us() - t0;
    // Tail = 192 bytes -> ~10+192us; a full fetch would be ~10+256us.
    EXPECT_LT(dt, 230.0);
    for (int i = 0; i < 256; ++i) ASSERT_EQ(b[i], pattern_at(i, peer));
    // The extended entry now serves the full 256 bytes locally.
    std::vector<std::uint8_t> c(256);
    win.get(c.data(), 256, peer, 0);
    EXPECT_EQ(win.last_access(), AccessType::kHit);
    for (int i = 0; i < 256; ++i) ASSERT_EQ(c[i], b[i]);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, TransparentModeInvalidatesEachEpoch) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 1024, &base, cache_cfg(Mode::kTransparent));
    fill_pattern(base, 1024, p.rank());
    p.barrier();
    win.lock_all();
    std::vector<std::uint8_t> buf(64);
    win.get(buf.data(), 64, 1 - p.rank(), 0);
    win.get(buf.data(), 64, 1 - p.rank(), 0);  // same epoch: hit (Fig. 4)
    EXPECT_EQ(win.last_access(), AccessType::kHitPending);
    win.flush_all();  // epoch closes: invalidation
    win.get(buf.data(), 64, 1 - p.rank(), 0);  // new epoch: miss again
    EXPECT_EQ(win.last_access(), AccessType::kDirect);
    win.flush_all();
    EXPECT_EQ(win.stats().invalidations, 2u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, AlwaysCacheSurvivesEpochs) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 1024, &base, cache_cfg(Mode::kAlwaysCache));
    p.barrier();
    win.lock_all();
    std::vector<std::uint8_t> buf(64);
    for (int epoch = 0; epoch < 5; ++epoch) {
      win.get(buf.data(), 64, 1 - p.rank(), 0);
      win.flush_all();
    }
    EXPECT_EQ(win.stats().hits_full, 4u);
    EXPECT_EQ(win.stats().invalidations, 0u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, UserDefinedModeExplicitInvalidate) {
  // Listing 1 of the paper: read-only epochs, then CLAMPI_Invalidate.
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 1024, &base, cache_cfg(Mode::kUserDefined));
    fill_pattern(base, 1024, p.rank());
    p.barrier();
    const int peer = 1 - p.rank();
    win.lock_all();
    std::vector<std::uint8_t> buf(64);
    win.get(buf.data(), 64, peer, 0);
    win.flush(peer);  // closes epoch; cache kept
    win.get(buf.data(), 64, peer, 0);
    EXPECT_EQ(win.last_access(), AccessType::kHit);
    win.flush(peer);
    clampi_invalidate(win);
    win.get(buf.data(), 64, peer, 0);
    EXPECT_EQ(win.last_access(), AccessType::kDirect);  // cold after invalidate
    win.flush(peer);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, PutBypassesCacheAndWrites) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    std::vector<std::uint8_t> mem(256, 0);
    CachedWindow win(p, p.win_create(mem.data(), mem.size()), cache_cfg(Mode::kTransparent));
    p.barrier();
    if (p.rank() == 0) {
      const std::uint8_t v[4] = {9, 8, 7, 6};
      win.put(v, 4, 1, 100);
      win.flush_all();
    }
    p.barrier();
    if (p.rank() == 1) {
      EXPECT_EQ(mem[100], 9);
      EXPECT_EQ(mem[103], 6);
    }
    p.barrier();
    win.free_window();
  });
}

// A get or put to a rank outside the window is rejected before the cache
// sees it: a hit never reaches the engine's own target check, and a miss
// must not insert (or evict for) an entry keyed by a nonexistent rank.
TEST(CachedWindow, OutOfRangeTargetThrowsBeforeTouchingTheCache) {
  Engine::Config ec = engine_cfg(2);
  ec.injector = std::make_shared<fault::Injector>(fault::Plan{});
  Engine e(ec);
  e.run([](Process& p) {
    void* base = nullptr;
    Config cc = cache_cfg(Mode::kAlwaysCache);
    cc.degraded_reads = true;
    auto win = CachedWindow::allocate(p, 4096, &base, cc);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    if (p.rank() == 0) {
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), buf.size(), 1, 0);
      win.flush_all();
      const std::uint64_t gets_before = win.stats().total_gets;
      EXPECT_THROW(win.get(buf.data(), buf.size(), p.nranks(), 0), util::ContractError);
      EXPECT_THROW(win.get(buf.data(), buf.size(), -1, 0), util::ContractError);
      EXPECT_THROW(win.put(buf.data(), buf.size(), p.nranks(), 0), util::ContractError);
      EXPECT_EQ(win.stats().total_gets, gets_before);
      win.get(buf.data(), buf.size(), 1, 0);
      EXPECT_EQ(win.last_access(), AccessType::kHit);
    }
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, EpochCounterAdvances) {
  // flush_all and unlock_all each close an epoch; in transparent mode each
  // closure drops what the epoch cached.
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 256, &base, cache_cfg(Mode::kTransparent));
    p.barrier();
    EXPECT_EQ(win.stats().invalidations, 0u);
    win.lock_all();
    std::uint8_t b[8];
    win.get(b, 8, 1 - p.rank(), 0);
    win.flush_all();
    EXPECT_EQ(win.stats().invalidations, 1u);
    win.get(b, 8, 1 - p.rank(), 0);
    EXPECT_EQ(win.last_access(), AccessType::kDirect);
    win.unlock_all();
    EXPECT_EQ(win.stats().invalidations, 2u);
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, FailingAccessesStillDeliverData) {
  // Weak caching: a cache that can store nothing must never break gets.
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    Config cfg = cache_cfg(Mode::kAlwaysCache);
    cfg.storage_bytes = 1024;  // tiny: most inserts fail
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 256 * 1024, &base, cfg);
    fill_pattern(base, 256 * 1024, p.rank());
    p.barrier();
    win.lock_all();
    const int peer = 1 - p.rank();
    std::vector<std::uint8_t> buf(8 * 1024);
    for (int i = 0; i < 20; ++i) {
      const std::size_t disp = static_cast<std::size_t>(i) * 8 * 1024;
      win.get(buf.data(), buf.size(), peer, disp);
      win.flush_all();
      for (std::size_t k = 0; k < buf.size(); k += 997) {
        ASSERT_EQ(buf[k], pattern_at(disp + k, peer));
      }
    }
    EXPECT_GT(win.stats().failing, 0u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, AdaptiveGrowsUndersizedIndex) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    Config cfg = cache_cfg(Mode::kAlwaysCache);
    cfg.index_entries = 64;  // far too small for 512 distinct gets
    cfg.storage_bytes = 1 << 20;
    cfg.adaptive = true;
    cfg.adapt_interval = 256;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 64 * 1024, &base, cfg);
    p.barrier();
    win.lock_all();
    std::vector<std::uint8_t> buf(64);
    for (int round = 0; round < 12; ++round) {
      for (int i = 0; i < 512; ++i) {
        win.get(buf.data(), 64, 1 - p.rank(), static_cast<std::size_t>(i) * 64);
      }
      win.flush_all();
    }
    EXPECT_GT(win.index_entries(), 64u);
    EXPECT_GT(win.stats().adjustments, 0u);
    // One warm round (the final adjustment may have just invalidated),
    // then the working set fits and a full round must hit.
    for (int i = 0; i < 512; ++i) {
      win.get(buf.data(), 64, 1 - p.rank(), static_cast<std::size_t>(i) * 64);
    }
    win.flush_all();
    const Stats before = win.stats();
    for (int i = 0; i < 512; ++i) {
      win.get(buf.data(), 64, 1 - p.rank(), static_cast<std::size_t>(i) * 64);
    }
    win.flush_all();
    const Stats d = win.stats().delta_since(before);
    EXPECT_GT(d.hitting(), 400u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, AdaptiveGrowsUndersizedStorage) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    Config cfg = cache_cfg(Mode::kAlwaysCache);
    cfg.index_entries = 2048;
    cfg.storage_bytes = 64 << 10;  // min bound; holds working set / 4
    cfg.min_storage_bytes = 64 << 10;
    cfg.adaptive = true;
    cfg.adapt_interval = 512;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 1 << 20, &base, cfg);
    p.barrier();
    win.lock_all();
    std::vector<std::uint8_t> buf(512);
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 512; ++i) {
        win.get(buf.data(), 512, 1 - p.rank(), static_cast<std::size_t>(i) * 512);
      }
      win.flush_all();
    }
    EXPECT_GT(win.storage_bytes(), std::size_t{64} << 10);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, ManyRanksConcurrentCaching) {
  Engine e(engine_cfg(8));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, cache_cfg(Mode::kAlwaysCache));
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    win.lock_all();
    std::vector<std::uint8_t> buf(128);
    for (int round = 0; round < 3; ++round) {
      for (int t = 0; t < p.nranks(); ++t) {
        if (t == p.rank()) continue;
        win.get(buf.data(), 128, t, static_cast<std::size_t>(t) * 16);
        win.flush_all();
        for (int i = 0; i < 128; ++i) ASSERT_EQ(buf[i], pattern_at(t * 16 + i, t));
      }
    }
    EXPECT_EQ(win.stats().hits_full, 2u * 7u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(CachedWindow, CoreInvariantsAfterHeavyChurn) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    Config cfg = cache_cfg(Mode::kAlwaysCache);
    cfg.index_entries = 128;
    cfg.storage_bytes = 32 * 1024;
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 1 << 20, &base, cfg);
    p.barrier();
    win.lock_all();
    clampi::util::Xoshiro256 rng(p.rank() + 1);
    std::vector<std::uint8_t> buf(4096);
    for (int i = 0; i < 5000; ++i) {
      const std::size_t disp = rng.bounded(256) * 2048;
      const std::size_t bytes = 1 + rng.bounded(2048);
      win.get(buf.data(), bytes, 1 - p.rank(), disp);
      if (i % 7 == 0) win.flush_all();
    }
    win.flush_all();
    EXPECT_TRUE(win.core().validate());
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

// --- per-operation bypass ---

TEST(Bypass, GetNocacheNeverPopulatesTheCache) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    auto win = CachedWindow::allocate(p, 1024, &base, cfg);
    auto* b = static_cast<std::uint8_t*>(base);
    for (int i = 0; i < 1024; ++i) b[i] = static_cast<std::uint8_t>(i + p.rank());
    p.barrier();
    win.lock_all();
    std::uint8_t buf[64];
    win.get_nocache(buf, 64, 1 - p.rank(), 0);
    win.flush_all();
    EXPECT_EQ(buf[5], static_cast<std::uint8_t>(5 + (1 - p.rank())));
    EXPECT_EQ(win.stats().total_gets, 0u);  // cache untouched
    EXPECT_EQ(win.core().cached_entries() + win.core().pending_entries(), 0u);
    // A cached get of the same key is a miss: nothing was inserted.
    win.get(buf, 64, 1 - p.rank(), 0);
    EXPECT_EQ(win.last_access(), AccessType::kDirect);
    win.flush_all();
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

}  // namespace

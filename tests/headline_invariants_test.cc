// Headline invariants: the paper's core claims, pinned as deterministic
// regression tests (modelled time policy => bit-stable results). If a
// change to the cache breaks one of these, the reproduction no longer
// reproduces.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clampi/clampi.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"
#include "util/rng.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config aries_cfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = net::make_aries_model();
  cfg.time_policy = rmasim::TimePolicy::kModeled;  // deterministic
  return cfg;
}

/// Completion time of Z skewed gets over N distinct 1 KiB rows, cached or
/// not (the repeated-reuse pattern of the paper's motivation, Fig. 2).
double reuse_workload_us(bool cached, std::size_t distinct, std::size_t z) {
  Engine e(aries_cfg(2));
  auto out = std::make_shared<double>(0.0);
  e.run([out, cached, distinct, z](Process& p) {
    constexpr std::size_t kBytes = 1024;
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 4096;
    cfg.storage_bytes = 8 << 20;
    auto win = CachedWindow::allocate(p, distinct * kBytes, &base, cfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      util::Xoshiro256 rng(9);
      std::vector<std::byte> buf(kBytes);
      const double t0 = p.now_us();
      for (std::size_t i = 0; i < z; ++i) {
        const std::size_t key = rng.bounded(distinct);
        if (cached) {
          win.get(buf.data(), kBytes, 1, key * kBytes);
        } else {
          win.get_nocache(buf.data(), kBytes, 1, key * kBytes);
        }
        win.flush(1);
      }
      *out = p.now_us() - t0;
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  return *out;
}

TEST(Headline, CachingWinsBigOnHeavyReuse) {
  // "access latencies ... spanning three orders of magnitude" (Sec. I):
  // on a fits-in-cache reuse workload the cached run must win by a wide
  // margin under modelled (pure network vs pure local copy) time.
  const double uncached = reuse_workload_us(false, /*distinct=*/128, /*z=*/4000);
  const double cached = reuse_workload_us(true, 128, 4000);
  EXPECT_GT(uncached / cached, 5.0) << "uncached " << uncached << "us vs " << cached;
}

TEST(Headline, MissOverheadIsBounded) {
  // Weak caching (Sec. III-D2): even with zero reuse — every get distinct,
  // everything evicting/failing through a tiny cache — the cached run may
  // cost only a bounded factor over the raw gets.
  Engine e(aries_cfg(2));
  auto ratio = std::make_shared<double>(0.0);
  e.run([ratio](Process& p) {
    constexpr std::size_t kBytes = 2048;
    constexpr std::size_t kGets = 2000;
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 64;
    cfg.storage_bytes = 64 << 10;  // tiny: heavy churn
    auto win = CachedWindow::allocate(p, kGets * kBytes, &base, cfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::byte> buf(kBytes);
      double t0 = p.now_us();
      for (std::size_t i = 0; i < kGets; ++i) {
        win.get_nocache(buf.data(), kBytes, 1, i * kBytes);
        win.flush(1);
      }
      const double raw = p.now_us() - t0;
      t0 = p.now_us();
      for (std::size_t i = 0; i < kGets; ++i) {
        win.get(buf.data(), kBytes, 1, i * kBytes);  // all misses
        win.flush(1);
      }
      const double managed = p.now_us() - t0;
      *ratio = managed / raw;
      EXPECT_EQ(win.stats().hitting(), 0u);  // truly zero reuse
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  // Under the modelled policy management costs the modelled local copies
  // (copy-in at flush) — the bound the paper's design argues for.
  EXPECT_LT(*ratio, 1.5);
  EXPECT_GE(*ratio, 1.0);
}

TEST(Headline, TransparentModeNeedsNoCodeChangeAndNeverLies) {
  // Sec. III-A: transparent mode is semantically invisible. Run the same
  // epoch-structured program against a cached and an uncached window with
  // data changing every epoch; results must match byte for byte.
  Engine e(aries_cfg(2));
  e.run([](Process& p) {
    std::vector<std::uint32_t> mem_a(64), mem_b(64);
    Config cfg;
    cfg.mode = Mode::kTransparent;
    CachedWindow cached(p, p.win_create(mem_a.data(), mem_a.size() * 4), cfg);
    const rmasim::Window plain = p.win_create(mem_b.data(), mem_b.size() * 4);
    p.barrier();
    cached.lock_all();
    p.lock_all(plain);
    for (std::uint32_t round = 0; round < 6; ++round) {
      for (std::size_t i = 0; i < 64; ++i) {
        mem_a[i] = mem_b[i] = round * 100 + static_cast<std::uint32_t>(i) + p.rank();
      }
      p.barrier();
      std::uint32_t x = 0, y = 0;
      cached.get(&x, 4, 1 - p.rank(), (round % 64) * 4);
      p.get(&y, 4, 1 - p.rank(), (round % 64) * 4, plain);
      cached.flush_all();
      p.flush_all(plain);
      ASSERT_EQ(x, y) << "round " << round;
      p.barrier();
    }
    cached.unlock_all();
    p.unlock_all(plain);
    p.barrier();
    p.win_free(plain);
    cached.free_window();
  });
}

TEST(Headline, AdaptiveConvergesFromBadStartingPoints) {
  // Sec. III-E / Figs. 9, 15: from a hopelessly undersized configuration
  // the adaptive strategy must reach a geometry that serves the working
  // set with a healthy hit ratio, with a modest number of adjustments.
  Engine e(aries_cfg(2));
  e.run([](Process& p) {
    constexpr std::size_t kDistinct = 2000;
    constexpr std::size_t kBytes = 1024;
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 64;              // 30x too small
    cfg.storage_bytes = 64 << 10;        // 30x too small
    cfg.min_storage_bytes = 64 << 10;
    cfg.adaptive = true;
    cfg.adapt_interval = 1024;
    auto win = CachedWindow::allocate(p, kDistinct * kBytes, &base, cfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::byte> buf(kBytes);
      for (int round = 0; round < 12; ++round) {
        for (std::size_t k = 0; k < kDistinct; ++k) {
          win.get(buf.data(), kBytes, 1, k * kBytes);
          if (k % 16 == 15) win.flush_all();
        }
        win.flush_all();
      }
      EXPECT_GE(win.index_entries(), 2048u);
      EXPECT_GE(win.storage_bytes(), std::size_t{2} << 20);
      EXPECT_LE(win.stats().adjustments, 40u);  // converged, not thrashing
      // Steady state: one full warm round must be nearly all hits.
      const Stats before = win.stats();
      for (std::size_t k = 0; k < kDistinct; ++k) {
        win.get(buf.data(), kBytes, 1, k * kBytes);
      }
      win.flush_all();
      const Stats d = win.stats().delta_since(before);
      EXPECT_GT(static_cast<double>(d.hitting()) / static_cast<double>(d.total_gets),
                0.95);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

}  // namespace

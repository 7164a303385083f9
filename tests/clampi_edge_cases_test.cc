// Edge cases and failure-injection tests for the CLaMPI core and window:
// entry relocation, boundary geometry, native-cache clamping, and long-run invariants under adversarial
// request streams.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bh/native_cache.h"
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

void materialize(CacheCore& c, std::uint32_t entry, std::uint8_t fill) {
  std::vector<std::uint8_t> buf(c.entry_bytes(entry), fill);
  std::memcpy(c.entry_data(entry), buf.data(), buf.size());
  c.mark_cached(entry);
}

TEST(CacheEdge, PartialHitRelocatesWhenInPlaceBlocked) {
  // Storage layout: [A][B][free...]. Extending A in place is impossible
  // (B follows it), so the partial hit must relocate A and keep its data.
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.index_entries = 128;
  cfg.storage_bytes = 4096;
  CacheCore c(cfg);
  const auto a = c.access({0, 0}, 64);
  materialize(c, a.entry, 0xaa);
  const auto b = c.access({0, 1000}, 64);
  materialize(c, b.entry, 0xbb);

  const auto r = c.access({0, 0}, 256);  // partial hit on A
  EXPECT_EQ(r.type, AccessType::kPartialHit);
  EXPECT_TRUE(r.extended);
  EXPECT_EQ(c.entry_bytes(r.entry), 256u);
  // Head bytes survived the move.
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(std::to_integer<int>(c.entry_data(r.entry)[i]), 0xaa);
  }
  // B untouched.
  ASSERT_EQ(std::to_integer<int>(c.entry_data(b.entry)[0]), 0xbb);
  EXPECT_TRUE(c.validate());
}

TEST(CacheEdge, RepeatedExtensionGrowsMonotonically) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.index_entries = 64;
  cfg.storage_bytes = 64 * 1024;
  CacheCore c(cfg);
  auto r = c.access({0, 0}, 64);
  materialize(c, r.entry, 1);
  for (std::size_t sz = 128; sz <= 8192; sz *= 2) {
    r = c.access({0, 0}, sz);
    ASSERT_EQ(r.type, AccessType::kPartialHit) << sz;
    ASSERT_TRUE(r.extended) << sz;
    materialize(c, r.entry, 1);
    ASSERT_TRUE(c.validate());
  }
  EXPECT_EQ(c.entry_bytes(r.entry), 8192u);
  EXPECT_EQ(c.stats().hits_partial, 7u);
}

TEST(CacheEdge, EntryExactlyFillingStorage) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.index_entries = 64;
  cfg.storage_bytes = 4096;
  CacheCore c(cfg);
  const auto r = c.access({0, 0}, 4096);  // whole buffer
  EXPECT_EQ(r.type, AccessType::kDirect);
  materialize(c, r.entry, 7);
  EXPECT_EQ(c.free_bytes(), 0u);
  EXPECT_EQ(c.access({0, 0}, 4096).type, AccessType::kHit);
  // Any second entry must evict the only one.
  const auto s = c.access({0, 9999}, 64);
  EXPECT_EQ(s.type, AccessType::kCapacity);
  EXPECT_TRUE(c.validate());
}

TEST(CacheEdge, ManyTargetsSameDisplacement) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.index_entries = 512;
  cfg.storage_bytes = 64 * 1024;
  CacheCore c(cfg);
  for (int t = 0; t < 64; ++t) {
    const auto r = c.access({t, 0}, 64);
    ASSERT_TRUE(r.inserted);
    materialize(c, r.entry, static_cast<std::uint8_t>(t));
  }
  for (int t = 0; t < 64; ++t) {
    const auto r = c.access({t, 0}, 64);
    ASSERT_EQ(r.type, AccessType::kHit);
    ASSERT_EQ(std::to_integer<int>(c.entry_data(r.entry)[0]), t);
  }
  EXPECT_TRUE(c.validate());
}

TEST(CacheEdge, HugeDisplacementsHashCleanly) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.index_entries = 256;
  cfg.storage_bytes = 64 * 1024;
  CacheCore c(cfg);
  // Displacements near 2^48 with power-of-two strides (worst case for a
  // weak hash).
  for (std::uint64_t i = 0; i < 100; ++i) {
    const Key k{3, (std::uint64_t{1} << 47) + (i << 21)};
    const auto r = c.access(k, 128);
    ASSERT_TRUE(r.inserted || r.type == AccessType::kFailing);
    if (r.inserted) materialize(c, r.entry, 9);
  }
  EXPECT_GT(c.cached_entries(), 90u);  // virtually all inserted
  EXPECT_TRUE(c.validate());
}

TEST(CacheEdge, AdversarialSameSlotStreamKeepsInvariants) {
  // Tiny index, arity 2: constant conflict pressure plus capacity churn.
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.index_entries = 16;
  cfg.cuckoo_arity = 2;
  cfg.storage_bytes = 2048;
  CacheCore c(cfg);
  clampi::util::Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    const Key k{0, rng.bounded(64) * 128};
    const auto r = c.access(k, 32 + rng.bounded(192));
    if (r.entry != kNoEntry && c.entry_pending(r.entry)) {
      materialize(c, r.entry, 1);
    }
    if (i % 2000 == 0) {
      ASSERT_TRUE(c.validate()) << i;
    }
  }
  EXPECT_GT(c.stats().conflicting + c.stats().failing, 0u);
  EXPECT_TRUE(c.validate());
}

TEST(WindowEdge, InterleavedTargetsWithPerTargetFlush) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    auto win = CachedWindow::allocate(p, 1024, &base, cfg);
    auto* b = static_cast<std::uint8_t*>(base);
    for (int i = 0; i < 1024; ++i) b[i] = static_cast<std::uint8_t>(i + p.rank() * 7);
    p.barrier();
    win.lock_all();
    // Issue gets to several targets, flush them one by one out of order.
    std::uint8_t r1[16], r2[16], r3[16];
    const int t1 = (p.rank() + 1) % 4, t2 = (p.rank() + 2) % 4, t3 = (p.rank() + 3) % 4;
    win.get(r1, 16, t1, 0);
    win.get(r2, 16, t2, 32);
    win.get(r3, 16, t3, 64);
    win.flush(t2);
    for (int i = 0; i < 16; ++i) ASSERT_EQ(r2[i], static_cast<std::uint8_t>(32 + i + t2 * 7));
    win.flush(t3);
    win.flush(t1);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(r1[i], static_cast<std::uint8_t>(0 + i + t1 * 7));
      ASSERT_EQ(r3[i], static_cast<std::uint8_t>(64 + i + t3 * 7));
    }
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

TEST(NativeEdge, BlockClampedAtWindowEnd) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    const rmasim::Window w = p.win_allocate(1000, &base);  // not block-aligned
    auto* data = static_cast<std::uint8_t*>(base);
    for (int i = 0; i < 1000; ++i) data[i] = static_cast<std::uint8_t>(i ^ 0x5a);
    p.barrier();
    bh::NativeBlockCache cache(p, w, 2048, 256);
    std::uint8_t buf[100];
    cache.get(buf, 100, 1 - p.rank(), 900);  // block [768,1024) exceeds window
    for (int i = 0; i < 100; ++i) ASSERT_EQ(buf[i], static_cast<std::uint8_t>((900 + i) ^ 0x5a));
    p.barrier();
    p.win_free(w);
  });
}

TEST(WindowEdge, StatsBytesAccounting) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    auto win = CachedWindow::allocate(p, 4096, &base, cfg);
    p.barrier();
    win.lock_all();
    std::vector<std::uint8_t> buf(512);
    win.get(buf.data(), 512, 1 - p.rank(), 0);  // miss: 512 from network
    win.flush_all();
    win.get(buf.data(), 512, 1 - p.rank(), 0);  // hit: 512 from cache
    win.get(buf.data(), 256, 1 - p.rank(), 0);  // hit: 256 from cache
    EXPECT_EQ(win.stats().bytes_from_network, 512u);
    EXPECT_EQ(win.stats().bytes_from_cache, 768u);
    win.unlock_all();
    p.barrier();
    win.free_window();
  });
}

}  // namespace

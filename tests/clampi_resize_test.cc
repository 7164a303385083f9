// Tests for geometry changes: CacheCore::resize sequences, the cuckoo
// index's move assignment (which resize relies on), and statistics
// continuity across adjustments.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "clampi/cache.h"
#include "clampi/cuckoo_index.h"
#include "util/rng.h"

namespace {

using namespace clampi;

struct RawOps {
  std::vector<std::uint64_t> keys;
  std::uint64_t hash_key(std::uint32_t id) const { return keys[id]; }
};

TEST(CuckooMove, MoveAssignmentKeepsLookups) {
  // CacheCore::resize move-assigns a fresh index over the old one; the
  // moved-into index must be fully functional.
  RawOps ops;
  CuckooIndex<RawOps> idx(64, 4, 64, 1, &ops);
  idx = CuckooIndex<RawOps>(256, 4, 64, 2, &ops);
  clampi::util::Xoshiro256 rng(3);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 150; ++i) {
    const std::uint64_t k = rng();
    ops.keys.push_back(k);
    if (idx.insert(k, static_cast<std::uint32_t>(ops.keys.size() - 1), nullptr)) {
      keys.push_back(k);
    }
  }
  EXPECT_EQ(idx.nslots(), 256u);
  EXPECT_GT(keys.size(), 140u);
  for (const auto k : keys) {
    EXPECT_NE(idx.lookup(k, [&](std::uint32_t id) { return ops.keys[id] == k; }),
              kNoEntry);
  }
  EXPECT_TRUE(idx.validate());
}

Config base_cfg() {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.index_entries = 128;
  cfg.storage_bytes = 64 * 1024;
  return cfg;
}

void fill(CacheCore& c, int n, std::uint64_t stride = 4096) {
  std::vector<std::uint8_t> buf(256, 1);
  for (int i = 0; i < n; ++i) {
    const auto r = c.access({0, static_cast<std::uint64_t>(i) * stride}, 256);
    if (r.inserted) {
      std::memcpy(c.entry_data(r.entry), buf.data(), 256);
      c.mark_cached(r.entry);
    }
  }
}

TEST(Resize, GrowShrinkSequence) {
  CacheCore c(base_cfg());
  fill(c, 50);
  EXPECT_EQ(c.cached_entries(), 50u);
  c.resize(512, 256 * 1024);  // grow both
  EXPECT_EQ(c.index_entries(), 512u);
  EXPECT_EQ(c.cached_entries(), 0u);  // resize invalidates
  fill(c, 100);
  EXPECT_EQ(c.cached_entries(), 100u);
  c.resize(128, 64 * 1024);  // shrink back
  fill(c, 30);
  EXPECT_EQ(c.cached_entries(), 30u);
  EXPECT_TRUE(c.validate());
  EXPECT_EQ(c.stats().adjustments, 2u);
  EXPECT_EQ(c.stats().invalidations, 2u);
}

TEST(Resize, CountersPersistAcrossResizes) {
  CacheCore c(base_cfg());
  fill(c, 20);
  fill(c, 20);  // same keys: hits
  const auto hits_before = c.stats().hits_full;
  EXPECT_EQ(hits_before, 20u);
  c.resize(256, 128 * 1024);
  // Lifetime counters survive the resize (the adaptive tuner and the
  // evaluation statistics depend on it).
  EXPECT_EQ(c.stats().hits_full, hits_before);
  EXPECT_EQ(c.stats().total_gets, 40u);
  fill(c, 5);
  EXPECT_EQ(c.stats().total_gets, 45u);
}

TEST(Resize, RepeatedDoublingMirrorsAdaptiveGrowth) {
  CacheCore c(base_cfg());
  std::size_t ie = c.index_entries();
  std::size_t sb = c.storage_bytes();
  for (int step = 0; step < 6; ++step) {
    ie *= 2;
    sb *= 2;
    c.resize(ie, sb);
    fill(c, 64);
    ASSERT_TRUE(c.validate()) << "step " << step;
    ASSERT_EQ(c.cached_entries(), 64u);
  }
  EXPECT_EQ(c.index_entries(), 128u * 64u);
}

TEST(Resize, SmallerStorageStillServes) {
  CacheCore c(base_cfg());
  c.resize(128, 1024);  // tiny: at most 4 x 256B entries
  fill(c, 20);
  EXPECT_LE(c.cached_entries(), 4u);
  EXPECT_GT(c.stats().capacity + c.stats().failing, 0u);
  EXPECT_TRUE(c.validate());
}

TEST(Resize, AverageGetSizePersists) {
  // ags is a lifetime running mean over C_w.G (Sec. III-C2), so two cores
  // that saw different get sizes before a resize still score the same
  // post-resize entries differently. The positional score reads only ags
  // and the free bytes next to an entry; the storage is left nearly full so
  // that term stays below ags.
  const auto positional_sum = [](std::size_t history_bytes) {
    Config cfg = base_cfg();
    cfg.score = ScoreKind::kPositional;
    CacheCore c(cfg);
    std::vector<std::uint8_t> buf(512, 1);
    const auto get = [&](std::uint64_t disp, std::size_t bytes) {
      const auto r = c.access({0, disp}, bytes);
      if (r.inserted) {
        std::memcpy(c.entry_data(r.entry), buf.data(), bytes);
        c.mark_cached(r.entry);
      }
    };
    for (int i = 0; i < 10; ++i) get(static_cast<std::uint64_t>(i) * 4096, history_bytes);
    c.resize(256, 4096);
    for (int i = 0; i < 7; ++i) get(static_cast<std::uint64_t>(i) * 4096, 512);
    get(7 * 4096, 128);
    EXPECT_EQ(c.cached_entries(), 8u);
    double sum = 0.0;
    for (std::uint32_t id = 0; id < c.entry_slots(); ++id) {
      if (c.entry_live(id)) sum += c.score(id);
    }
    return sum;
  };
  EXPECT_NE(positional_sum(512), positional_sum(64));
}

}  // namespace

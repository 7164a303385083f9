// Tests for the hot-path mechanics introduced by the cache-core
// overhaul: insertion at high load, the 8-bit slot-word fingerprint, and
// the hot-path counters surfaced through clampi::Stats and
// stats_to_info().
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "clampi/cache.h"
#include "clampi/cuckoo_index.h"
#include "clampi/info.h"
#include "util/rng.h"

namespace {

using clampi::CacheCore;
using clampi::Config;
using clampi::CuckooIndex;
using clampi::Key;
using clampi::kNoEntry;
namespace util = clampi::util;

struct TestOps {
  std::vector<std::uint64_t> keys;
  std::uint64_t hash_key(std::uint32_t id) const { return keys[id]; }
};

using Index = CuckooIndex<TestOps>;

// --- insertion search ------------------------------------------------------

// Randomized stress: a live index at high load stays valid while inserts
// that move occupants keep succeeding.
TEST(KickRotation, StressHighLoadInsertsStayValid) {
  TestOps ops;
  Index idx(256, 4, 64, 7, &ops);
  util::Xoshiro256 rng(99);
  std::size_t placed = 0;
  while (placed < 240) {  // ~94% load: deep searches guaranteed
    const std::uint64_t k = rng();
    ops.keys.push_back(k);
    if (idx.insert(k, static_cast<std::uint32_t>(ops.keys.size() - 1), nullptr)) ++placed;
  }
  EXPECT_TRUE(idx.validate());
  EXPECT_GT(idx.counters().kick_steps, 0u);
  // Every placed key must still resolve (inserts moved many of them).
  for (std::uint32_t id = 0; id < ops.keys.size(); ++id) {
    const std::uint64_t k = ops.keys[id];
    const std::uint32_t got =
        idx.lookup(k, [&](std::uint32_t e) { return ops.keys[e] == k; });
    if (got != kNoEntry) {
      EXPECT_EQ(ops.keys[got], k);
    }
  }
}

// --- fingerprint filtering --------------------------------------------------

TEST(Fingerprint, TagNeverEqualsEmptySentinel) {
  // The empty slot word carries 0xff in the tag byte; tag_of must never
  // produce it, or an empty slot could tag-match and feed pred() a
  // garbage id. Scan a large deterministic key sample.
  std::uint64_t k = 0x243f6a8885a308d3ull;
  for (int i = 0; i < 1 << 20; ++i) {
    ASSERT_NE(Index::tag_of(k), 0xffu);
    k += 0x9e3779b97f4a7c15ull;
  }
}

// Force fingerprint collisions: probe a loaded table with absent keys
// until one tag-matches a resident entry with a different exact key. The
// lookup must report a miss, count the false positive, and never corrupt
// or mis-resolve resident keys.
TEST(Fingerprint, CollisionIsCountedAndRejected) {
  TestOps ops;
  Index idx(64, 4, 64, 42, &ops);
  util::Xoshiro256 rng(5);
  while (idx.occupied() < 48) {
    const std::uint64_t k = rng();
    ops.keys.push_back(k);
    idx.insert(k, static_cast<std::uint32_t>(ops.keys.size() - 1), nullptr);
  }
  const std::uint64_t fp_before = idx.counters().tag_false_positives;
  // 48 occupied slots x 8-bit tags: a few thousand absent probes are
  // certain (deterministically, fixed seed) to hit several collisions.
  std::uint64_t probe = 0xfeedface;
  int misses = 0;
  for (int i = 0; i < 4096; ++i) {
    probe += 0x9e3779b97f4a7c15ull;
    const std::uint32_t got =
        idx.lookup(probe, [&](std::uint32_t e) { return ops.keys[e] == probe; });
    EXPECT_EQ(got, kNoEntry);  // keys are absent: any return would be wrong
    ++misses;
  }
  EXPECT_EQ(misses, 4096);
  EXPECT_GT(idx.counters().tag_false_positives, fp_before)
      << "no tag collision in 4096 absent probes of a 75%-full table";
  // False positives must not have disturbed resident entries.
  EXPECT_TRUE(idx.validate());
  for (std::uint32_t id = 0; id < ops.keys.size(); ++id) {
    const std::uint64_t k = ops.keys[id];
    const std::uint32_t got = idx.lookup(k, [&](std::uint32_t e) { return ops.keys[e] == k; });
    if (got != kNoEntry) {
      EXPECT_EQ(ops.keys[got], k);
    }
  }
}

// probes_out: 1 for a first-slot hit is the minimum; a miss examines all
// p candidates. The caller-visible contract CacheCore::access() sums.
TEST(Fingerprint, ProbeOutParameterBounds) {
  TestOps ops;
  Index idx(64, 4, 64, 42, &ops);
  ops.keys.push_back(123);
  ASSERT_TRUE(idx.insert(123, 0, nullptr));
  int probes = -1;
  const std::uint32_t got =
      idx.lookup(123, [&](std::uint32_t e) { return ops.keys[e] == 123u; }, &probes);
  EXPECT_EQ(got, 0u);
  EXPECT_GE(probes, 1);
  EXPECT_LE(probes, idx.arity());
  probes = -1;
  idx.lookup(456, [&](std::uint32_t e) { return ops.keys[e] == 456u; }, &probes);
  EXPECT_EQ(probes, idx.arity());  // miss: every candidate examined
}

// --- hot-path counters through Stats / stats_to_info ------------------------

TEST(HotPathCounters, SurfacedThroughStatsAndInfo) {
  Config cfg;
  cfg.index_entries = 64;
  cfg.storage_bytes = std::size_t{64} << 10;
  CacheCore c(cfg);
  // Drive misses + hits: distinct keys force inserts (fast-bin allocs,
  // walks once the index loads up), repeats drive lookup probes.
  for (std::uint64_t round = 0; round < 4; ++round) {
    for (std::uint64_t i = 0; i < 96; ++i) {
      const auto r = c.access(Key{1, i * 4096}, 256);
      if (r.inserted) c.mark_cached(r.entry);
    }
  }
  const clampi::Stats& s = c.stats();
  EXPECT_GT(s.index_probes, 0u);
  EXPECT_GE(s.index_probes, s.total_gets);  // every get probes at least once
  EXPECT_GT(s.storage_fastbin_allocs, 0u);  // 256-byte entries are bin-sized
  EXPECT_GT(s.storage_pool_reuses, 0u);     // eviction churn recycles descriptors
  EXPECT_GT(s.index_kick_steps, 0u);        // 96 keys into 64 slots must walk

  const clampi::Info info = clampi::stats_to_info(s);
  const auto field = [&info](const char* name) {
    const auto it = info.find(std::string("clampi_stat_") + name);
    return it == info.end() ? std::string("<missing>") : it->second;
  };
  EXPECT_EQ(field("index_probes"), std::to_string(s.index_probes));
  EXPECT_EQ(field("index_tag_false_positives"), std::to_string(s.index_tag_false_positives));
  EXPECT_EQ(field("index_kick_steps"), std::to_string(s.index_kick_steps));
  EXPECT_EQ(field("storage_fastbin_allocs"), std::to_string(s.storage_fastbin_allocs));
  EXPECT_EQ(field("storage_tree_allocs"), std::to_string(s.storage_tree_allocs));
  EXPECT_EQ(field("storage_pool_reuses"), std::to_string(s.storage_pool_reuses));

  // The whole counter list: every field, given a distinct value, comes back
  // under its own key, no key is missing or extra, and delta_since
  // subtracts every field.
  clampi::Stats all{};
  clampi::Stats base{};
  std::uint64_t i = 0;
  for (const clampi::StatsField& f : clampi::kStatsFields) {
    all.*f.member = 1000 + 3 * i;
    base.*f.member = i++;
  }
  const clampi::Info all_info = clampi::stats_to_info(all);
  EXPECT_EQ(all_info.size(), clampi::kStatsCounters);
  const clampi::Stats d = all.delta_since(base);
  for (const clampi::StatsField& f : clampi::kStatsFields) {
    SCOPED_TRACE(f.name);
    const auto it = all_info.find(std::string("clampi_stat_") + f.name);
    ASSERT_NE(it, all_info.end());
    EXPECT_EQ(it->second, std::to_string(all.*f.member));
    EXPECT_EQ(d.*f.member, all.*f.member - base.*f.member);
  }
}

// resize() replaces the index object; the counters it accumulated must
// be banked, not lost — the adaptive tuner reads deltas across resizes.
TEST(HotPathCounters, SurviveResize) {
  Config cfg;
  cfg.index_entries = 64;
  cfg.storage_bytes = std::size_t{64} << 10;
  CacheCore c(cfg);
  for (std::uint64_t i = 0; i < 96; ++i) {
    const auto r = c.access(Key{1, i * 4096}, 256);
    if (r.inserted) c.mark_cached(r.entry);
  }
  const clampi::Stats before = c.stats();
  ASSERT_GT(before.index_kick_steps, 0u);
  c.resize(128, std::size_t{128} << 10);
  const clampi::Stats& after = c.stats();
  EXPECT_GE(after.index_probes, before.index_probes);
  EXPECT_GE(after.index_kick_steps, before.index_kick_steps);
  EXPECT_GE(after.index_tag_false_positives, before.index_tag_false_positives);
  EXPECT_GE(after.storage_fastbin_allocs, before.storage_fastbin_allocs);
  EXPECT_GE(after.storage_pool_reuses, before.storage_pool_reuses);
}

}  // namespace

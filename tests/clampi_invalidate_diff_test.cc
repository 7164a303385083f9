// Differential test of put invalidation: CacheCore::invalidate_overlap,
// which probes the core's address index, against the obviously-correct
// reference — a walk of the whole entry table through the public
// iteration surface (entry_slots / entry_live / entry_key / entry_bytes /
// entry_pending), dropping every live CACHED entry of the target whose
// range overlaps the put.
//
// A long randomized trace drives the core through every path that links
// entries into or out of the address index: misses, hits, partial-hit
// extensions (in place and relocated), mark_cached, drop_failed,
// revert_extension, quarantine, capacity and conflict evictions,
// invalidate_retaining, invalidate and resize. Before every put the
// expected victims are computed by the reference scan; the count, the
// exact set of dropped ids, the put_invalidations delta and a clean
// audit() must all agree, and the next miss must reuse the highest
// dropped id (victims are evicted in ascending id order, exactly as the
// table walk did, so the free list is unchanged).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "clampi/cache.h"
#include "util/rng.h"

namespace {

using clampi::CacheCore;
using clampi::Config;
using clampi::Key;
namespace util = clampi::util;

constexpr int kTargets = 3;

/// Outstanding PENDING entries and, for extended ones, what a failed tail
/// fetch would revert to.
struct PendingInfo {
  bool extended = false;
  std::size_t prev_bytes = 0;
  bool prev_pending = false;
};

class TraceRunner {
 public:
  explicit TraceRunner(std::uint64_t seed) : rng_(seed), core_(make_config(seed)) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t op = rng_.bounded(100);
      if (op < 45) {
        get();
      } else if (op < 60) {
        settle_one();
      } else if (op < 85) {
        put();
      } else if (op < 90) {
        quarantine_one();
      } else if (op < 97) {
        settle_all();
        put();  // puts against a fully CACHED table: no PENDING skips
      } else if (op < 98) {
        settle_all();
        std::vector<int> keep;
        for (int t = 0; t < kTargets; ++t) {
          if (rng_.bounded(2) == 0) keep.push_back(t);
        }
        core_.invalidate_retaining(keep);
      } else if (op < 99) {
        settle_all();
        core_.resize(16 + rng_.bounded(64), (2 + rng_.bounded(8)) << 10);
      } else {
        settle_all();
        core_.invalidate();
      }
      ASSERT_TRUE(core_.audit().ok) << "step " << step << ": " << core_.audit().detail;
    }
    EXPECT_GT(puts_with_victims_, 50u);
    EXPECT_GT(other_block_victims_, 10u);
  }

 private:
  static Config make_config(std::uint64_t seed) {
    Config cfg;
    cfg.seed = seed;
    // Small enough that capacity and conflict evictions are frequent.
    cfg.index_entries = 64;
    cfg.storage_bytes = std::size_t{8} << 10;
    return cfg;
  }

  /// Displacements cluster on the 256-byte block grid: exactly at 0, on a
  /// block edge, just before or after one, or anywhere in a small window.
  std::uint64_t pick_disp() {
    const std::uint64_t block = rng_.bounded(24);
    switch (rng_.bounded(5)) {
      case 0: return 0;
      case 1: return block * 256;
      case 2: return block * 256 + 1 + rng_.bounded(8);
      case 3: return block == 0 ? 0 : block * 256 - 1 - rng_.bounded(8);
      default: return rng_.bounded(24 * 256);
    }
  }
  /// Sizes from a byte to several blocks.
  std::size_t pick_bytes() {
    switch (rng_.bounded(4)) {
      case 0: return 1 + rng_.bounded(16);
      case 1: return 1 + rng_.bounded(256);
      case 2: return 200 + rng_.bounded(400);
      default: return 1 + rng_.bounded(1200);
    }
  }

  void get() {
    const Key key{static_cast<std::int32_t>(rng_.bounded(kTargets)), pick_disp()};
    const CacheCore::Result r = core_.access(key, pick_bytes());
    if (r.inserted) {
      pending_[r.entry] = PendingInfo{};
    } else if (r.extended) {
      pending_[r.entry] = PendingInfo{true, r.prev_bytes, r.prev_pending};
    }
  }

  /// Resolve one PENDING entry the way the window layer would: its data
  /// arrived, its fetch failed, or its extension's tail fetch failed.
  void settle_one() {
    if (pending_.empty()) return;
    auto it = pending_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng_.bounded(pending_.size())));
    const std::uint32_t id = it->first;
    const PendingInfo info = it->second;
    const std::uint64_t how = rng_.bounded(4);
    if (how == 0) {
      core_.drop_failed(id);
      pending_.erase(it);
    } else if (how == 1 && info.extended) {
      core_.revert_extension(id, info.prev_bytes, info.prev_pending);
      if (info.prev_pending) {
        it->second = PendingInfo{};  // still awaiting its original data
      } else {
        pending_.erase(it);
      }
    } else {
      core_.mark_cached(id);
      pending_.erase(it);
    }
  }

  void settle_all() {
    for (const auto& [id, info] : pending_) core_.mark_cached(id);
    pending_.clear();
  }

  void quarantine_one() {
    std::vector<std::uint32_t> cached;
    for (std::uint32_t id = 0; id < core_.entry_slots(); ++id) {
      if (core_.entry_live(id) && !core_.entry_pending(id)) cached.push_back(id);
    }
    if (!cached.empty()) core_.quarantine(cached[rng_.bounded(cached.size())]);
  }

  std::set<std::uint32_t> live_ids() const {
    std::set<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < core_.entry_slots(); ++id) {
      if (core_.entry_live(id)) ids.insert(id);
    }
    return ids;
  }

  /// The reference: the full entry-table walk invalidate_overlap replaced.
  std::set<std::uint32_t> reference_victims(int target, std::uint64_t disp,
                                            std::size_t bytes) {
    std::set<std::uint32_t> victims;
    if (bytes == 0) return victims;
    for (std::uint32_t id = 0; id < core_.entry_slots(); ++id) {
      if (!core_.entry_live(id) || core_.entry_pending(id)) continue;
      const Key k = core_.entry_key(id);
      if (k.target != target) continue;
      if (k.disp >= disp + bytes || k.disp + core_.entry_bytes(id) <= disp) continue;
      victims.insert(id);
      if (k.disp >> 8 != disp >> 8) ++other_block_victims_;  // not in the put's first block
    }
    return victims;
  }

  void put() {
    const int target = static_cast<int>(rng_.bounded(kTargets));
    const std::uint64_t disp = pick_disp();
    const std::size_t bytes = rng_.bounded(10) == 0 ? 0 : pick_bytes();
    const std::set<std::uint32_t> expected = reference_victims(target, disp, bytes);
    const std::set<std::uint32_t> before = live_ids();
    const std::uint64_t inv_before = core_.stats().put_invalidations;

    const std::size_t dropped = core_.invalidate_overlap(target, disp, bytes);

    ASSERT_EQ(dropped, expected.size());
    EXPECT_EQ(core_.stats().put_invalidations - inv_before, expected.size());
    std::set<std::uint32_t> gone;
    const std::set<std::uint32_t> after = live_ids();
    std::set_difference(before.begin(), before.end(), after.begin(), after.end(),
                        std::inserter(gone, gone.end()));
    ASSERT_EQ(gone, expected);
    if (expected.empty()) return;
    ++puts_with_victims_;
    check_free_list_order(expected);
  }

  /// Victims are evicted in ascending id order, so the free list ends
  /// with the highest victim: the next miss reuses it.
  void check_free_list_order(const std::set<std::uint32_t>& victims) {
    const Key fresh{0, next_fresh_disp_};
    next_fresh_disp_ += 64;  // past every pick_disp() range: always a miss
    const CacheCore::Result r = core_.access(fresh, 8);
    if (!r.inserted) return;  // could not be placed; the id went straight back
    EXPECT_EQ(r.entry, *victims.rbegin());
    core_.mark_cached(r.entry);
  }

  util::Xoshiro256 rng_;
  CacheCore core_;
  std::map<std::uint32_t, PendingInfo> pending_;
  std::uint64_t next_fresh_disp_ = std::uint64_t{1} << 32;
  std::size_t puts_with_victims_ = 0;
  std::size_t other_block_victims_ = 0;
};

TEST(InvalidateDiff, SingleShard) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    TraceRunner(seed).run(4000);
  }
}

// One entry far larger than the rest raises the max-size mark: a put deep
// inside it — many blocks past its start — must still find it.
TEST(InvalidateDiff, LongEntryFoundFromDistantBlock) {
  Config cfg;
  CacheCore core(cfg);
  const CacheCore::Result big = core.access(Key{1, 0}, 64 << 10);
  ASSERT_TRUE(big.inserted);
  core.mark_cached(big.entry);
  const CacheCore::Result small = core.access(Key{1, 128 << 10}, 16);
  ASSERT_TRUE(small.inserted);
  core.mark_cached(small.entry);
  EXPECT_EQ(core.invalidate_overlap(1, (64 << 10) - 1, 1), 1u);
  EXPECT_FALSE(core.entry_live(big.entry));
  EXPECT_TRUE(core.entry_live(small.entry));
  // A put covering more blocks than the index has chains.
  EXPECT_EQ(core.invalidate_overlap(1, 0, std::size_t{1} << 30), 1u);
  EXPECT_FALSE(core.entry_live(small.entry));
  EXPECT_TRUE(core.audit().ok) << core.audit().detail;
}

}  // namespace

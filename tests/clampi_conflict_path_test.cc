// Conflicting-miss path of CacheCore (paper Secs. III-C1, III-D2): the
// breadth-first insertion search at a full index, the choice of the
// lowest-scoring victim among the examined slots, and the in-place
// eviction that ends the insertion path at the victim's slot.
//
// The test drives a core whose 2^12-slot index stays full (the key space
// is three times larger, storage is ample so no access is a capacity
// one) with mixed get sizes, so the positional score separates the
// candidates, and with interleaved overlap-invalidating puts that punch
// holes into index and storage. Every access's (type, entry), every
// put's drop count, the final counters and the audit verdict fold into an
// FNV-1a digest. The pinned digest fixes every decision of the path: a
// change to the search order, the search bound, the victim scoring or
// the path commit that picks a different victim or slot even once
// changes it. It was re-pinned when the random-walk insert (whose failed
// walk was rolled back, scored, and walked again) gave way to the
// breadth-first search: the candidate order, the in-place eviction and
// `index_kick_steps` (now occupant moves) all changed.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "clampi/cache.h"
#include "clampi/config.h"
#include "util/rng.h"

namespace {

using namespace clampi;

constexpr std::size_t kSlots = std::size_t{1} << 12;

Config conflict_config() {
  Config cfg;
  cfg.index_entries = kSlots;
  cfg.storage_bytes = std::size_t{32} << 20;  // never the binding limit
  return cfg;
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

/// Seal a freshly inserted or extended entry, as the window's copy-in
/// would at the end of the epoch.
void settle(CacheCore& core, const CacheCore::Result& r) {
  if (r.entry != kNoEntry && (r.inserted || r.extended)) core.mark_cached(r.entry);
}

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t accesses = 0;
  std::uint64_t conflicting = 0;
};

Outcome run_digest() {
  CacheCore core(conflict_config());
  util::Xoshiro256 rng(20170529);
  Fnv fnv;
  constexpr std::uint64_t kKeysPerTarget = kSlots;  // 3 targets: 3x the index
  Outcome out;
  for (int step = 0; step < 60000; ++step) {
    const auto target = static_cast<std::int32_t>(rng.bounded(3));
    if (rng.bounded(16) == 0) {
      const std::uint64_t disp = 1024 * rng.bounded(kKeysPerTarget);
      const std::size_t bytes = 1 + rng.bounded(1024);
      fnv.add(core.invalidate_overlap(target, disp, bytes));
      continue;
    }
    // Half the gets go to a hot eighth of the keys, so the temporal score
    // separates recently used entries from cold ones.
    const std::uint64_t span = rng.bounded(2) == 0 ? kKeysPerTarget / 8 : kKeysPerTarget;
    const Key key{target, 1024 * rng.bounded(span)};
    const std::size_t bytes = 16 * (1 + rng.bounded(64));
    const auto r = core.access(key, bytes);
    fnv.add(static_cast<std::uint64_t>(r.type));
    fnv.add(r.entry);
    ++out.accesses;
    settle(core, r);
  }
  const Stats& st = core.stats();
  out.conflicting = st.conflicting;
  for (const std::uint64_t v : {st.hits_full, st.hits_partial, st.direct, st.conflicting,
                                st.capacity, st.failing, st.evictions, st.index_kick_steps,
                                st.put_invalidations}) {
    fnv.add(v);
  }
  const auto audit = core.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
  fnv.add(audit.ok ? 1 : 0);
  fnv.add(audit.live);
  out.digest = fnv.h;
  return out;
}

TEST(ConflictPath, DecisionsPinnedSingleShard) {
  const Outcome o = run_digest();
  // The workload must actually live on the conflicting path.
  EXPECT_GT(o.conflicting * 5, o.accesses) << o.conflicting << " of " << o.accesses;
  EXPECT_EQ(o.digest, 0x68c6edf859b8075dull) << std::hex << "digest 0x" << o.digest;
}

}  // namespace

// Conflicting-miss path of CacheCore (paper Secs. III-C1, III-D2): the
// cuckoo walk at a full index, its rollback, and the choice of the
// lowest-scoring victim on the insertion path.
//
// The single-threaded cases drive a core whose 2^12-slot index stays full
// (the key space is three times larger, storage is ample so no access is a
// capacity one) with mixed get sizes, so the positional score separates
// the candidates, and with interleaved overlap-invalidating puts that
// punch holes into index and storage. Every access's (type, entry), every
// put's drop count, the final counters and the audit verdict fold into an
// FNV-1a digest. The pinned digests fix every decision of the path: a
// change to the walk, the kick rotation, the rollback or the victim
// scoring that picks a different victim even once changes them. They
// were recorded before the index kept its own copy of each occupant's
// hash key, and that layout change had to reproduce them.
//
// The threaded case runs four threads on disjoint keys against four
// shards at a full index, so nearly every miss is a conflicting one taken
// under a shard lock; it checks payloads, counters and the audit (built
// and run under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "clampi/cache.h"
#include "clampi/config.h"
#include "util/rng.h"

namespace {

using namespace clampi;

constexpr std::size_t kSlots = std::size_t{1} << 12;

Config conflict_config(std::size_t shards) {
  Config cfg;
  cfg.cache_shards = shards;
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

Outcome run_digest(std::size_t shards) {
  CacheCore core(conflict_config(shards));
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
  const Outcome o = run_digest(1);
  // The workload must actually live on the conflicting path.
  EXPECT_GT(o.conflicting * 5, o.accesses) << o.conflicting << " of " << o.accesses;
  EXPECT_EQ(o.digest, 0x7b43ad5d5c00e1c2ull) << std::hex << "digest 0x" << o.digest;
}

TEST(ConflictPath, DecisionsPinnedFourShards) {
  const Outcome o = run_digest(4);
  EXPECT_GT(o.conflicting * 5, o.accesses) << o.conflicting << " of " << o.accesses;
  EXPECT_EQ(o.digest, 0xf634ddd68000a58full) << std::hex << "digest 0x" << o.digest;
}

std::byte pattern_byte(Key key, std::size_t off) {
  const auto v = static_cast<std::uint64_t>(key.target) * 0x9e3779b97f4a7c15ull +
                 key.disp * 0xbf58476d1ce4e5b9ull + off;
  return static_cast<std::byte>((v ^ (v >> 17)) & 0xff);
}

TEST(ConflictPath, FourThreadsAtAFullIndex) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeysPerThread = 2 * kSlots;
  CacheCore core(conflict_config(4));
  // Each thread owns one target's keys (the same-key serialization
  // contract); the payload is a pure function of key and offset, so every
  // served prefix is checkable.
  const auto access_one = [&core](Key key, std::size_t bytes, std::byte* buf) {
    const auto r = core.access_read(key, bytes, buf);
    if (r.serve_now) {
      for (std::size_t i = 0; i < r.cached_bytes; ++i) {
        if (buf[i] != pattern_byte(key, i)) return false;
      }
    }
    if (r.entry != kNoEntry && (r.inserted || r.extended)) {
      std::byte* data = core.entry_data(r.entry);
      for (std::size_t i = 0; i < core.entry_bytes(r.entry); ++i) {
        data[i] = pattern_byte(key, i);
      }
      core.mark_cached(r.entry);
    }
    return true;
  };
  // Fill the index first, single-threaded.
  std::vector<std::byte> buf(1024);
  for (int t = 0; t < kThreads; ++t) {
    for (std::uint64_t k = 0; k < kSlots / kThreads; ++k) {
      ASSERT_TRUE(access_one(Key{t, 64 * k}, 64, buf.data()));
    }
  }
  const Stats before = core.stats();

  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
      std::vector<std::byte> local(1024);
      for (int i = 0; i < 6000; ++i) {
        const Key key{t, 64 * rng.bounded(kKeysPerThread)};
        const std::size_t bytes = 16 * (1 + rng.bounded(64));
        if (!access_one(key, bytes, local.data())) ++bad[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0) << t;

  const Stats d = core.stats().delta_since(before);
  const std::uint64_t misses = d.direct + d.conflicting + d.capacity + d.failing;
  EXPECT_EQ(d.hits_full + d.hits_partial + misses, std::uint64_t{kThreads} * 6000);
  EXPECT_EQ(d.capacity, 0u);
  // A full index turns (nearly) every miss into a conflicting one.
  EXPECT_GT(d.conflicting * 10, misses * 9) << d.conflicting << " of " << misses;
  const auto audit = core.audit();
  EXPECT_TRUE(audit.ok) << audit.detail;
}

}  // namespace

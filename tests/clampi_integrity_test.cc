// Integrity guard: end-to-end checksums, self-healing hits, incremental
// scrubbing, put invalidation, shadow-verify staleness detection and the
// pass-through circuit breaker (docs/INTEGRITY.md).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "clampi/checksum.h"
#include "clampi/clampi.h"
#include "clampi/detector.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "netmodel/model.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks, std::shared_ptr<fault::Injector> inj = nullptr) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(10.0, 0.0);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  cfg.injector = std::move(inj);
  return cfg;
}

Config cache_cfg(Mode mode) {
  Config cfg;
  cfg.mode = mode;
  cfg.index_entries = 512;
  cfg.storage_bytes = 256 * 1024;
  return cfg;
}

void fill_pattern(void* base, std::size_t n, int rank) {
  auto* b = static_cast<std::uint8_t*>(base);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>((i * 7 + rank * 13) & 0xff);
  }
}

std::uint8_t pattern_at(std::size_t i, int rank) {
  return static_cast<std::uint8_t>((i * 7 + rank * 13) & 0xff);
}

// Core-only helper: run a miss through access() and materialize it the way
// the CachedWindow driver would (payload copy + mark_cached).
std::uint32_t insert_cached(CacheCore& core, Key key, const std::vector<std::byte>& data) {
  const CacheCore::Result r = core.access(key, data.size());
  EXPECT_NE(r.entry, kNoEntry);
  EXPECT_TRUE(r.inserted);
  std::memcpy(core.entry_data(r.entry), data.data(), data.size());
  core.mark_cached(r.entry);
  return r.entry;
}

std::vector<std::byte> some_bytes(std::size_t n, int salt) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(salt) * 17) & 0xff);
  }
  return v;
}

// --- checksum primitive ---

TEST(Checksum, MatchesXxh64ReferenceVectors) {
  const auto h = [](const char* s, std::uint64_t seed) {
    return checksum64(reinterpret_cast<const std::byte*>(s), std::strlen(s), seed);
  };
  // Canonical XXH64 test vectors (public-domain algorithm, seed 0).
  EXPECT_EQ(h("", 0), 0xef46db3751d8e999ull);
  EXPECT_EQ(h("a", 0), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(h("abc", 0), 0x44bc2cf5ad770999ull);
}

TEST(Checksum, SeedAndContentSensitivity) {
  const auto data = some_bytes(1000, 1);
  const std::uint64_t base = checksum64(data.data(), data.size(), 42);
  EXPECT_NE(base, checksum64(data.data(), data.size(), 43));
  auto flipped = data;
  flipped[999] ^= std::byte{0x01};  // single bit in the tail
  EXPECT_NE(base, checksum64(flipped.data(), flipped.size(), 42));
  auto mid = data;
  mid[500] ^= std::byte{0x80};  // single bit in a 32-byte lane
  EXPECT_NE(base, checksum64(mid.data(), mid.size(), 42));
}

// --- hit-time verification and self-healing (CacheCore) ---

TEST(IntegrityCore, ChecksumDetectsBitFlipAndHeals) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.verify_every_n = 1;
  CacheCore core(cfg);

  const Key key{1, 64};
  const auto payload = some_bytes(256, 7);
  const std::uint32_t id = insert_cached(core, key, payload);

  // Clean hit: verification passes, nothing healed.
  CacheCore::Result r = core.access(key, 256);
  EXPECT_EQ(r.type, AccessType::kHit);
  EXPECT_FALSE(r.healed);
  EXPECT_EQ(core.stats().checksum_verifications, 1u);
  EXPECT_EQ(core.stats().corruption_detected, 0u);

  // Flip one bit of the cached payload behind the cache's back.
  core.entry_data(id)[100] ^= std::byte{0x04};

  // The next hit detects the mismatch, quarantines the entry and falls
  // through to the miss path (transparent re-fetch).
  r = core.access(key, 256);
  EXPECT_TRUE(r.healed);
  EXPECT_NE(r.type, AccessType::kHit);
  EXPECT_TRUE(r.inserted);
  EXPECT_EQ(core.stats().corruption_detected, 1u);
  EXPECT_EQ(core.stats().self_heals, 1u);

  // Re-materialize (the driver would copy the refetched bytes) and the
  // key hits cleanly again.
  std::memcpy(core.entry_data(r.entry), payload.data(), payload.size());
  core.mark_cached(r.entry);
  r = core.access(key, 256);
  EXPECT_EQ(r.type, AccessType::kHit);
  EXPECT_FALSE(r.healed);
}

TEST(IntegrityCore, VerificationSamplingHonoursEveryN) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.verify_every_n = 4;
  CacheCore core(cfg);
  insert_cached(core, Key{0, 0}, some_bytes(64, 3));
  for (int i = 0; i < 8; ++i) core.access(Key{0, 0}, 64);
  EXPECT_EQ(core.stats().checksum_verifications, 2u);  // hits 4 and 8
}

TEST(IntegrityCore, NoChecksumWorkWhenDisabled) {
  Config cfg;  // verify_every_n = 0, scrub_entries_per_epoch = 0
  cfg.mode = Mode::kAlwaysCache;
  CacheCore core(cfg);
  const std::uint32_t id = insert_cached(core, Key{0, 0}, some_bytes(64, 3));
  core.entry_data(id)[0] ^= std::byte{0xff};  // corrupt freely
  const CacheCore::Result r = core.access(Key{0, 0}, 64);
  EXPECT_EQ(r.type, AccessType::kHit);  // nobody looks: stays a plain hit
  EXPECT_EQ(core.stats().checksum_verifications, 0u);
  EXPECT_EQ(core.stats().corruption_detected, 0u);
}

// --- incremental scrubbing (CacheCore) ---

TEST(IntegrityCore, ScrubberCatchesCorruptionWithinBudget) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.scrub_entries_per_epoch = 3;
  CacheCore core(cfg);

  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 9; ++i) {
    ids.push_back(insert_cached(core, Key{1, static_cast<std::uint64_t>(i) * 4096},
                                some_bytes(128, i)));
  }
  core.entry_data(ids[5])[17] ^= std::byte{0x20};

  // Each slice scans at most the configured budget; after enough slices
  // the ring walk has visited every entry and quarantined the corrupt one.
  std::size_t corrupted = 0;
  for (int round = 0; round < 3; ++round) {
    const CacheCore::ScrubReport rep = core.scrub(cfg.scrub_entries_per_epoch);
    EXPECT_LE(rep.scanned, cfg.scrub_entries_per_epoch);
    EXPECT_TRUE(rep.invariants_ok);
    corrupted += rep.corrupted;
  }
  EXPECT_EQ(corrupted, 1u);
  EXPECT_EQ(core.stats().scrub_corruptions, 1u);
  EXPECT_EQ(core.stats().corruption_detected, 1u);
  EXPECT_EQ(core.find_cached(Key{1, 5 * 4096}), kNoEntry);   // quarantined
  EXPECT_NE(core.find_cached(Key{1, 4 * 4096}), kNoEntry);   // neighbours intact
  EXPECT_EQ(core.stats().scrub_entries_scanned, 9u);
}

TEST(IntegrityCore, ScrubSurvivesInvalidation) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  cfg.scrub_entries_per_epoch = 4;
  CacheCore core(cfg);
  for (int i = 0; i < 6; ++i) {
    insert_cached(core, Key{1, static_cast<std::uint64_t>(i) * 4096}, some_bytes(64, i));
  }
  core.scrub(4);       // cursor mid-table
  core.invalidate();   // table emptied under the cursor
  const CacheCore::ScrubReport rep = core.scrub(4);
  EXPECT_EQ(rep.scanned, 0u);
  EXPECT_TRUE(rep.invariants_ok);
}

// --- put invalidation (CacheCore + window) ---

TEST(IntegrityCore, InvalidateOverlapDropsExactlyOverlappingEntries) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  CacheCore core(cfg);
  insert_cached(core, Key{1, 0}, some_bytes(128, 0));     // [0, 128)
  insert_cached(core, Key{1, 128}, some_bytes(128, 1));   // [128, 256)
  insert_cached(core, Key{1, 256}, some_bytes(128, 2));   // [256, 384)
  insert_cached(core, Key{2, 128}, some_bytes(128, 3));   // other target

  // A put over [100, 200) clips entries 0 and 1, not 2 or the other target.
  EXPECT_EQ(core.invalidate_overlap(1, 100, 100), 2u);
  EXPECT_EQ(core.find_cached(Key{1, 0}), kNoEntry);
  EXPECT_EQ(core.find_cached(Key{1, 128}), kNoEntry);
  EXPECT_NE(core.find_cached(Key{1, 256}), kNoEntry);
  EXPECT_NE(core.find_cached(Key{2, 128}), kNoEntry);
  EXPECT_EQ(core.stats().put_invalidations, 2u);
}

TEST(IntegrityCore, ZeroBytePutInvalidatesNothing) {
  Config cfg;
  cfg.mode = Mode::kAlwaysCache;
  CacheCore core(cfg);
  insert_cached(core, Key{1, 0}, some_bytes(128, 0));     // [0, 128)
  insert_cached(core, Key{1, 256}, some_bytes(128, 1));   // [256, 384)

  // Zero bytes written: nothing is stale, not even entries that strictly
  // contain `disp`, and disp == 0 must not wrap the range.
  EXPECT_EQ(core.invalidate_overlap(1, 0, 0), 0u);
  EXPECT_EQ(core.invalidate_overlap(1, 64, 0), 0u);
  EXPECT_EQ(core.invalidate_overlap(1, 300, 0), 0u);
  EXPECT_NE(core.find_cached(Key{1, 0}), kNoEntry);
  EXPECT_NE(core.find_cached(Key{1, 256}), kNoEntry);
  EXPECT_EQ(core.stats().put_invalidations, 0u);
  EXPECT_TRUE(core.audit().ok);
}

TEST(IntegrityWindow, PutInvalidatesAndNextGetSeesFreshBytes) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, cache_cfg(Mode::kAlwaysCache));
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), 64, 1, 256);
      win.flush_all();
      ASSERT_EQ(win.last_access(), AccessType::kDirect);
      win.get(buf.data(), 64, 1, 256);
      win.flush_all();
      ASSERT_EQ(win.last_access(), AccessType::kHit);

      // Overwrite the cached range at the target; the cached entry is stale.
      std::vector<std::uint8_t> fresh(64, 0xAB);
      win.put(fresh.data(), 64, 1, 256);
      win.flush_all();
      EXPECT_EQ(win.stats().put_invalidations, 1u);

      // The next get must miss and return the freshly written bytes.
      win.get(buf.data(), 64, 1, 256);
      win.flush_all();
      EXPECT_NE(win.last_access(), AccessType::kHit);
      for (int j = 0; j < 64; ++j) ASSERT_EQ(buf[static_cast<std::size_t>(j)], 0xAB);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// --- stale-put injection caught by shadow-verify (window) ---

TEST(IntegrityWindow, StalePutCaughtByShadowVerify) {
  fault::Plan plan;
  plan.stale_puts(1.0);  // every put skips its invalidation
  auto inj = std::make_shared<fault::Injector>(plan);
  Engine e(engine_cfg(2, inj));
  e.run([](Process& p) {
    void* base = nullptr;
    Config ccfg = cache_cfg(Mode::kAlwaysCache);
    ccfg.shadow_verify_every_n = 1;  // double-check every full hit
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), 64, 1, 256);
      win.flush_all();

      std::vector<std::uint8_t> fresh(64, 0xCD);
      win.put(fresh.data(), 64, 1, 256);
      win.flush_all();
      EXPECT_EQ(win.stats().stale_puts_injected, 1u);
      EXPECT_EQ(win.stats().put_invalidations, 0u);  // the bug: none happened

      // The hit serves stale bytes; the sampled shadow fetch catches the
      // mismatch, quarantines the entry and re-serves the fresh payload.
      win.get(buf.data(), 64, 1, 256);
      win.flush_all();
      for (int j = 0; j < 64; ++j) ASSERT_EQ(buf[static_cast<std::size_t>(j)], 0xCD);
      EXPECT_GE(win.stats().shadow_verifications, 1u);
      EXPECT_EQ(win.stats().shadow_mismatches, 1u);
      EXPECT_GE(win.stats().self_heals, 1u);
      EXPECT_EQ(win.core().find_cached(Key{1, 256}), kNoEntry);  // quarantined
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// --- injected storage corruption round trip (window) ---

TEST(IntegrityWindow, CorruptionNeverEscapesWithVerificationOn) {
  fault::Plan plan;
  // ~0.05 flips per entry per epoch: entries are usually clean when hit,
  // but over 640 epochs plenty of hits land on rotted payloads.  The scrub
  // budget is kept below the reuse distance so hit-time verification (not
  // the scrubber) must do most of the catching.
  plan.corrupt_storage(1e-4);
  auto inj = std::make_shared<fault::Injector>(plan);
  Engine e(engine_cfg(2, inj));
  e.run([](Process& p) {
    void* base = nullptr;
    Config ccfg = cache_cfg(Mode::kAlwaysCache);
    ccfg.verify_every_n = 1;
    ccfg.scrub_entries_per_epoch = 1;
    auto win = CachedWindow::allocate(p, 16384, &base, ccfg);
    fill_pattern(base, 16384, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(512);
      for (int round = 0; round < 40; ++round) {
        for (int k = 0; k < 16; ++k) {
          const std::size_t disp = static_cast<std::size_t>(k) * 512;
          win.get(buf.data(), 512, 1, disp);
          win.flush_all();  // epoch boundary: bit rot + one scrub slice
          for (int j = 0; j < 512; ++j) {
            ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                      pattern_at(disp + static_cast<std::size_t>(j), 1))
                << "corruption escaped at round " << round << " key " << k;
          }
        }
      }
      const Stats& st = win.stats();
      EXPECT_GT(st.storage_bitflips, 0u);      // the fault actually fired
      EXPECT_GT(st.corruption_detected, 0u);   // ... and the guard caught it
      EXPECT_GT(st.self_heals, 0u);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(IntegrityWindow, CorruptorIsDeterministicPerSeed) {
  fault::Plan plan;
  plan.seed = 1234;
  plan.corrupt_storage(0.01);
  fault::Injector inj(plan);
  auto a = some_bytes(4096, 0);
  auto b = some_bytes(4096, 0);
  fault::Corruptor c1 = inj.corruptor(/*rank=*/0, /*epoch=*/3);
  fault::Corruptor c2 = inj.corruptor(/*rank=*/0, /*epoch=*/3);
  const std::size_t f1 = c1.apply(a.data(), a.size());
  const std::size_t f2 = c2.apply(b.data(), b.size());
  EXPECT_EQ(f1, f2);
  EXPECT_GT(f1, 0u);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);

  // A different epoch flips different bytes.
  auto c = some_bytes(4096, 0);
  fault::Corruptor c3 = inj.corruptor(/*rank=*/0, /*epoch=*/4);
  c3.apply(c.data(), c.size());
  EXPECT_NE(std::memcmp(a.data(), c.data(), a.size()), 0);
}

// --- circuit breaker (unit + window) ---

// The breaker's detector as CachedWindow configures it; the window itself
// owns the half-open probe tick (IntegrityWindow.HalfOpenProbesOneGetInN).
FailureDetector::Config breaker_cfg(int threshold, double window_us, double open_us,
                                    int halfopen_successes) {
  return {threshold, window_us, open_us, halfopen_successes};
}

TEST(Breaker, StateMachineTripsProbesAndRecloses) {
  FailureDetector b(breaker_cfg(2, 1000.0, 50.0, 2));
  EXPECT_EQ(b.state(), FailureDetector::State::kClosed);
  EXPECT_FALSE(b.probe_due(0.0));

  b.record_failure(1.0);
  EXPECT_EQ(b.state(), FailureDetector::State::kClosed);
  b.record_failure(2.0);
  EXPECT_EQ(b.state(), FailureDetector::State::kOpen);
  EXPECT_DOUBLE_EQ(b.opened_at_us(), 2.0);
  EXPECT_FALSE(b.probe_due(10.0));  // dwell not served: still open
  EXPECT_EQ(b.state(), FailureDetector::State::kOpen);

  // Dwell elapsed: half-open.
  EXPECT_TRUE(b.probe_due(60.0));
  EXPECT_EQ(b.state(), FailureDetector::State::kProbing);
  EXPECT_FALSE(b.probe_due(61.0));  // the edge fires once

  b.record_success();
  EXPECT_EQ(b.state(), FailureDetector::State::kProbing);
  b.record_success();
  EXPECT_EQ(b.state(), FailureDetector::State::kClosed);
}

TEST(Breaker, HalfOpenFailureRetrips) {
  FailureDetector b(breaker_cfg(1, 10000.0, 10.0, 4));
  b.record_failure(0.0);
  EXPECT_EQ(b.state(), FailureDetector::State::kOpen);
  EXPECT_TRUE(b.probe_due(20.0));  // half-open probe
  b.record_failure(21.0);
  EXPECT_EQ(b.state(), FailureDetector::State::kOpen);
  EXPECT_DOUBLE_EQ(b.opened_at_us(), 21.0);  // the dwell restarts
  EXPECT_FALSE(b.probe_due(30.0));
}

TEST(Breaker, OldFailuresSlideOutOfTheWindow) {
  FailureDetector b(breaker_cfg(2, 100.0, 5000.0, 4));
  b.record_failure(0.0);
  b.record_failure(150.0);  // the first failure is outside the window now
  EXPECT_EQ(b.state(), FailureDetector::State::kClosed);
  b.record_failure(160.0);
  EXPECT_EQ(b.state(), FailureDetector::State::kOpen);
}

TEST(IntegrityWindow, BreakerFailsOpenThenRecloses) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    Config ccfg = cache_cfg(Mode::kAlwaysCache);
    ccfg.verify_every_n = 1;
    ccfg.breaker_failure_threshold = 2;
    ccfg.breaker_window_us = 1e6;
    ccfg.breaker_open_us = 100.0;
    ccfg.breaker_probe_every_n = 1;   // every half-open get probes
    ccfg.breaker_halfopen_successes = 2;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      const auto cached_get = [&](std::size_t disp) {
        win.get(buf.data(), 64, 1, disp);
        win.flush_all();
      };
      cached_get(0);
      cached_get(64);

      // Corrupt both entries behind the cache's back; the two healed hits
      // are two failures inside the window -> the breaker trips.
      const auto corrupt = [&](std::uint64_t disp) {
        const std::uint32_t id = win.core().find_cached(Key{1, disp});
        ASSERT_NE(id, kNoEntry);
        win.core().entry_data(id)[3] ^= std::byte{0x10};
      };
      corrupt(0);
      cached_get(0);  // heal #1
      ASSERT_EQ(win.stats().breaker_trips, 0u);
      corrupt(64);
      cached_get(64);  // heal #2 -> trip
      ASSERT_EQ(win.stats().breaker_trips, 1u);

      // While open, gets pass through: correct data, nothing cached.
      win.get(buf.data(), 64, 1, 1024);
      win.flush_all();
      EXPECT_EQ(win.last_access(), AccessType::kDirect);
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                  pattern_at(1024 + static_cast<std::size_t>(j), 1));
      }
      EXPECT_EQ(win.stats().breaker_passthrough_gets, 1u);
      EXPECT_EQ(win.core().find_cached(Key{1, 1024}), kNoEntry);

      // After the open dwell, probes flow through the (healed) cache and
      // two clean probes reclose the breaker.
      p.compute_us(200.0);
      cached_get(0);  // probe #1 (clean hit: the heal re-cached fresh bytes)
      ASSERT_EQ(win.last_access(), AccessType::kHit);
      ASSERT_EQ(win.stats().breaker_recloses, 0u);
      cached_get(0);  // probe #2 -> reclose
      EXPECT_EQ(win.stats().breaker_recloses, 1u);
      EXPECT_EQ(win.stats().breaker_passthrough_gets, 1u);
      EXPECT_GE(win.breaker_time_in_open_us(), 100.0);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(IntegrityWindow, HalfOpenProbesOneGetInN) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    Config ccfg = cache_cfg(Mode::kAlwaysCache);
    ccfg.verify_every_n = 1;
    ccfg.breaker_failure_threshold = 1;
    ccfg.breaker_open_us = 100.0;
    ccfg.breaker_probe_every_n = 2;
    ccfg.breaker_halfopen_successes = 4;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), 64, 1, 0);
      win.flush_all();
      const std::uint32_t id = win.core().find_cached(Key{1, 0});
      ASSERT_NE(id, kNoEntry);
      win.core().entry_data(id)[3] ^= std::byte{0x10};
      win.get(buf.data(), 64, 1, 0);  // healed hit -> trip
      win.flush_all();
      ASSERT_EQ(win.stats().breaker_trips, 1u);

      // Half-open: the first get after the dwell probes the cache, then
      // 1 of every 2; the others pass through.
      p.compute_us(200.0);
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t before = win.stats().breaker_passthrough_gets;
        win.get(buf.data(), 64, 1, 0);
        win.flush_all();
        EXPECT_EQ(win.stats().breaker_passthrough_gets - before, i % 2 == 0 ? 0u : 1u)
            << "get " << i;
        EXPECT_EQ(win.stats().breaker_recloses, 0u);  // still half-open
        EXPECT_EQ(win.stats().breaker_trips, 1u);
      }
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(IntegrityWindow, BreakerDisabledByDefault) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, cache_cfg(Mode::kAlwaysCache));
    p.barrier();
    EXPECT_EQ(win.breaker_time_in_open_us(), 0.0);
    EXPECT_EQ(win.stats().breaker_passthrough_gets, 0u);
    p.barrier();
    win.free_window();
  });
}

}  // namespace

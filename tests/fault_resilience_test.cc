// CLaMPI resilience under injected faults: retry/backoff on transient
// failures, cached keys serving degraded/dead targets, rollback of failed
// cache insertions and seed-reproducible statistics.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "clampi/clampi.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks, std::shared_ptr<fault::Injector> inj = nullptr) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(10.0, 0.0);  // 10us per transfer
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

struct RunResult {
  Stats stats;
  double elapsed_us = 0.0;
  int errors = 0;
};

// Rank 0 fetches `ngets` distinct 64-byte keys from rank 1 and verifies
// their contents; returns rank 0's stats and elapsed virtual time.
RunResult run_reader(std::shared_ptr<fault::Injector> inj, const Config& ccfg,
                     int ngets = 32) {
  Engine e(engine_cfg(2, std::move(inj)));
  auto out = std::make_shared<RunResult>();
  e.run([out, ccfg, ngets](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      const double t0 = p.now_us();
      std::vector<std::uint8_t> buf(64);
      for (int i = 0; i < ngets; ++i) {
        const std::size_t disp = static_cast<std::size_t>(i) * 64;
        try {
          win.get(buf.data(), 64, 1, disp);
          win.flush_all();
          for (int j = 0; j < 64; ++j) {
            ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                      pattern_at(disp + static_cast<std::size_t>(j), 1));
          }
        } catch (const fault::OpFailedError&) {
          ++out->errors;
        }
      }
      out->elapsed_us = p.now_us() - t0;
      out->stats = win.stats();
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  return *out;
}

TEST(FaultResilience, TransientFailuresAreRetriedAway) {
  fault::Plan plan;
  plan.fail_everywhere(0.5);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.max_retries = 16;
  ccfg.retry_backoff_us = 4.0;
  ccfg.retry_jitter = 0.25;

  const RunResult clean =
      run_reader(std::make_shared<fault::Injector>(fault::Plan{}), ccfg);
  const RunResult faulty = run_reader(std::make_shared<fault::Injector>(plan), ccfg);

  // With p = 0.5 and 16 retries per get, every get eventually succeeds.
  EXPECT_EQ(faulty.errors, 0);
  EXPECT_GT(faulty.stats.injected_faults, 0u);
  EXPECT_GT(faulty.stats.retries, 0u);
  EXPECT_EQ(faulty.stats.retry_giveups, 0u);
  EXPECT_EQ(faulty.stats.injected_faults, faulty.stats.retries);
  // Backoff is charged to virtual time: at least retries * base * (1-jitter)
  // slower than the clean run.
  const double min_backoff =
      static_cast<double>(faulty.stats.retries) * 4.0 * (1.0 - 0.25);
  EXPECT_GE(faulty.elapsed_us, clean.elapsed_us + min_backoff);
}

TEST(FaultResilience, RetryPolicyExhaustionGivesUp) {
  fault::Plan plan;
  plan.fail_everywhere(1.0);  // every network op fails

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.max_retries = 3;
  ccfg.retry_jitter = 0.0;

  const RunResult r = run_reader(std::make_shared<fault::Injector>(plan), ccfg,
                                 /*ngets=*/4);
  EXPECT_EQ(r.errors, 4);
  EXPECT_EQ(r.stats.retries, 12u);        // 3 per get
  EXPECT_EQ(r.stats.retry_giveups, 4u);   // one give-up per get
  EXPECT_EQ(r.stats.injected_faults, 16u);  // 4 initial + 12 retried attempts
}

TEST(FaultResilience, EpochRetryBudgetCapsBackoff) {
  fault::Plan plan;
  plan.fail_everywhere(1.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.max_retries = 100;
  ccfg.retry_backoff_us = 10.0;
  ccfg.retry_jitter = 0.0;
  ccfg.epoch_retry_budget_us = 75.0;  // room for 10 + 20 + 40us, not + 80

  const RunResult r = run_reader(std::make_shared<fault::Injector>(plan), ccfg,
                                 /*ngets=*/1);
  EXPECT_EQ(r.errors, 1);
  EXPECT_EQ(r.stats.retries, 3u);
  EXPECT_EQ(r.stats.retry_giveups, 1u);
}

TEST(FaultResilience, CacheFallbackServesDeadTarget) {
  // Rank 1 dies at t = 1000us. Rank 0 warms the cache before the death,
  // then keeps reading: cached keys are full hits that never touch the
  // network, so they keep serving; uncached keys surface the
  // (unrecoverable) failure.
  fault::Plan plan;
  plan.kill_rank(1, 1000.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.max_retries = 2;

  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      // Warm 8 keys while rank 1 is alive. Flush after each get: the
      // origin buffer is reused, and RMA only guarantees its contents
      // (which the cache copies in at flush time) up to the flush.
      for (int i = 0; i < 8; ++i) {
        win.get(buf.data(), 64, 1, static_cast<std::size_t>(i) * 64);
        win.flush_all();
      }
      const std::uint64_t warm_hits = win.stats().hits_full;

      p.compute_us(2000.0);  // cross the death instant

      // Cached keys: served from the cache, bytes still correct.
      for (int i = 0; i < 8; ++i) {
        const std::size_t disp = static_cast<std::size_t>(i) * 64;
        win.get(buf.data(), 64, 1, disp);
        EXPECT_EQ(win.last_access(), AccessType::kHit);
        for (int j = 0; j < 64; ++j) {
          ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                    pattern_at(disp + static_cast<std::size_t>(j), 1));
        }
      }
      EXPECT_EQ(win.stats().hits_full, warm_hits + 8);

      // An uncached key must fail (kRankDead is not retryable) and leave
      // the cache structurally sound.
      bool failed = false;
      try {
        win.get(buf.data(), 64, 1, 2048);
      } catch (const fault::OpFailedError& err) {
        failed = true;
        EXPECT_EQ(err.failure(), fault::FailureKind::kRankDead);
      }
      EXPECT_TRUE(failed);
      EXPECT_TRUE(win.core().validate());

      // The bypass path is not shielded either.
      EXPECT_THROW(win.get_nocache(buf.data(), 64, 1, 0), fault::OpFailedError);

      // Cached keys still serve after the failed insert.
      win.get(buf.data(), 64, 1, 0);
      EXPECT_EQ(win.stats().hits_full, warm_hits + 9);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(FaultResilience, FallbackRequiresOptIn) {
  // With no fault policy configured at all, a dead target still serves
  // its cached keys and fails only the misses.
  fault::Plan plan;
  plan.kill_rank(1, 1000.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);  // no retries, no degraded reads

  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), 64, 1, 0);
      win.flush_all();
      p.compute_us(2000.0);
      // The key is cached, so the get is a pure hit and never touches the
      // network — it still succeeds.
      win.get(buf.data(), 64, 1, 0);
      EXPECT_EQ(win.last_access(), AccessType::kHit);
      // A miss against the dead rank fails.
      EXPECT_THROW(win.get(buf.data(), 64, 1, 1024), fault::OpFailedError);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(FaultResilience, FailedInsertRollsBackCleanly) {
  // Every op fails, no retries: each get_c inserts an entry whose data
  // never arrives; the rollback must leave no PENDING debris behind.
  fault::Plan plan;
  plan.fail_everywhere(1.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);  // max_retries = 0

  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      for (int i = 0; i < 8; ++i) {
        EXPECT_THROW(win.get(buf.data(), 64, 1, static_cast<std::size_t>(i) * 64),
                     fault::OpFailedError);
      }
      EXPECT_EQ(win.core().pending_entries(), 0u);
      EXPECT_EQ(win.core().cached_entries(), 0u);
      EXPECT_TRUE(win.core().validate());
      win.flush_all();  // nothing outstanding: must not throw
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(FaultResilience, IdenticalSeedsIdenticalStats) {
  fault::Plan plan;
  plan.fail_everywhere(0.4);
  plan.spike_prob = 0.2;
  plan.spike_factor = 2.0;

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.max_retries = 8;

  const RunResult a = run_reader(std::make_shared<fault::Injector>(plan), ccfg);
  const RunResult b = run_reader(std::make_shared<fault::Injector>(plan), ccfg);
  EXPECT_EQ(a.errors, b.errors);
  EXPECT_EQ(a.stats.total_gets, b.stats.total_gets);
  EXPECT_EQ(a.stats.injected_faults, b.stats.injected_faults);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.retry_giveups, b.stats.retry_giveups);
  EXPECT_EQ(a.stats.hits_full, b.stats.hits_full);
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);  // exact: the schedule is counter-based
  EXPECT_GT(a.stats.injected_faults, 0u);
}

TEST(FaultResilience, TransparentModeSurvivesDeadFlush) {
  // A transparent-mode epoch whose flush hits a dead target abandons the
  // dead target's data but stays structurally valid.
  fault::Plan plan;
  plan.kill_rank(1, 50.0);

  Config ccfg = cache_cfg(Mode::kTransparent);

  Engine e(engine_cfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      std::vector<std::uint8_t> buf2(64);
      win.get(buf.data(), 64, 1, 0);  // issued while rank 1 is alive
      win.get(buf2.data(), 64, 2, 0);
      p.compute_us(100.0);  // rank 1 dies with the epoch open
      EXPECT_THROW(win.flush_all(), fault::OpFailedError);
      EXPECT_EQ(win.core().pending_entries(), 0u);
      EXPECT_TRUE(win.core().validate());
      // The next epoch works against the surviving rank.
      win.get(buf.data(), 64, 2, 0);
      win.flush_all();
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                  pattern_at(static_cast<std::size_t>(j), 2));
      }
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// Rank 0 holds a shared lock on rank 1, issues one get, and completes the
// epoch with `close` after rank 1 died; unless `close` is an unlock, it
// then unlocks. Last it takes an exclusive lock on rank 1, which
// deadlocks the run if the shared lock is still held.
struct DeadCompletion {
  std::size_t pending_entries = 0;
  std::uint64_t injected_faults = 0;
  bool threw = false;
  bool relocked = false;
};

DeadCompletion complete_after_death(Mode mode, void (*close)(CachedWindow&),
                                    bool close_unlocks) {
  fault::Plan plan;
  plan.kill_rank(1, 50.0);
  Engine e(engine_cfg(2, std::make_shared<fault::Injector>(plan)));
  auto out = std::make_shared<DeadCompletion>();
  try {
    e.run([out, mode, close, close_unlocks](Process& p) {
      void* base = nullptr;
      auto win = CachedWindow::allocate(p, 4096, &base, cache_cfg(mode));
      p.barrier();
      if (p.rank() == 0) {
        std::vector<std::uint8_t> buf(64);
        win.lock(rmasim::LockType::kShared, 1);
        win.get(buf.data(), 64, 1, 0);  // issued while rank 1 is alive
        p.compute_us(100.0);             // rank 1 dies with the get pending
        try {
          close(win);
        } catch (const fault::OpFailedError&) {
          out->threw = true;
        }
        if (!close_unlocks) win.unlock(1);
        out->pending_entries = win.core().pending_entries();
        out->injected_faults = win.stats().injected_faults;
        win.lock(rmasim::LockType::kExclusive, 1);
        out->relocked = true;
        win.unlock(1);
      }
      p.barrier();
      win.free_window();
    });
  } catch (const util::ContractError&) {
    // The exclusive lock deadlocked: `close` left the shared lock held.
  }
  return *out;
}

struct CompletionCase {
  const char* name;
  Mode mode;
  void (*close)(CachedWindow&);
  bool unlocks;
};

const CompletionCase kCompletionCases[] = {
    {"flush_all", Mode::kUserDefined, [](CachedWindow& w) { w.flush_all(); }, false},
    {"invalidate", Mode::kUserDefined, [](CachedWindow& w) { w.invalidate(); }, false},
    {"unlock_transparent", Mode::kTransparent, [](CachedWindow& w) { w.unlock(1); }, true},
    {"unlock_user_defined", Mode::kUserDefined, [](CachedWindow& w) { w.unlock(1); }, true},
};

// Every call that completes an epoch handles a dead target the way
// flush_all does: the fault is counted, the dead target's pending entry is
// dropped and the error propagates.
TEST(FaultResilience, EveryEpochCompletionHandlesADeadTarget) {
  for (const CompletionCase& c : kCompletionCases) {
    SCOPED_TRACE(c.name);
    const DeadCompletion r = complete_after_death(c.mode, c.close, c.unlocks);
    EXPECT_TRUE(r.threw);
    EXPECT_EQ(r.pending_entries, 0u);
    EXPECT_EQ(r.injected_faults, 1u);
  }
}

// An unlock whose completion fails still releases the lock.
TEST(FaultResilience, FailedUnlockReleasesTheLock) {
  for (const CompletionCase& c : kCompletionCases) {
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(complete_after_death(c.mode, c.close, c.unlocks).relocked);
  }
}

}  // namespace

// Per-target health subsystem (docs/FAULTS.md §6): the per-target
// failure detector, per-target retry budgets (no cross-target starvation),
// quarantine fast-fails, bounded-staleness degraded reads, dead-flush
// in-flight handling and the typed target-status query API.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "clampi/clampi.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "netmodel/model.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config ecfg(int nranks, std::shared_ptr<fault::Injector> inj = nullptr) {
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

// ---------------------------------------------------------------------------
// HealthMonitor unit behaviour (no engine)
// ---------------------------------------------------------------------------

HealthMonitor::Config mon_cfg() {
  HealthMonitor::Config c;
  c.threshold = 3;
  c.window_us = 10000.0;
  c.dwell_us = 1000.0;
  c.close_after = 2;
  return c;
}

TEST(HealthMonitor, DisabledDetectorStaysHealthyButAccountsBackoff) {
  HealthMonitor::Config c = mon_cfg();
  c.threshold = 0;  // detector off
  HealthMonitor m(c);
  EXPECT_FALSE(m.enabled());
  for (int i = 0; i < 20; ++i) m.record_failure(0, 100.0 * i, /*fatal=*/true);
  EXPECT_EQ(m.state(0), HealthState::kHealthy);
  // The per-target backoff pools must work unconditionally.
  m.epoch_backoff_us(0) += 25.0;
  m.epoch_backoff_us(2) += 5.0;
  EXPECT_DOUBLE_EQ(m.epoch_backoff_us(0), 25.0);
  EXPECT_DOUBLE_EQ(m.epoch_backoff_us(1), 0.0);
  EXPECT_DOUBLE_EQ(m.epoch_backoff_us(2), 5.0);
  m.on_epoch_close(1000.0);
  EXPECT_DOUBLE_EQ(m.epoch_backoff_us(0), 0.0);
  EXPECT_DOUBLE_EQ(m.epoch_backoff_us(2), 0.0);
}

TEST(HealthMonitor, WindowedFailuresQuarantine) {
  HealthMonitor m(mon_cfg());
  EXPECT_EQ(m.record_failure(1, 10.0, false), HealthState::kHealthy);
  EXPECT_EQ(m.record_failure(1, 20.0, false), HealthState::kHealthy);
  // Third windowed failure reaches the threshold.
  EXPECT_EQ(m.record_failure(1, 30.0, false), HealthState::kQuarantined);
  const TargetStatus st = m.status(1);
  EXPECT_EQ(st.state, HealthState::kQuarantined);
  EXPECT_EQ(st.failures, 3u);
  EXPECT_DOUBLE_EQ(st.quarantined_since_us, 30.0);
  EXPECT_FALSE(st.usable);
  // Other targets are untouched.
  EXPECT_EQ(m.state(0), HealthState::kHealthy);
  EXPECT_TRUE(m.status(0).usable);
}

TEST(HealthMonitor, FatalFailureQuarantinesImmediately) {
  HealthMonitor m(mon_cfg());
  EXPECT_EQ(m.record_failure(4, 100.0, /*fatal=*/true), HealthState::kQuarantined);
  EXPECT_EQ(m.status(4).failures, 1u);
}

TEST(HealthMonitor, EpochClosePromotesAfterDwell) {
  HealthMonitor m(mon_cfg());
  m.record_failure(2, 500.0, /*fatal=*/true);
  m.epoch_backoff_us(2) += 40.0;

  // Dwell (1000us) not yet elapsed.
  EXPECT_TRUE(m.on_epoch_close(1000.0).empty());
  EXPECT_EQ(m.state(2), HealthState::kQuarantined);
  EXPECT_DOUBLE_EQ(m.epoch_backoff_us(2), 0.0);  // backoff resets regardless

  // 1100us in quarantine: promote.
  EXPECT_EQ(m.on_epoch_close(1600.0), std::vector<int>{2});
  EXPECT_EQ(m.state(2), HealthState::kProbing);
}

TEST(HealthMonitor, ProbeStreakRecloses) {
  HealthMonitor m(mon_cfg());
  m.record_failure(0, 0.0, /*fatal=*/true);
  m.on_epoch_close(2000.0);
  ASSERT_EQ(m.state(0), HealthState::kProbing);
  EXPECT_EQ(m.record_success(0), HealthState::kProbing);  // streak 1 of 2
  EXPECT_EQ(m.record_success(0), HealthState::kHealthy);
  const TargetStatus st = m.status(0);
  EXPECT_LT(st.quarantined_since_us, 0.0);
  EXPECT_EQ(st.failures, 1u);  // cumulative counters survive recovery
  EXPECT_EQ(st.successes, 2u);
}

TEST(HealthMonitor, ProbeFailureRequarantines) {
  HealthMonitor m(mon_cfg());
  m.record_failure(0, 0.0, /*fatal=*/true);
  m.on_epoch_close(2000.0);
  ASSERT_EQ(m.state(0), HealthState::kProbing);
  EXPECT_EQ(m.record_failure(0, 2100.0, false), HealthState::kQuarantined);
  EXPECT_DOUBLE_EQ(m.status(0).quarantined_since_us, 2100.0);
}

TEST(HealthMonitor, StateNames) {
  EXPECT_STREQ(to_string(HealthState::kHealthy), "healthy");
  EXPECT_STREQ(to_string(HealthState::kQuarantined), "quarantined");
  EXPECT_STREQ(to_string(HealthState::kProbing), "probing");
}

// ---------------------------------------------------------------------------
// Window integration
// ---------------------------------------------------------------------------

TEST(HealthWindow, RetryBudgetIsPerTarget) {
  // Both targets always fail. With the pre-health *global* budget, target
  // 1's retries would exhaust the pool and target 2 would give up with
  // zero retries; per-target pools give each its own three.
  fault::Plan plan;
  plan.fail_target(1, 1.0).fail_target(2, 1.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.max_retries = 100;
  ccfg.retry_backoff_us = 10.0;
  ccfg.retry_jitter = 0.0;
  ccfg.epoch_retry_budget_us = 75.0;  // room for 10 + 20 + 40us per target

  Engine e(ecfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      EXPECT_THROW(win.get(buf.data(), 64, 1, 0), fault::OpFailedError);
      EXPECT_THROW(win.get(buf.data(), 64, 2, 0), fault::OpFailedError);
      const Stats st = win.stats();
      EXPECT_EQ(st.retries, 6u);        // 3 per target, not 3 total
      EXPECT_EQ(st.retry_giveups, 2u);  // each target exhausts its own pool
      EXPECT_EQ(st.injected_faults, 8u);
      EXPECT_DOUBLE_EQ(win.target_status(1).epoch_backoff_us, 70.0);
      EXPECT_DOUBLE_EQ(win.target_status(2).epoch_backoff_us, 70.0);
      win.flush_all();  // epoch boundary resets every pool
      EXPECT_DOUBLE_EQ(win.target_status(1).epoch_backoff_us, 0.0);
      EXPECT_DOUBLE_EQ(win.target_status(2).epoch_backoff_us, 0.0);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, QuarantineFastFailsWithoutBurningRetries) {
  fault::Plan plan;
  plan.fail_target(1, 1.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);  // max_retries = 0
  ccfg.health_failure_threshold = 2;
  ccfg.health_window_us = 1e6;
  ccfg.health_quarantine_dwell_us = 1e9;  // never re-probed in this test

  Engine e(ecfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      EXPECT_THROW(win.get(buf.data(), 64, 1, 0), fault::OpFailedError);
      EXPECT_EQ(win.target_status(1).state, HealthState::kHealthy);
      EXPECT_THROW(win.get(buf.data(), 64, 1, 64), fault::OpFailedError);
      EXPECT_EQ(win.target_status(1).state, HealthState::kQuarantined);
      EXPECT_EQ(win.stats().health_quarantines, 1u);
      EXPECT_EQ(win.stats().injected_faults, 2u);

      // The third get fast-fails: no network op, no injected fault.
      bool quarantined = false;
      try {
        win.get(buf.data(), 64, 1, 128);
      } catch (const fault::OpFailedError& err) {
        quarantined = err.failure() == fault::FailureKind::kQuarantined;
      }
      EXPECT_TRUE(quarantined);
      EXPECT_EQ(win.stats().fast_fails, 1u);
      EXPECT_EQ(win.stats().injected_faults, 2u);  // unchanged

      // A healthy target is untouched by target 1's quarantine.
      win.get(buf.data(), 64, 2, 0);
      win.flush_all();
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                  pattern_at(static_cast<std::size_t>(j), 2));
      }

      const TargetStatus bad = win.target_status(1);
      EXPECT_EQ(bad.state, HealthState::kQuarantined);
      EXPECT_EQ(bad.failures, 2u);
      EXPECT_EQ(bad.fast_fails, 1u);
      EXPECT_FALSE(bad.usable);
      EXPECT_FALSE(bad.dead);  // unreachable by policy, not by the injector
      const TargetStatus good = win.target_status(2);
      EXPECT_TRUE(good.usable);
      EXPECT_GE(good.successes, 1u);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, DegradedReadsServeDeadTargetInTransparentMode) {
  // The headline behaviour: bounded-staleness degraded reads serve across
  // epochs even in kTransparent. The dead
  // flush materializes in-flight data as last-known-good entries and the
  // transparent invalidation retains them for the down target.
  fault::Plan plan;
  plan.kill_rank(1, 1000.0);

  Config ccfg = cache_cfg(Mode::kTransparent);
  ccfg.degraded_reads = true;
  ccfg.degraded_max_staleness_us = 1e6;

  Engine e(ecfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      std::vector<std::uint8_t> buf2(64);
      win.get(buf.data(), 64, 1, 0);    // issued while rank 1 is alive
      win.get(buf2.data(), 64, 1, 64);  // (data movement is eager)
      p.compute_us(2000.0);             // rank 1 dies with the epoch open
      EXPECT_THROW(win.flush_all(), fault::OpFailedError);
      // Both entries were materialized and retained across the epoch.
      EXPECT_EQ(win.core().pending_entries(), 0u);
      EXPECT_EQ(win.core().cached_entries(), 2u);

      // Cached keys keep serving, with correct bytes and bounded age.
      win.get(buf.data(), 64, 1, 0);
      EXPECT_TRUE(win.last_was_degraded());
      EXPECT_GT(win.last_degraded_age_us(), 0.0);
      EXPECT_LE(win.last_degraded_age_us(), 1e6);
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                  pattern_at(static_cast<std::size_t>(j), 1));
      }
      win.get(buf2.data(), 64, 1, 64);
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf2[static_cast<std::size_t>(j)],
                  pattern_at(64 + static_cast<std::size_t>(j), 1));
      }
      EXPECT_EQ(win.stats().degraded_hits, 2u);

      // A key that was never cached must surface the death.
      EXPECT_THROW(win.get(buf.data(), 64, 1, 2048), fault::OpFailedError);
      EXPECT_FALSE(win.last_was_degraded());
      EXPECT_TRUE(win.core().validate());
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, DegradedReadsRespectStalenessBound) {
  fault::Plan plan;
  plan.kill_rank(1, 1000.0);

  Config ccfg = cache_cfg(Mode::kTransparent);
  ccfg.degraded_reads = true;
  ccfg.degraded_max_staleness_us = 50000.0;

  Engine e(ecfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), 64, 1, 0);
      p.compute_us(2000.0);
      EXPECT_THROW(win.flush_all(), fault::OpFailedError);

      win.get(buf.data(), 64, 1, 0);  // well inside the bound
      EXPECT_TRUE(win.last_was_degraded());
      EXPECT_EQ(win.stats().degraded_hits, 1u);

      // Outlive the bound: the survivor is dropped, the get surfaces the
      // rank death instead of silently serving over-stale bytes — and the
      // ordinary hit path cannot resurrect the entry either.
      p.compute_us(100000.0);
      EXPECT_THROW(win.get(buf.data(), 64, 1, 0), fault::OpFailedError);
      EXPECT_FALSE(win.last_was_degraded());
      EXPECT_EQ(win.stats().degraded_hits, 1u);
      EXPECT_EQ(win.stats().degraded_expired, 1u);
      EXPECT_TRUE(win.core().validate());
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, DegradedReadsCountSeparatelyInAlwaysCacheMode) {
  fault::Plan plan;
  plan.kill_rank(1, 1000.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.degraded_reads = true;
  ccfg.degraded_max_staleness_us = 1e6;

  Engine e(ecfg(2, std::make_shared<fault::Injector>(plan)));
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
      win.get(buf.data(), 64, 1, 0);
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                  pattern_at(static_cast<std::size_t>(j), 1));
      }
      EXPECT_EQ(win.stats().degraded_hits, 1u);
      EXPECT_THROW(win.get(buf.data(), 64, 1, 2048), fault::OpFailedError);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, SurvivorDroppedWhenTargetRevives) {
  // fault::Plan::revive_rank brings the rank back: retained last-known-good
  // entries must not be served as ordinary transparent-mode hits once the
  // target is reachable again — they are dropped and re-fetched fresh.
  fault::Plan plan;
  plan.kill_rank(1, 1000.0).revive_rank(1, 3000.0);

  Config ccfg = cache_cfg(Mode::kTransparent);
  ccfg.degraded_reads = true;
  ccfg.degraded_max_staleness_us = 1e7;

  Engine e(ecfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      win.get(buf.data(), 64, 1, 0);
      p.compute_us(2000.0);
      EXPECT_THROW(win.flush_all(), fault::OpFailedError);
      win.get(buf.data(), 64, 1, 0);
      EXPECT_TRUE(win.last_was_degraded());

      p.compute_us(2000.0);  // past the revival instant
      win.get(buf.data(), 64, 1, 0);  // fresh fetch from the revived rank
      EXPECT_FALSE(win.last_was_degraded());
      EXPECT_EQ(win.stats().degraded_expired, 1u);
      win.flush_all();
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                  pattern_at(static_cast<std::size_t>(j), 1));
      }
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, ReviveRankReclosesThroughProbing) {
  // QUARANTINED -> PROBING (dwell elapsed, epoch boundary) -> HEALTHY
  // (probe successes), exercised end-to-end against a revived rank.
  fault::Plan plan;
  plan.kill_rank(1, 1000.0).revive_rank(1, 3000.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.health_failure_threshold = 1;
  ccfg.health_quarantine_dwell_us = 1500.0;

  Engine e(ecfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      p.compute_us(2000.0);  // rank 1 is dead
      EXPECT_THROW(win.get(buf.data(), 64, 1, 0), fault::OpFailedError);
      EXPECT_EQ(win.target_status(1).state, HealthState::kQuarantined);
      EXPECT_THROW(win.get(buf.data(), 64, 1, 0), fault::OpFailedError);  // fast-fail
      EXPECT_EQ(win.stats().fast_fails, 1u);

      win.flush_all();  // epoch boundary before the dwell elapsed: no probe
      EXPECT_EQ(win.target_status(1).state, HealthState::kQuarantined);

      p.compute_us(2500.0);  // past dwell (3500 < 4500) and revival (3000)
      win.flush_all();       // epoch boundary: half-open
      EXPECT_EQ(win.target_status(1).state, HealthState::kProbing);
      EXPECT_EQ(win.stats().health_probes, 1u);

      win.get(buf.data(), 64, 1, 0);  // first successful probe
      EXPECT_EQ(win.target_status(1).state, HealthState::kProbing);
      win.get(buf.data(), 64, 1, 64);  // second: reclose
      EXPECT_EQ(win.target_status(1).state, HealthState::kHealthy);
      EXPECT_EQ(win.stats().health_recoveries, 1u);
      win.flush_all();
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                  pattern_at(64 + static_cast<std::size_t>(j), 1));
      }
      EXPECT_TRUE(win.target_status(1).usable);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, PerTargetFlushDiscardsOnlyDeadTargetsInflight) {
  // flush(target) raising kRankDead mid-epoch: the dead target's pending
  // copy-ins and PENDING entries are discarded, the healthy target's
  // in-flight data survives and completes on its own flush.
  fault::Plan plan;
  plan.kill_rank(1, 50.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);

  Engine e(ecfg(3, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf1(64);
      std::vector<std::uint8_t> buf2(64);
      win.get(buf1.data(), 64, 1, 0);  // issued while rank 1 is alive
      win.get(buf2.data(), 64, 2, 0);
      EXPECT_EQ(win.core().pending_entries(), 2u);
      p.compute_us(100.0);  // rank 1 dies with both gets in flight
      EXPECT_THROW(win.flush(1), fault::OpFailedError);
      EXPECT_EQ(win.core().pending_entries(), 1u);  // only rank 2's remains
      EXPECT_TRUE(win.core().validate());
      win.flush(1);  // pending state was consumed: a repeat flush is clean
      win.flush(2);
      EXPECT_EQ(win.core().pending_entries(), 0u);
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ(buf2[static_cast<std::size_t>(j)],
                  pattern_at(static_cast<std::size_t>(j), 2));
      }
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, TraceRecordsHealthTransitions) {
  fault::Plan plan;
  plan.fail_target(1, 1.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.health_failure_threshold = 2;
  ccfg.health_window_us = 1e6;
  ccfg.health_quarantine_dwell_us = 1e9;

  Engine e(ecfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      trace::Trace t;
      win.record_faults_to(&t);
      std::vector<std::uint8_t> buf(64);
      EXPECT_THROW(win.get(buf.data(), 64, 1, 0), fault::OpFailedError);
      EXPECT_THROW(win.get(buf.data(), 64, 1, 64), fault::OpFailedError);
      win.record_faults_to(nullptr);

      std::size_t health_events = 0;
      for (const auto& ev : t.events) {
        if (ev.kind != trace::Event::Kind::kHealth) continue;
        ++health_events;
        EXPECT_EQ(ev.target, 1);
        EXPECT_EQ(ev.disp,
                  static_cast<std::uint64_t>(HealthState::kQuarantined));
      }
      EXPECT_EQ(health_events, 1u);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, TargetStatusReportsInjectorDeathWithoutDetector) {
  fault::Plan plan;
  plan.kill_rank(1, 1000.0);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);  // detector off

  Engine e(ecfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      EXPECT_TRUE(win.target_status(1).usable);
      p.compute_us(2000.0);
      const TargetStatus st = win.target_status(1);
      EXPECT_TRUE(st.dead);
      EXPECT_FALSE(st.usable);
      EXPECT_EQ(st.state, HealthState::kHealthy);  // detector is off
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

TEST(HealthWindow, TargetCountsOutcomesWithoutDetector) {
  // The per-target failure and success counters do not depend on the
  // detector: with it off, every attempt still lands in one of them.
  fault::Plan plan;
  plan.fail_target(1, 0.5);

  Config ccfg = cache_cfg(Mode::kAlwaysCache);  // detector off, max_retries = 0
  ASSERT_EQ(ccfg.health_failure_threshold, 0);

  Engine e(ecfg(2, std::make_shared<fault::Injector>(plan)));
  e.run([ccfg](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(64);
      std::uint64_t thrown = 0;
      for (std::size_t i = 0; i < 20; ++i) {
        try {
          win.get(buf.data(), 64, 1, 64 * i);
        } catch (const fault::OpFailedError&) {
          ++thrown;
        }
      }
      win.flush_all();
      const TargetStatus st = win.target_status(1);
      EXPECT_EQ(st.state, HealthState::kHealthy);
      EXPECT_GT(st.failures, 0u);
      EXPECT_EQ(st.failures, win.stats().injected_faults);
      EXPECT_EQ(st.failures, thrown);
      EXPECT_EQ(st.failures + st.successes, 20u);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
}

// ---------------------------------------------------------------------------
// Pinned decisions of both failure detectors
// ---------------------------------------------------------------------------

// FNV-1a, one little-endian byte of each word at a time.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// What became of one get: served (cache or network), passed through the
// open breaker, fast-failed by quarantine, or failed with another kind.
std::uint64_t get_outcome(CachedWindow& win, void* buf, int target, std::size_t disp) {
  const std::uint64_t passed = win.stats().breaker_passthrough_gets;
  try {
    win.get(buf, 64, target, disp);
  } catch (const fault::OpFailedError& err) {
    if (err.failure() == fault::FailureKind::kQuarantined) return 2;
    return 3 + static_cast<std::uint64_t>(err.failure());
  }
  return win.stats().breaker_passthrough_gets != passed ? 1 : 0;
}

// One seeded run with the breaker and the health detector both armed:
// transient faults against target 1, a death and revival of target 2,
// two partitions cutting target 3 off, and bit rot in the cache, with
// degraded reads on. Digests
// every get's outcome, the breaker and health transitions of the fault
// trace, and the breaker and health counters.
std::uint64_t detector_decisions_digest(std::uint64_t seed, Stats* total) {
  fault::Plan plan;
  plan.seed = seed;
  plan.fail_target(1, 0.25);
  plan.kill_rank(2, 800.0 + 100.0 * static_cast<double>(seed % 7)).revive_rank(2, 3000.0);
  plan.partition_pair(0, 3, 1500.0, 1900.0).partition_pair(0, 3, 4200.0, 4500.0);
  plan.storage_bitflip_prob = 2e-4;

  Config ccfg = cache_cfg(Mode::kAlwaysCache);
  ccfg.verify_every_n = 1;  // bit rot is caught and healed on the next hit
  ccfg.max_retries = 1;
  ccfg.retry_backoff_us = 5.0;
  ccfg.health_failure_threshold = 2;
  ccfg.health_window_us = 1000.0;
  ccfg.health_quarantine_dwell_us = 300.0;
  ccfg.degraded_reads = true;  // a down target's cached entries still serve
  ccfg.degraded_max_staleness_us = 2000.0;
  ccfg.breaker_failure_threshold = 2;
  ccfg.breaker_window_us = 400.0;
  ccfg.breaker_open_us = 150.0;
  ccfg.breaker_probe_every_n = 3;
  ccfg.breaker_halfopen_successes = 2;

  Digest d;
  Engine e(ecfg(4, std::make_shared<fault::Injector>(plan)));
  e.run([&](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, 4096, &base, ccfg);
    fill_pattern(base, 4096, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      trace::Trace t;
      win.record_faults_to(&t);
      win.lock_all();
      std::uint64_t s = seed;
      std::vector<std::uint8_t> buf(64);
      for (int op = 0; op < 600; ++op) {
        const std::uint64_t r = splitmix64(s);
        p.compute_us(static_cast<double>((r >> 32) % 40));
        if (r % 8 == 0) {
          try {
            win.flush_all();
            d.add(0xe0);
          } catch (const fault::OpFailedError& err) {
            d.add(0xe1 + static_cast<std::uint64_t>(err.failure()));
          }
          continue;
        }
        const int target = 1 + static_cast<int>((r >> 8) % 3);
        const std::size_t disp = 64 * ((r >> 16) % 16);
        d.add(get_outcome(win, buf.data(), target, disp));
      }
      try {
        win.flush_all();
      } catch (const fault::OpFailedError&) {
      }
      win.record_faults_to(nullptr);
      for (const trace::Event& ev : t.events) {
        if (ev.kind == trace::Event::Kind::kBreaker) {
          d.add(0xb0 + static_cast<std::uint64_t>(ev.target));
        } else if (ev.kind == trace::Event::Kind::kHealth && ev.disp != 1) {
          // Code 1 (SUSPECT) is left out: it was a diagnostic edge.
          d.add(0x100 * static_cast<std::uint64_t>(ev.target) + ev.disp);
        }
      }
      const Stats st = win.stats();
      for (const std::uint64_t c :
           {st.breaker_trips, st.breaker_recloses, st.breaker_passthrough_gets,
            st.health_quarantines, st.health_probes, st.health_recoveries, st.fast_fails,
            st.degraded_hits, st.degraded_expired, st.degraded_corrupt_drops}) {
        d.add(c);
      }
      total->breaker_recloses += st.breaker_recloses;
      total->breaker_passthrough_gets += st.breaker_passthrough_gets;
      total->health_recoveries += st.health_recoveries;
      total->fast_fails += st.fast_fails;
      total->degraded_hits += st.degraded_hits;
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  return d.h;
}

TEST(HealthWindow, DetectorDecisionsArePinned) {
  // Every decision of the window's circuit breaker and per-target health
  // machine over eight seeded fault schedules, folded into one constant.
  // A refactor of either detector must keep it.
  Digest all;
  Stats total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    all.add(detector_decisions_digest(seed, &total));
  }
  EXPECT_EQ(all.h, 0x109099481ba9d5f6ull);
  // Both machines walk their full cycle, so the digest pins real edges.
  EXPECT_GT(total.breaker_recloses, 0u);
  EXPECT_GT(total.health_recoveries, 0u);
  EXPECT_GT(total.fast_fails, 0u);
  EXPECT_GT(total.degraded_hits, 0u);
  EXPECT_GT(total.breaker_passthrough_gets, 0u);
}

}  // namespace

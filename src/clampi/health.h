// Per-target health tracking for a caching-enabled window.
//
// The resilience layer (docs/FAULTS.md) gives a window retries and
// backoff, but the first version accounted for them *globally*: one
// epoch-wide backoff pool and one circuit breaker for the whole window,
// so a single dead target could starve retries for healthy ones. This
// subsystem makes failure handling per-target: each target has its own
// FailureDetector (clampi/detector.h; closed, open and probing read as
// HEALTHY, QUARANTINED and PROBING, and a fatal rank-dead failure
// quarantines at once), its own op counters and its own epoch backoff
// pool, replacing the window-wide one.
//
// Quarantined targets fast-fail (the window refuses to issue network ops
// for them instead of burning retries and backoff) and may opt into
// bounded-staleness degraded reads (docs/FAULTS.md §6). At every epoch
// boundary a quarantined target whose dwell elapsed moves to PROBING:
// the next gets are allowed through half-open, and enough consecutive
// successes reclose it to HEALTHY (exercised by fault::Plan::revive_rank).
//
// The monitor is runtime-agnostic: CachedWindow feeds it op outcomes and
// virtual time; tests drive it directly. Targets are window-comm local
// ranks. With threshold == 0 the detector is off (every target reports
// HEALTHY forever) but the per-target backoff accounting — which must
// work unconditionally — is still live.
#pragma once

#include <cstdint>
#include <vector>

#include "clampi/detector.h"

namespace clampi {

/// The values are the trace's `h` codes. Code 1 is retired: nothing
/// writes it, but traces that carry it still load.
enum class HealthState : std::uint8_t { kHealthy = 0, kQuarantined = 2, kProbing = 3 };

const char* to_string(HealthState s);

/// Typed per-target status snapshot: the workload-facing query API
/// (CachedWindow::target_status). Lets an application drop a dead rank
/// from its communication pattern instead of aborting on the first
/// OpFailedError.
struct TargetStatus {
  HealthState state = HealthState::kHealthy;
  std::uint64_t failures = 0;   ///< cumulative op failures against this target
  std::uint64_t successes = 0;  ///< cumulative successful network ops
  std::uint64_t fast_fails = 0;     ///< gets refused while quarantined
  std::uint64_t degraded_hits = 0;  ///< gets served stale-bounded from cache
  double quarantined_since_us = -1.0;  ///< entry time of the current
                                       ///< quarantine; < 0 when not quarantined
  double epoch_backoff_us = 0.0;  ///< retry backoff charged this epoch
  std::uint64_t slow_observations = 0;  ///< ops that completed against this
                                        ///< target while it straggled (SLOW
                                        ///< is informational: it never feeds
                                        ///< quarantine)
  bool dead = false;    ///< the fault injector reports the rank dead *now*
                        ///< (filled by CachedWindow, not the monitor)
  bool partitioned = false;  ///< a partition currently cuts this rank off
                             ///< from *us* (filled by CachedWindow; other
                             ///< origins may still reach it)
  bool slow = false;    ///< a straggler epoch covers this rank *now* (filled
                        ///< by CachedWindow; the rank is alive and correct,
                        ///< so `usable` stays true — only the tail-latency
                        ///< layer reacts; docs/FAULTS.md §8)
  bool recovering = false;  ///< the rank restarted after a crash and is
                            ///< replaying its journal: ops fast-fail with
                            ///< kRecovering until replay completes (filled
                            ///< by CachedWindow; docs/DURABILITY.md)
  bool usable = false;  ///< convenience: not quarantined, dead, partitioned
                        ///< or recovering
};

class HealthMonitor {
 public:
  /// Every target's detector; threshold 0 turns health off (see above).
  using Config = FailureDetector::Config;

  explicit HealthMonitor(const Config& cfg) : cfg_(cfg) {}

  bool enabled() const { return cfg_.threshold > 0; }

  /// A network op against `target` completed cleanly. Returns the state
  /// after the update (PROBING may reclose).
  HealthState record_success(int target);

  /// A network op failed. `fatal` (rank-dead) quarantines immediately;
  /// transient failures count in the target's window.
  HealthState record_failure(int target, double now_us, bool fatal);

  HealthState state(int target) const;
  TargetStatus status(int target) const;

  /// Epoch boundary: zero every target's backoff accounting and promote
  /// quarantined targets whose dwell elapsed to PROBING. Returns the
  /// promoted targets.
  std::vector<int> on_epoch_close(double now_us);

  /// Zero the per-target backoff accounting without touching states
  /// (abandoned epochs: a flush failure resets the pools mid-epoch).
  void reset_epoch_backoff();

  /// The target's counter fields (TargetStatus minus the state), for the
  /// window to bump.
  TargetStatus& counters(int target) { return at(target).counters; }

  /// Per-target backoff charged in the current epoch (mutable: the retry
  /// loop accumulates into it). Replaces the window-global pool.
  double& epoch_backoff_us(int target) { return counters(target).epoch_backoff_us; }

 private:
  // Targets are created lazily, on first touch.
  struct Target {
    explicit Target(const Config& cfg) : detector(cfg) {}
    FailureDetector detector;
    TargetStatus counters;
  };

  Target& at(int target);
  const Target* find(int target) const;

  Config cfg_;
  std::vector<Target> targets_;
};

}  // namespace clampi

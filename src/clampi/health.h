// Per-target health tracking for a caching-enabled window.
//
// The resilience layer (docs/FAULTS.md) gives a window retries and
// backoff, but the first version accounted for them *globally*: one
// epoch-wide backoff pool and one circuit breaker for the whole window,
// so a single dead target could starve retries for healthy ones. This
// subsystem makes failure handling per-target:
//
//   - a virtual-time EWMA failure detector (phi-accrual flavoured: the
//     suspicion score decays exponentially with elapsed virtual time and
//     is bumped by every op outcome) feeding
//   - a per-target state machine
//
//         failures accumulate          windowed failures >= threshold,
//            (suspicion)               or a fatal (rank-dead) failure
//     HEALTHY -----------> SUSPECT -------------------------------+
//        ^  ^                 |                                   v
//        |  |                 +----------------------------> QUARANTINED
//        |  |  probe_successes consecutive                     |     ^
//        |  +------------------------------- PROBING <---------+     |
//        |        successful probes             |   dwell elapsed    |
//        |                                      |  (epoch boundary)  |
//        +--- suspicion decays below threshold  +--- probe fails ----+
//
//   - per-target sliding-window failure counts (metrics::
//     SlidingWindowCounter) and per-target epoch backoff accounting,
//     replacing the window-wide pool.
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
// ranks. With failure_threshold == 0 the detector is off (every target
// reports HEALTHY forever) but the per-target backoff accounting — which
// must work unconditionally — is still live.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "metrics/sliding_window.h"

namespace clampi {

enum class HealthState : std::uint8_t { kHealthy, kSuspect, kQuarantined, kProbing };

const char* to_string(HealthState s);

/// Typed per-target status snapshot: the workload-facing query API
/// (CachedWindow::target_status). Lets an application drop a dead rank
/// from its communication pattern instead of aborting on the first
/// OpFailedError.
struct TargetStatus {
  HealthState state = HealthState::kHealthy;
  double suspicion = 0.0;  ///< decayed EWMA failure estimate in [0, 1]
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
                                        ///< suspicion or quarantine)
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
  struct Config {
    /// Windowed per-target failures that quarantine the target; 0 turns
    /// the detector off entirely (state() is kHealthy forever).
    int failure_threshold = 0;
    double window_us = 10000.0;       ///< sliding failure-count window
    double ewma_alpha = 0.3;          ///< per-outcome EWMA weight
    double ewma_halflife_us = 5000.0; ///< virtual-time suspicion half-life
    double suspect_threshold = 0.5;   ///< suspicion above this marks SUSPECT
    double quarantine_dwell_us = 5000.0;  ///< min quarantine before probing
    int probe_successes = 2;  ///< consecutive healthy probes to recover
  };

  explicit HealthMonitor(const Config& cfg) : cfg_(cfg) {}

  bool enabled() const { return cfg_.failure_threshold > 0; }

  /// A network op against `target` completed cleanly at virtual time
  /// `now_us`. Returns the state after the update (PROBING may reclose).
  HealthState record_success(int target, double now_us);

  /// A network op failed. `fatal` (rank-dead) quarantines immediately;
  /// transient failures accumulate suspicion and windowed counts.
  HealthState record_failure(int target, double now_us, bool fatal);

  HealthState state(int target) const;
  /// Decayed suspicion at `now_us` (diagnostic; state() is the decision).
  double suspicion(int target, double now_us) const;
  TargetStatus status(int target, double now_us) const;

  /// Epoch boundary: zero every target's backoff accounting and promote
  /// quarantined targets whose dwell elapsed to PROBING. Transitions are
  /// appended to `out` (may be nullptr) as (target, new state).
  void on_epoch_close(double now_us,
                      std::vector<std::pair<int, HealthState>>* out);

  /// Zero the per-target backoff accounting without touching states
  /// (abandoned epochs: a flush failure resets the pools mid-epoch).
  void reset_epoch_backoff();

  /// Per-target backoff charged in the current epoch (mutable: the retry
  /// loop accumulates into it). Replaces the window-global pool.
  double& epoch_backoff_us(int target) { return at(target).epoch_backoff_us; }
  double epoch_backoff_us(int target) const;
  /// Sum across targets (back-compat for the old window-global accessor).
  double total_epoch_backoff_us() const;

  void note_fast_fail(int target) { ++at(target).fast_fails; }
  void note_degraded_hit(int target) { ++at(target).degraded_hits; }

  /// A network op completed against `target` while a straggler epoch
  /// covered it (docs/FAULTS.md §8). SLOW is a pure observation: it bumps
  /// a counter and nothing else — no suspicion, no windowed failure count,
  /// no state transition — so a straggling-but-correct rank can never be
  /// quarantined by slowness alone. Works with the detector off.
  void record_slow(int target) { ++at(target).slow_observations; }

  /// Highest target index ever touched + 1 (targets are created lazily).
  std::size_t tracked_targets() const { return targets_.size(); }

 private:
  struct Target {
    explicit Target(double window_us) : window_failures(window_us) {}
    HealthState state = HealthState::kHealthy;
    double suspicion = 0.0;
    double last_update_us = 0.0;
    metrics::SlidingWindowCounter window_failures;
    std::uint64_t failures = 0;
    std::uint64_t successes = 0;
    std::uint64_t fast_fails = 0;
    std::uint64_t degraded_hits = 0;
    double quarantined_since_us = -1.0;
    double epoch_backoff_us = 0.0;
    int probe_streak = 0;
    std::uint64_t slow_observations = 0;
  };

  Target& at(int target);
  const Target* find(int target) const;
  /// Apply the virtual-time exponential decay to t's suspicion.
  void decay(Target& t, double now_us) const;
  void enter_quarantine(Target& t, double now_us);

  Config cfg_;
  std::vector<Target> targets_;
};

}  // namespace clampi

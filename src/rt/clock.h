// Per-rank virtual clocks.
//
// rmasim ranks advance a *virtual* time that combines two sources:
//  - modelled costs: network transfers, collectives and explicit
//    `compute()` calls advance the clock by amounts taken from the
//    network cost model;
//  - measured costs (policy kMeasured): real CPU time spent in user code
//    *between* runtime calls is added to the clock. This is how CLaMPI's
//    cache-management code (which is ordinary user-level code running on
//    real data structures) is charged its true cost, as in the paper's
//    Fig. 7, while the network remains modelled.
//
// Measurement uses the per-thread CPU clock so that time spent blocked in
// the scheduler is never charged.
#pragma once

#include <ctime>

#include "util/error.h"

namespace clampi::rmasim {

enum class TimePolicy {
  kModeled,   ///< only modelled costs advance time (deterministic)
  kMeasured,  ///< modelled costs + measured user-code CPU time
};

class VirtualClock {
 public:
  explicit VirtualClock(TimePolicy policy = TimePolicy::kModeled) : policy_(policy) {}

  double now_us() const { return now_us_; }
  TimePolicy policy() const { return policy_; }

  /// Advance by a modelled amount (non-negative).
  void advance_us(double us) {
    CLAMPI_ASSERT(us >= 0.0, "clock cannot run backwards");
    now_us_ += us;
  }

  /// Jump forward to `t` if `t` is in the future (used when waiting for a
  /// completion or being released from a synchronization point).
  void advance_to_us(double t) {
    if (t > now_us_) now_us_ = t;
  }

  /// Runtime-entry hook: accrues measured user time since the last exit.
  /// Re-entrant (collectives call other runtime primitives).
  void enter_runtime() {
    if (depth_++ == 0 && policy_ == TimePolicy::kMeasured && anchored_) {
      const double elapsed = thread_cpu_us() - anchor_us_;
      if (elapsed > 0.0) now_us_ += elapsed;
    }
  }

  /// Runtime-exit hook: re-anchors the measured-time baseline.
  void exit_runtime() {
    CLAMPI_ASSERT(depth_ > 0, "unbalanced exit_runtime");
    if (--depth_ == 0 && policy_ == TimePolicy::kMeasured) {
      anchor_us_ = thread_cpu_us();
      anchored_ = true;
    }
  }

  /// Called once when the owning thread starts executing user code.
  void start_measurement() {
    if (policy_ == TimePolicy::kMeasured) {
      anchor_us_ = thread_cpu_us();
      anchored_ = true;
    }
  }

  // CLOCK_MONOTONIC instead of the per-thread CPU clock: the scheduler
  // never runs more rank threads than the process has CPUs (one at a
  // time, or one per CPU while every window is read-only; rt/engine.h)
  // and the clock re-anchors at every runtime exit, so wall time between
  // runtime calls *is* this thread's compute time — and the vDSO read is
  // ~15ns versus a ~300ns syscall, which would otherwise dominate the
  // cache-hit costs being measured. Concurrent ranks do share caches and
  // memory bandwidth, and that contention is charged as real cost.
  static double thread_cpu_us() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
  }

 private:
  double now_us_ = 0.0;
  TimePolicy policy_;
  int depth_ = 0;
  double anchor_us_ = 0.0;
  bool anchored_ = false;
};

}  // namespace clampi::rmasim

// The one failure detector of a caching-enabled window.
//
// Two callers run it and differ only in what they do about its state:
// the circuit breaker (docs/INTEGRITY.md) is one detector for the whole
// window and bypasses the cache while it is not closed; the health
// machine (docs/FAULTS.md §6) is one detector per target and fast-fails
// a target while its detector is open.
//
//          threshold failures in the window,
//          or one forced (fatal) failure
//   CLOSED -------------------------------------> OPEN
//     ^                                           |  ^
//     |                 dwell elapsed (probe_due), |  | failure while
//     |                  or a success while open  v  | probing
//     +------------------------------------------ PROBING
//         close_after consecutive successes
//
// Opening and closing both clear the failure window, so a detector
// reopens only on fresh evidence; failures while OPEN are not counted.
// All timing is virtual time, so every transition is deterministic given
// the fault schedule. The caller decides when to ask probe_due (the
// breaker on every get, health at epoch close) and mirrors transitions
// into Stats and the fault trace.
#pragma once

#include <cstddef>
#include <cstdint>

#include "metrics/sliding_window.h"

namespace clampi {

class FailureDetector {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kProbing };

  struct Config {
    int threshold = 1;           ///< windowed failures that open it
    double window_us = 10000.0;  ///< sliding virtual-time failure window
    double dwell_us = 5000.0;    ///< minimum time open before probing
    int close_after = 1;         ///< consecutive successes that close it
  };

  explicit FailureDetector(const Config& cfg) : cfg_(cfg), failures_(cfg.window_us) {}

  State state() const { return state_; }
  /// Virtual time of the latest edge into OPEN.
  double opened_at_us() const { return opened_at_us_; }

  /// A failure at `now_us`. Opens a closed detector once the windowed
  /// count reaches the threshold, or at once when `force` is set; an open
  /// one ignores it.
  void record_failure(double now_us, bool force = false) {
    if (state_ == State::kOpen) return;
    if (state_ == State::kClosed) {
      failures_.add(now_us);
      if (!force && failures_.count(now_us) < static_cast<std::size_t>(cfg_.threshold)) {
        return;
      }
    }
    // A failure while probing reopens at once: the target is still sick.
    state_ = State::kOpen;
    opened_at_us_ = now_us;
    failures_.clear();
  }

  /// A success. Probing: the streak grows and closes the detector at
  /// `close_after`. Open: probing starts with a streak of 1 (an op issued
  /// before the detector opened).
  void record_success() {
    if (state_ == State::kOpen) {
      state_ = State::kProbing;
      streak_ = 1;
    } else if (state_ == State::kProbing && ++streak_ >= cfg_.close_after) {
      state_ = State::kClosed;
      failures_.clear();
    }
  }

  /// Moves an open detector to probing (streak 0) once the dwell has
  /// passed since it opened. True on that edge.
  bool probe_due(double now_us) {
    if (state_ != State::kOpen || now_us - opened_at_us_ < cfg_.dwell_us) return false;
    state_ = State::kProbing;
    streak_ = 0;
    return true;
  }

 private:
  Config cfg_;
  metrics::SlidingWindowCounter failures_;
  State state_ = State::kClosed;
  double opened_at_us_ = 0.0;
  int streak_ = 0;
};

}  // namespace clampi

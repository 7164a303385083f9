// Get-trace recording and replay.
//
// A Trace captures the cache-relevant event stream of an application
// window — gets (target, displacement, size), flushes and invalidations —
// in a simple line-oriented text format. Traces can be replayed
//   - against a CacheCore alone (offline policy studies: evaluate |I_w|,
//     |S_w|, eviction scores, adaptivity on a recorded workload without
//     re-running the application), or
//   - against a live CachedWindow (to reproduce timing).
//
// Format (one event per line):
//   g <target> <disp> <bytes>     get_c
//   f <target>                    flush(target)
//   F                             flush_all
//   I                             invalidate
//   x <target> <disp> <bytes>     injected fault observed (annotation)
//   r <target> <attempt> <backoff_ns>  retry after a transient fault
//   c <target> <disp> <bytes>     corruption/staleness detected and healed
//   b <state>                     breaker transition (0 closed, 1 open,
//                                 2 half-open)
//   h <target> <state>            per-target health transition (0 healthy,
//                                 2 quarantined, 3 probing; 1, the
//                                 retired SUSPECT state, is no longer
//                                 emitted but still loads)
//
// The x/r/c/b/h lines are annotations emitted by the resilience and
// integrity layers: replay skips them (the injector, if any, re-creates
// faults deterministically), but they make post-mortem analysis of a
// faulty run possible.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "clampi/cache.h"
#include "clampi/stats.h"
#include "clampi/window.h"

namespace clampi::trace {

struct Event {
  enum class Kind : std::uint8_t {
    kGet,
    kFlush,
    kFlushAll,
    kInvalidate,
    kFault,
    kRetry,
    kCorruption,
    kBreaker,
    kHealth,
  };
  Kind kind = Kind::kGet;
  std::int32_t target = 0;  ///< kBreaker: the new state; kCorruption: -1 = scrub
  std::uint64_t disp = 0;   ///< kRetry: the attempt number (1-based);
                            ///< kHealth: the new HealthState
  std::uint64_t bytes = 0;  ///< kRetry: the backoff charged, in nanoseconds
};

struct Trace {
  std::vector<Event> events;

  void add_get(int target, std::uint64_t disp, std::uint64_t bytes) {
    events.push_back({Event::Kind::kGet, target, disp, bytes});
  }
  void add_flush(int target) { events.push_back({Event::Kind::kFlush, target, 0, 0}); }
  void add_flush_all() { events.push_back({Event::Kind::kFlushAll, 0, 0, 0}); }
  void add_invalidate() { events.push_back({Event::Kind::kInvalidate, 0, 0, 0}); }
  void add_fault(int target, std::uint64_t disp, std::uint64_t bytes) {
    events.push_back({Event::Kind::kFault, target, disp, bytes});
  }
  void add_retry(int target, std::uint64_t attempt, std::uint64_t backoff_ns) {
    events.push_back({Event::Kind::kRetry, target, attempt, backoff_ns});
  }
  void add_corruption(int target, std::uint64_t disp, std::uint64_t bytes) {
    events.push_back({Event::Kind::kCorruption, target, disp, bytes});
  }
  void add_breaker(int state) {
    events.push_back({Event::Kind::kBreaker, state, 0, 0});
  }
  void add_health(int target, int state) {
    events.push_back(
        {Event::Kind::kHealth, target, static_cast<std::uint64_t>(state), 0});
  }

  std::size_t num_gets() const;
  /// Number of distinct (target, disp) keys among the gets.
  std::size_t distinct_keys() const;
  /// Sum of get sizes.
  std::uint64_t total_bytes() const;
  /// Largest single get.
  std::uint64_t max_bytes() const;

  void save(std::ostream& os) const;
  static Trace load(std::istream& is);  ///< throws ContractError on bad input
};

/// Record every cached-window operation while forwarding it. The adaptor
/// mirrors the CachedWindow read/sync surface so applications swap types,
/// not call sites.
class RecordingWindow {
 public:
  RecordingWindow(CachedWindow& win, Trace& out) : win_(&win), out_(&out) {
    win_->record_faults_to(out_);  // mirror x/r annotations into the trace
  }
  ~RecordingWindow() {
    if (win_ != nullptr) win_->record_faults_to(nullptr);
  }
  RecordingWindow(const RecordingWindow&) = delete;
  RecordingWindow& operator=(const RecordingWindow&) = delete;

  void get(void* origin, std::size_t bytes, int target, std::size_t disp) {
    out_->add_get(target, disp, bytes);
    win_->get(origin, bytes, target, disp);
  }
  void flush(int target) {
    out_->add_flush(target);
    win_->flush(target);
  }
  void flush_all() {
    out_->add_flush_all();
    win_->flush_all();
  }
  void invalidate() {
    out_->add_invalidate();
    win_->invalidate();
  }
  CachedWindow& window() { return *win_; }

 private:
  CachedWindow* win_;
  Trace* out_;
};

/// Offline replay against a bare CacheCore (no runtime, no data): every
/// inserted entry is immediately materialized at the flush that would
/// complete it. Returns the final statistics.
Stats replay_core(const Trace& t, CacheCore& core);

/// Live replay against a CachedWindow (origin data goes to a scratch
/// buffer sized for the largest get). Returns the virtual time spent.
double replay_window(const Trace& t, CachedWindow& win);

}  // namespace clampi::trace

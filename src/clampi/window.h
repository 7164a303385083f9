// CachedWindow: a caching-enabled MPI window (paper Sec. III-A).
//
// Wraps an rmasim window and routes every get through the CLaMPI cache:
//   - full hits on CACHED entries are served by one local memcpy and
//     never touch the network;
//   - hits on PENDING entries register a copy-out that is performed when
//     the epoch's data has arrived (flush);
//   - partial hits copy the cached prefix and fetch only the tail;
//   - misses issue the remote get into the user buffer and register a
//     copy-in (user buffer -> S_w) executed at flush, because RDMA cannot
//     deliver one payload to two destinations (Sec. II).
//
// Operational modes: transparent (invalidate at every epoch closure),
// always-cache (never invalidate) and user-defined (explicit
// clampi_invalidate), Sec. III-A. Epoch-closure events are flush,
// flush_all, unlock, unlock_all and fence; in transparent mode a
// per-target flush must close the whole epoch, so it completes all
// targets (documented deviation: MPI's flush is per-target, but a
// transparently-invalidated cache cannot keep entries whose data is still
// in flight).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "clampi/adaptive.h"
#include "clampi/cache.h"
#include "clampi/config.h"
#include "clampi/detector.h"
#include "clampi/health.h"
#include "clampi/info.h"
#include "clampi/shedder.h"
#include "clampi/stats.h"
#include "rt/engine.h"

namespace clampi {

/// The circuit breaker's names for its FailureDetector's states, in the
/// same order; the values are the trace's `b` codes.
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState s);

namespace trace {
struct Trace;  // clampi/trace.h; fault/retry annotations are mirrored there
}

class CachedWindow {
 public:
  /// Wrap an existing window. `cfg` plays the role of the MPI_Info keys
  /// passed at window creation (Sec. III-A).
  CachedWindow(rmasim::Process& p, rmasim::Window win, const Config& cfg);

  /// MPI-flavoured construction: configuration through info keys
  /// ("clampi_mode", "clampi_storage_bytes", ... — see clampi/info.h).
  CachedWindow(rmasim::Process& p, rmasim::Window win, const Info& info)
      : CachedWindow(p, win, config_from_info(info)) {}

  /// Collectively allocate a window of `bytes` and wrap it.
  static CachedWindow allocate(rmasim::Process& p, std::size_t bytes, void** base,
                               const Config& cfg);

  CachedWindow(CachedWindow&&) = default;
  CachedWindow& operator=(CachedWindow&&) = default;

  // --- cached one-sided reads (get_c) ---
  /// Read [disp, disp + bytes) of `target` through the cache; the gates
  /// it passes are listed in docs/INTERNALS.md "The window get sequence".
  void get(void* origin, std::size_t bytes, int target, std::size_t disp);

  /// Per-operation cache bypass (Sec. III-A discusses it as a possible
  /// MPI extension: "a special get call, allowing the user to use/bypass
  /// the caching on a per-operation basis"). Never touches I_w or S_w.
  void get_nocache(void* origin, std::size_t bytes, int target, std::size_t disp);

  /// Uncached write (puts are not cached: the epoch model forbids the
  /// read-after-write patterns that would profit, Sec. II).
  void put(const void* origin, std::size_t bytes, int target, std::size_t disp);

  // --- synchronization / epochs ---
  void flush(int target);
  void flush_all();
  void lock(rmasim::LockType type, int target);
  void unlock(int target);
  void lock_all();
  void unlock_all();
  void fence();

  /// CLAMPI_Invalidate (user-defined mode, Sec. III-A). Completes any
  /// outstanding epoch data first.
  void invalidate();

  // --- introspection ---
  const Stats& stats() const { return core_->stats(); }
  AccessType last_access() const { return last_access_; }
  const PhaseBreakdown& last_phases() const { return last_phases_; }
  std::size_t index_entries() const { return core_->index_entries(); }
  std::size_t storage_bytes() const { return core_->storage_bytes(); }
  rmasim::Window raw() const { return win_; }
  rmasim::Process& process() { return *p_; }
  CacheCore& core() { return *core_; }
  const CacheCore& core() const { return *core_; }

  /// Free the underlying window (collective).
  void free_window();

  /// Mirror fault and retry events into `t` as `x`/`r` annotations
  /// (trace::RecordingWindow installs itself here). nullptr disables.
  void record_faults_to(trace::Trace* t) { fault_trace_ = t; }

  /// One completed (non-throwing) get(), as the cache classified
  /// it. The chaos oracle (docs/CHAOS.md) taps this to know, per get,
  /// whether the bytes in the user buffer came from the cache, the
  /// network, or the bounded-staleness degraded path — the information it
  /// needs to pick the right ground-truth check. Delivered after the data
  /// is in place (including a shadow-verify re-serve), never on a get
  /// that threw.
  struct GetObservation {
    int target = -1;
    std::uint64_t disp = 0;
    std::size_t bytes = 0;
    AccessType type = AccessType::kDirect;
    bool degraded = false;         ///< served via the bounded-staleness path
    double degraded_age_us = 0.0;  ///< staleness of that serve (0 otherwise)
    bool healed = false;           ///< sampled checksum caught + healed rot
  };
  using GetObserver = std::function<void(const GetObservation&)>;
  /// Install (or with an empty function clear) the per-get observer.
  /// The observer must not call back into this window.
  void observe_gets(GetObserver obs) { get_observer_ = std::move(obs); }

  // --- survivability introspection (docs/FAULTS.md §6) ---
  /// Typed per-target health snapshot: lets a workload drop a dead or
  /// quarantined rank from its communication pattern instead of aborting
  /// on the first OpFailedError.
  TargetStatus target_status(int target) const;
  /// True when the previous get() was served as a bounded-staleness
  /// degraded read; last_degraded_age_us() is that serve's staleness.
  bool last_was_degraded() const { return last_degraded_; }
  double last_degraded_age_us() const { return last_degraded_age_us_; }

  /// Every health state transition of a target (both op-driven edges and
  /// epoch-boundary quarantine promotions), delivered after the stats /
  /// trace mirroring. The KV layer's hinted handoff registers here to
  /// learn when a PROBING target recovered to HEALTHY and its queued
  /// hints can drain (docs/KV.md "Repair & convergence"). The observer
  /// may fire in the middle of an operation on this window, so it must
  /// only record state — never call back into the window.
  using HealthObserver = std::function<void(int target, HealthState state)>;
  /// Install (or with an empty function clear) the transition observer.
  void observe_health(HealthObserver obs) { health_observer_ = std::move(obs); }
  /// Feed one op outcome into the health machine and mirror any state
  /// transition into Stats and the trace. The cached get path records its
  /// outcomes here too (issue_network_get), but the KV layer's uncached
  /// reads and slot writes go straight to the engine — without this,
  /// their successes against a PROBING target would never count as
  /// probes and a recovered rank could stay half-open forever.
  void record_target_outcome(int target, bool success, bool fatal = false);

  /// Crash-restart wipe (docs/DURABILITY.md): drop the volatile
  /// client-side state a wiped-memory crash of *this* rank destroys. The
  /// engine has already zeroed the rank's exposed window segments and
  /// discarded its in-flight completions (the runtime-level wipe); this
  /// clears what lives in host memory above the runtime: the cache
  /// contents (index + storage + pending copy bookkeeping), the per-target
  /// health machine, and the tail-latency state (AIMD shedder + deadline
  /// overrides). Stats deliberately survive — they model external
  /// observability, not the crashed rank's memory.
  void reset_after_crash();

  // --- tail-latency robustness (docs/FAULTS.md §8) ---
  /// Override the per-op deadline with an absolute virtual-time instant:
  /// subsequent gets check their retries/backoffs against it instead of
  /// opening a fresh `op_deadline_us` budget each. The KV layer brackets
  /// a whole replica walk with this so the budget spans *all* replicas,
  /// shrinking across fall-throughs. Negative clears the override.
  void set_deadline_us(double abs_us) { extern_deadline_us_ = abs_us; }
  /// True when the AIMD shedder says background work (anti-entropy,
  /// read-repair, hint drains) must be skipped this round.
  bool shed_background() const {
    return shedder_ != nullptr && shedder_->shedding_background();
  }
  /// Admitted fraction of the shedder (1 when shedding is off).
  double admit_fraction() const {
    return shedder_ == nullptr ? 1.0 : shedder_->admit_fraction();
  }
  /// Modelled wait a flush of `target` would cost right now (0 when no
  /// ops are outstanding). The hedging layer compares this against its
  /// latency quantile to decide whether to race a backup replica.
  double outstanding_wait_us(int target) const {
    return p_->pending_completion_us(target, win_);
  }
  /// Abandon the outstanding ops against `target`: discard their engine
  /// completions without waiting and drop the cache bookkeeping that
  /// expected their data (the losing side of a hedged read must not
  /// populate the cache with bytes whose modelled arrival never came).
  void abandon_target(int target);

  // --- integrity guard introspection (docs/INTEGRITY.md) ---
  /// Cumulative virtual time the breaker spent open (half-open not
  /// included); 0 when no breaker is configured.
  double breaker_time_in_open_us() const;

 private:
  struct PendingOp {
    enum class Kind { kCopyIn, kCopyOut } kind;
    std::uint32_t entry;
    int target;
    std::byte* user;        // source (copy-in) or destination (copy-out)
    std::size_t entry_off;  // offset inside the entry (copy-in tails)
    std::size_t bytes;
    double issued_us;       // copy-ins: virtual time the fetch was issued
                            // (becomes the entry's freshness stamp)
  };

  void serve_cached(void* origin, std::uint32_t entry, std::size_t bytes);
  void handle_result(const CacheCore::Result& res, void* origin, std::size_t bytes,
                     int target, std::size_t disp);
  /// Fetch [disp, disp + bytes) of `target` into `origin` under the retry
  /// policy: transient fault::OpFailedErrors back off in virtual time and
  /// re-issue up to max_retries times (within the epoch budget); anything
  /// else propagates.
  void issue_network_get(void* origin, std::size_t bytes, int target, std::size_t disp);
  /// Serve a get from a CACHED entry because the target is down
  /// (quarantined, dead or degraded) as a bounded-staleness degraded read
  /// (cfg.degraded_reads; any mode). False: proceed normally. See
  /// docs/FAULTS.md §6 for the mode/policy matrix.
  bool try_degraded_read(void* origin, std::size_t bytes, int target, std::size_t disp);
  /// The target is currently unreachable: quarantined by the health
  /// monitor, or dead/degraded per the installed fault injector.
  /// Stragglers (slow_rank epochs) are deliberately NOT down: a slow
  /// rank is alive and correct, so it never triggers degraded serves or
  /// quarantine on its own (docs/FAULTS.md §8).
  bool target_down(int target) const;
  /// Lazy mirror of the engine's lazy crash wipe (docs/DURABILITY.md):
  /// when `target`'s restart count has advanced since the last access,
  /// every cached entry for it predates the memory wipe and must not be
  /// served — not even through the degraded path, which is why this runs
  /// before try_degraded_read. Drops the stale CACHED entries (counted
  /// in Stats::crash_invalidations). PENDING entries are left to their
  /// epoch: their eagerly-fetched pre-crash bytes are the issue-time
  /// value the op promised. While any pending op for the target is in
  /// flight the restart stays unacknowledged, so the entries those ops
  /// commit are swept on the next access after the epoch closes.
  void crash_epoch_check(int target);
  /// Raise the typed failure of a get refused before (or instead of)
  /// reaching the network: quarantine fast-fail, spent deadline, shedding.
  [[noreturn]] void throw_get_failure(fault::FailureKind kind, int target,
                                      std::size_t disp, std::size_t bytes) const;
  /// Resolve the absolute deadline the op starting now runs under: the
  /// KV-installed override if one is set, else a fresh op_deadline_us
  /// budget, else none (-1).
  void begin_op_deadline();
  /// Foreground admission gate: throws kShed when the AIMD shedder
  /// refuses the op (before any cache or network work).
  void shed_admission(int target, std::size_t disp, std::size_t bytes);
  /// Mirror a transition of `target` to `after` (stats counters + trace
  /// `h` annotation). Callers only invoke on an actual change.
  void health_note(int target, HealthState after);
  /// Epoch boundary: reset per-target backoff pools and promote
  /// dwell-elapsed quarantines to PROBING (mirroring transitions).
  void health_epoch_close();
  /// Undo the cache bookkeeping of an access whose network fetch failed.
  void rollback_failed(const CacheCore::Result& res, std::size_t pending_mark);
  /// A flush raised kRankDead: discard what the dead target will never
  /// deliver; with `all_taken` the engine cleared every target's pending
  /// completions, so materialize the survivors (their data arrived).
  void on_flush_failure(const fault::OpFailedError& err, bool all_taken);
  /// The one completion step of flush, flush_all, unlock and invalidate:
  /// complete the outstanding ops against `target` (< 0: every target). A
  /// failure goes through on_flush_failure before it propagates.
  void complete(int target);
  /// Run pending copy-ins/outs; target < 0 means all targets.
  void process_pending(int target);
  /// Transparent-mode epoch invalidation. With degraded reads enabled,
  /// entries of currently-down targets survive (a down target cannot be
  /// accepting writes; the staleness bound caps how long they serve).
  void transparent_invalidate();
  void close_epoch(bool all_complete);
  void maybe_adapt();

  // --- integrity guard (docs/INTEGRITY.md) ---
  /// Breaker state; kClosed when no breaker is configured
  /// (breaker_failure_threshold == 0).
  BreakerState breaker_state() const {
    return breaker_ ? static_cast<BreakerState>(breaker_->state()) : BreakerState::kClosed;
  }
  /// Breaker routing for one get. True: the caller must serve this get
  /// pass-through (direct network fetch, no cache involvement); the
  /// pass-through counter and last_access_ are already updated.
  bool breaker_says_passthrough();
  /// Record a failure event (corruption / give-up) and mirror any state
  /// transition into Stats and the trace.
  void breaker_failure();
  /// A cache-routed get completed cleanly; in half-open this counts
  /// toward reclosing. The breaker never reports a success while open.
  void breaker_probe_success();
  /// Mirror a state change since `before` into Stats and the trace.
  void breaker_note(BreakerState before);
  /// A self-heal happened during access(): trace annotation + breaker.
  void note_heal(int target, std::size_t disp, std::size_t bytes);
  /// Sampled double-check of a full hit against a direct remote get
  /// (catches silent staleness). Quarantines + re-serves on mismatch.
  void shadow_verify(void* origin, std::size_t bytes, int target, std::size_t disp,
                     std::uint32_t entry);
  /// Epoch-boundary integrity work: injected storage corruption (bit
  /// flips of cached bytes) followed by one bounded scrub slice.
  void integrity_epoch_tasks();
  /// Deliver a GetObservation for a completed get.
  void notify_get(int target, std::size_t disp, std::size_t bytes, bool degraded,
                  bool healed);

  rmasim::Process* p_;
  rmasim::Window win_;
  Config cfg_;
  std::unique_ptr<CacheCore> core_;
  AdaptiveTuner tuner_;
  std::vector<PendingOp> pending_;
  std::uint64_t epoch_ = 0;
  Stats adapt_base_{};
  AccessType last_access_ = AccessType::kDirect;
  PhaseBreakdown last_phases_{};
  util::Xoshiro256 retry_rng_;
  HealthMonitor health_;
  bool last_degraded_ = false;
  double last_degraded_age_us_ = 0.0;
  double epoch_open_us_ = 0.0;  ///< virtual time the current epoch opened:
                                ///< entries stamped earlier are cross-epoch
                                ///< survivors (transparent degraded reads)
  trace::Trace* fault_trace_ = nullptr;
  GetObserver get_observer_;        // chaos-oracle tap (empty = disabled)
  HealthObserver health_observer_;  // KV hinted-handoff tap (empty = disabled)
  std::unique_ptr<FailureDetector> breaker_;  // null unless configured
  std::uint64_t shadow_tick_ = 0;            // shadow_verify_every_n sampling
  std::vector<std::byte> shadow_buf_;        // scratch for shadow fetches
  std::unique_ptr<LoadShedder> shedder_;     // null unless load_shedding
  double extern_deadline_us_ = -1.0;  // KV-installed walk-wide deadline
  double deadline_abs_ = -1.0;        // deadline of the op in flight (< 0 = none)
  std::vector<int> crash_restarts_seen_;  // per-target restarts swept
                                          // (crash_epoch_check; lazily sized)
  int breaker_probe_tick_ = 0;    // half-open: 1 of every probe_every_n probes
  double breaker_open_us_ = 0.0;  // time open, over finished open spells
};

/// Paper-style spelling of the user-defined-mode invalidation call.
inline void clampi_invalidate(CachedWindow& win) { win.invalidate(); }

}  // namespace clampi

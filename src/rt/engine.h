// rmasim — a simulated MPI-3 RMA runtime.
//
// This is the substrate substituting for foMPI/Piz Daint in the
// reproduction (see DESIGN.md). Each MPI rank is an OS thread; a
// cooperative scheduler hands out batons and switches ranks only at
// synchronization points (barriers, locks, collectives, window
// creation). One-sided operations execute eagerly on the shared in-process
// memory — legal because the MPI-3 epoch model forbids conflicting
// accesses within an epoch — while their *completion time* is taken from
// the network cost model, so `flush` exhibits the real overlap behaviour
// of a nonblocking get (paper Sec. I-A, Fig. 8).
//
// Scheduling (docs/INTERNALS.md §1): a single baton, so exactly one rank
// runs at a time, except while the run cannot observe how ranks
// interleave. That holds when at least one window is live and every live
// window is read-only (created from const memory), and no injector,
// op_observer or serialize_injection is configured. Then up to
// min(nranks, usable CPUs) ranks run at once, each on its own CPU, so a
// measured clock still charges each rank only its own compute. The mode
// changes only at window collectives, where every rank is parked.
//
// Supported surface (MPI names translated to C++), all over the world
// communicator; only what a layer above calls (tests/knob_audit.py):
//   win_allocate / win_create / win_free              (collective)
//   get / put (contiguous byte ranges)                MPI_Get / MPI_Put
//   flush / flush_all                                 MPI_Win_flush(_all)
//   lock / unlock / lock_all / unlock_all             passive target epochs
//   fence                                             active target epoch
//   barrier / allreduce_f64                           collectives
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "fault/injector.h"
#include "netmodel/model.h"
#include "rt/clock.h"
#include "util/align.h"
#include "util/error.h"

namespace clampi::rmasim {

class Engine;
class Process;

/// Opaque window handle; valid engine-wide after collective creation.
struct Window {
  int id = -1;
  bool valid() const { return id >= 0; }
};

enum class LockType { kShared, kExclusive };

/// Reduction operators for allreduce.
enum class ReduceOp { kSum, kMax, kMin };

/// CPUs this process may run on (its affinity mask): the most ranks the
/// scheduler lets run at once.
int usable_cpus();

/// Per-rank facade handed to the rank main function. All methods must be
/// called from the owning rank's thread.
class Process {
 public:
  int rank() const { return rank_; }
  int nranks() const;
  double now_us() const;

  /// Advance virtual time by a modelled compute phase.
  void compute_us(double us);

  /// Charge a modelled local-DRAM copy cost. No-op under the measured
  /// policy (the real memcpy is timed there); used by CLaMPI so cache
  /// copies cost the same under both policies.
  void charge_local_copy(std::size_t bytes);

  // --- Window management (collective over every rank) ---
  /// Allocate `bytes` of window memory owned by the runtime. Target ranks
  /// of all RMA calls on the window are world ranks.
  Window win_allocate(std::size_t bytes, void** base);
  /// Expose caller-owned memory.
  Window win_create(void* base, std::size_t bytes);
  /// Expose caller-owned memory that nothing writes through the window.
  /// Every rank must pass const memory. put and an exclusive lock on the
  /// window throw ContractError. While every live window is read-only,
  /// ranks may run concurrently (see the header comment).
  Window win_create(const void* base, std::size_t bytes);
  void win_free(Window w);

  std::size_t win_size(Window w, int target) const;
  /// Direct pointer to a target's window memory (simulation backdoor used
  /// by tests and by local fast paths; not part of the MPI surface).
  std::byte* win_raw(Window w, int target) const;

  // --- One-sided operations (nonblocking; complete at flush/unlock/fence) ---
  void get(void* origin, std::size_t bytes, int target, std::size_t disp, Window w);
  void put(const void* origin, std::size_t bytes, int target, std::size_t disp, Window w);

  // --- Completion / epochs ---
  /// Modelled completion time of the outstanding operations against
  /// `target` on `w`, WITHOUT waiting (no clock advance, pending state
  /// untouched); 0 when nothing is outstanding. Simulation backdoor, not
  /// part of the MPI surface: a hedging layer peeks how long a flush
  /// *would* block to decide whether to race a backup request
  /// (docs/KV.md "Hedged reads").
  double pending_completion_us(int target, Window w) const;
  /// Drop the outstanding operations against `target` on `w` without
  /// waiting for them, returning the modelled completion time they would
  /// have had (0 if none). The data already moved eagerly at issue; this
  /// only discards the completion bookkeeping — the simulation analogue
  /// of abandoning a request whose response nobody will wait for. A
  /// subsequent flush of the target succeeds trivially.
  double discard_pending(int target, Window w);
  void flush(int target, Window w);
  void flush_all(Window w);
  void lock(LockType type, int target, Window w);
  void unlock(int target, Window w);
  void lock_all(Window w);
  void unlock_all(Window w);
  /// Active-target fence: collective; completes all pending operations.
  void fence(Window w);

  // --- Collectives (over every rank) ---
  void barrier();
  void allreduce_f64(const double* src, double* dst, std::size_t n, ReduceOp op);

  /// Yield the baton (lets lower-virtual-time ranks run). Rarely needed by
  /// applications; exposed for tests.
  void yield();

  // --- Crash-restart support (docs/FAULTS.md §9, docs/DURABILITY.md) ---
  /// Declare that this rank runs an explicit recovery protocol after each
  /// of its crash restarts (kv servers do). Ops targeting a declared rank
  /// fast-fail with FailureKind::kRecovering between a restart and the end
  /// of the rank's begin/end_crash_recovery bracket, instead of observing
  /// lazily-wiped (zeroed) window memory.
  void declare_crash_recovery();
  /// Crash restarts of `world_rank` whose restart instant has passed
  /// (0 without an injector). The difference against crash_wipes_applied
  /// is the number of restarts whose wipe is still pending.
  int crash_restarts_due(int world_rank) const;
  /// Crash restarts of `world_rank` already folded into window memory.
  int crash_wipes_applied(int world_rank) const;
  /// True while ops targeting `world_rank` fast-fail with kRecovering
  /// (the rank restarted wiped and has not finished its recovery).
  bool crash_recovering(int world_rank) const;
  /// Called by the crashed rank itself when it notices its restart:
  /// applies the memory wipe (zero this rank's segment of every window,
  /// drop its in-flight ops) unless an op targeting it already wiped
  /// lazily, and marks the rank RECOVERING. Returns restarts folded in.
  int begin_crash_recovery();
  /// Recovery finished: ops targeting this rank flow again.
  void end_crash_recovery();

  /// Installed fault injector, or nullptr (perfect network). Exposed so
  /// resilience layers (CLaMPI degraded reads) can ask about rank health.
  const fault::Injector* fault_injector() const;

 private:
  friend class Engine;
  Process(Engine* e, int rank) : engine_(e), rank_(rank) {}
  const net::Model& model() const;
  Engine* engine_;
  int rank_;
};

/// The simulation engine: owns ranks, scheduler state, windows and
/// collective staging areas.
class Engine {
 public:
  struct Config {
    int nranks = 2;
    std::shared_ptr<const net::Model> model;  ///< required
    TimePolicy time_policy = TimePolicy::kModeled;
    /// Model NIC injection serialization: transfers touching the same
    /// target rank queue behind each other instead of overlapping
    /// perfectly (a node has one NIC). Off by default — the paper's
    /// microbenchmarks are two-rank and uncontended; turn it on for
    /// many-to-one studies.
    bool serialize_injection = false;
    /// Optional fault injector (src/fault): one-sided operations consult
    /// it for transient failures, latency perturbations, degraded epochs
    /// and rank death. Null (the default) means a perfect network; an
    /// injector with an all-zero Plan is guaranteed to produce
    /// bit-identical virtual-time results to null.
    std::shared_ptr<fault::Injector> injector;
    /// Optional per-operation observer: invoked once for every one-sided
    /// data operation (get / put) with the operation descriptor and
    /// whether it failed, and for flushes that fail against a dead,
    /// partitioned or recovering target. Runs on the issuing rank's
    /// thread. Installing one keeps the single baton for the whole run,
    /// read-only windows included, so observers see a serialized
    /// operation stream and need no locking; they must not call back
    /// into Process. The chaos semantics oracle (src/chaos) uses this to
    /// assert, e.g., that cache hits issue no network operations.
    std::function<void(const fault::OpDesc&, bool failed)> op_observer;
  };

  explicit Engine(Config cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run `rank_main` on every rank to completion. Rethrows the first
  /// exception escaping any rank. Single-shot.
  void run(const std::function<void(Process&)>& rank_main);

  int nranks() const { return cfg_.nranks; }
  const net::Model& model() const { return *cfg_.model; }

  /// After run(): per-rank final virtual times and their maximum.
  double final_time_us(int rank) const;
  double max_final_time_us() const;

 private:
  friend class Process;

  enum class RunState { kReady, kRunning, kBlocked, kDone };

  // Collective staging. `arrived` counts ranks in the current collective;
  // the last arriver performs data movement and releases all.
  struct CollectiveCtx {
    int arrived = 0;
    std::vector<const void*> src;
    std::vector<void*> dst;
    std::vector<int> waiters;
    double max_arrival_us = 0.0;
    int kind = 0;  // debugging: ensure all ranks run the same collective
  };

  // Per-rank pending-completion times, per window, per target.
  struct PendingCompletions {
    // max completion time per (window id -> per-target vector)
    std::vector<std::vector<double>> per_window_target;
    void ensure(std::size_t win_id, int nranks);
    void note(std::size_t win_id, int target, double t, int nranks);
    double take_target(std::size_t win_id, int target);
    double take_all(std::size_t win_id);
    /// take_target without the clearing: read the completion time.
    double peek_target(std::size_t win_id, int target) const;
  };

  // Everything the one-sided hot path writes for one rank. Cache-line
  // aligned: ranks that run concurrently must not share a line.
  struct alignas(util::kCacheLineBytes) RankCtx {
    int rank = -1;
    VirtualClock clock;
    PendingCompletions pending;
    RunState state = RunState::kReady;  // guarded by mu_
    std::condition_variable cv;
    std::thread thread;
    double final_time_us = 0.0;

    explicit RankCtx(TimePolicy p) : clock(p) {}
  };

  struct LockState {
    int shared_holders = 0;
    int exclusive_holder = -1;  // rank or -1
    std::vector<int> waiters;   // ranks blocked on this lock
  };

  // Every per-rank vector is indexed by target rank.
  struct WindowObj {
    bool alive = false;
    bool read_only = false;  ///< created from const memory
    std::vector<std::byte*> base;
    std::vector<std::size_t> size;
    std::vector<bool> owned;  // allocated by win_allocate -> freed by us
    std::vector<LockState> locks;  // per target
  };

  // One rank's contribution to a window-creation collective, written by
  // the rank before it arrives. Plain fields, not a packed vector<bool>:
  // ranks that run concurrently write their own entries at once.
  struct WinStaging {
    void* base = nullptr;
    std::size_t bytes = 0;
    bool owned = false;
    bool read_only = false;
    Window result;
  };

  // --- scheduler ---
  void thread_main(int rank, const std::function<void(Process&)>& rank_main);
  // Callers hold mu_. Blocks `me` with `state` and hands its baton on;
  // returns when `me` is running again.
  void switch_out(std::unique_lock<std::mutex>& lk, RankCtx& me, RunState state);
  // Hand every free baton to a ready rank, lowest virtual time first, and
  // abort the run if nothing runs while ranks are blocked (caller holds
  // mu_).
  void schedule_next(std::unique_lock<std::mutex>& lk);
  // Recount the batons after a window collective changed what ranks can
  // observe of each other (caller holds mu_, every rank is parked).
  void update_batons();
  void check_abort(RankCtx& me);

  // --- internals used by Process ---
  RankCtx& ctx(int rank) { return *ranks_[rank]; }
  WindowObj& window(Window w);
  const WindowObj& window(Window w) const;
  void validate_target(const WindowObj& wo, int target, std::size_t disp,
                       std::size_t bytes) const;

  // Generic collective rendezvous over every rank: blocks until all ranks
  // arrived; the last arriver runs `complete` (with mu_ held) and
  // everyone resumes at max(arrival)+cost_us. Staging arrays are indexed
  // by rank.
  void collective(RankCtx& me, int kind, const void* src, void* dst,
                  const std::function<void(CollectiveCtx&)>& complete,
                  const std::function<double()>& cost_us);

  Window win_register(int rank, void* base, std::size_t bytes, bool owned, bool read_only);

  // --- The one-sided op protocol (docs/INTERNALS.md). Every data op runs
  // admit, moves its data, then runs complete; each op keeps only its
  // bounds checks, its data movement and the transfer it charges. ---
  /// Run the crash gate, then ask the injector for a verdict (in that
  /// order: on_op draws from the RNG). A refused op is charged its issue
  /// overhead and thrown by fail_op; an admitted one is reported to
  /// op_observer before it moves any data. The verdict perturbs the
  /// transfer at completion.
  fault::Injector::Verdict admit(int origin, fault::OpKind kind, int target, std::size_t disp,
                                 std::size_t bytes);
  /// Charge the issue overhead and note when the admitted op's perturbed
  /// transfer of `xfer_us` completes, for the next flush; leaves the runtime.
  void complete(int origin, Window w, int target, const fault::Injector::Verdict& fv,
                std::size_t bytes, double xfer_us);
  /// Report the failed op `d` to op_observer, leave the runtime and throw.
  [[noreturn]] void fail_op(int origin, const fault::OpDesc& d, fault::FailureKind kind);
  /// Why rank `wt` cannot confirm `origin`'s pending ops at `now_us`
  /// (dead, partitioned away, or restarted and recovering), or nullopt.
  std::optional<fault::FailureKind> unreachable(const fault::Injector& inj, int origin,
                                                int wt, double now_us);

  // With serialize_injection: per-rank time at which the rank's NIC
  // becomes free again. Guarded by the baton (serialize_injection keeps
  // a single running rank).
  std::vector<double> nic_free_us_;

  // --- Crash-restart bookkeeping (docs/FAULTS.md §9). All three are
  // guarded by the baton (an injector keeps a single running rank), like
  // nic_free_us_. ---
  /// Consulted by every one-sided op and flush with pending work against
  /// rank `wt`: applies any due lazy memory wipe and returns true
  /// when the op must fast-fail with FailureKind::kRecovering.
  bool crash_gate(int wt, double now_us);
  /// Zero `wt`'s segment of every live writable window and drop its
  /// in-flight ops.
  void apply_crash_wipe(int wt);
  std::vector<int> crash_wipes_;         // restarts folded into memory
  std::vector<char> crash_recovering_;   // inside a begin/end recovery bracket
  std::vector<char> crash_owner_;        // rank declared explicit recovery

  Config cfg_;
  std::mutex mu_;
  std::vector<std::unique_ptr<RankCtx>> ranks_;
  std::vector<std::unique_ptr<WindowObj>> windows_;
  CollectiveCtx coll_;
  std::condition_variable all_done_cv_;
  // Ranks that may run at once without the run observing their order:
  // min(nranks, usable CPUs), or 1 when an injector, op_observer or
  // serialize_injection is configured.
  int max_batons_ = 1;
  int batons_ = 1;  // max_batons_ while ranks may overlap, else 1
  int done_count_ = 0;
  bool started_ = false;
  bool aborted_ = false;
  std::exception_ptr first_error_;

  // staging used by window creation collectives, per rank
  std::vector<WinStaging> wincreate_;
};

/// Error used internally to unwind rank stacks when another rank failed.
struct AbortError {};

}  // namespace clampi::rmasim

// Fault-injection & resilience subsystem — shared vocabulary.
//
// rmasim's network is perfect by default: every RMA operation succeeds
// and costs exactly what the LogGP model says. This subsystem lets a run
// install a deterministic, seed-reproducible schedule of perturbations
// (fault::Plan + fault::Injector, consulted by the engine's one-sided
// operations) so that CLaMPI's behaviour under degraded conditions —
// retries, backoff, degraded reads — becomes testable and benchmarkable.
//
// Failed operations surface as OpFailedError, a *recoverable* error type
// deliberately distinct from the fatal paths (util::ContractError for API
// misuse, rmasim::AbortError for cross-rank unwinding): callers such as
// CachedWindow catch it, back off in virtual time and retry, or serve the
// request from cache. An OpFailedError that nobody catches escapes the
// rank main function and aborts the run like any other exception.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace clampi::fault {

/// One-sided operation classes the injector distinguishes.
enum class OpKind : std::uint8_t {
  kGet,        ///< Process::get
  kPut,        ///< Process::put
  kGetBlocks,  ///< no longer emitted; kept while perfbench names it
  kFlush,      ///< flush / flush_all waiting on a dead target
};

const char* to_string(OpKind k);

/// Why an operation failed.
enum class FailureKind : std::uint8_t {
  kTransient,    ///< random drop from the plan's failure probability; a
                 ///< retry of the same operation may succeed
  kRankDead,     ///< the target rank passed its death instant; permanent
  kQuarantined,  ///< the health monitor quarantined the target: the op was
                 ///< fast-failed without touching the network (no retry
                 ///< until the target is re-probed; docs/FAULTS.md §6)
  kPartitioned,  ///< a network partition separates origin from target: every
                 ///< op on the pair fails until the partition epoch heals.
                 ///< Asymmetric (origin->target only) and distinct from rank
                 ///< death — the target is alive and other origins may still
                 ///< reach it (split brain; docs/FAULTS.md §7)
  kDeadline,     ///< the op's end-to-end virtual-time deadline budget ran
                 ///< out (Config::op_deadline_us) before a retry/backoff or
                 ///< replica walk could complete it; the target itself may
                 ///< be fine — retrying the same op is pointless, issuing a
                 ///< fresh one (with a fresh budget) is not
                 ///< (docs/FAULTS.md §8)
  kShed,         ///< the adaptive load shedder refused admission before any
                 ///< network work: sustained deadline misses pushed the
                 ///< window over its AIMD admission fraction, so the op
                 ///< fast-fails to protect the ops already in flight
                 ///< (docs/FAULTS.md §8)
  kRecovering,   ///< the target rank restarted after a crash (memory wiped)
                 ///< and is still replaying its journal: reads would observe
                 ///< zeroed or half-restored memory, so ops fast-fail until
                 ///< the rank finishes recovery and clears the RECOVERING
                 ///< state (docs/FAULTS.md §9, docs/DURABILITY.md). Not
                 ///< fatal for the health machine — the target is coming
                 ///< back, a later retry will succeed
};

const char* to_string(FailureKind k);

/// Descriptor of the failed operation, carried by OpFailedError so the
/// resilience layer can identify what to retry or degrade.
struct OpDesc {
  OpKind kind = OpKind::kGet;
  int origin = -1;        ///< world rank that issued the operation
  int target = -1;        ///< world rank of the target
  std::size_t disp = 0;   ///< target window displacement (0 for flushes)
  std::size_t bytes = 0;  ///< payload size (0 for flushes)
  double time_us = 0.0;   ///< virtual time at which the failure surfaced
};

/// Recoverable RMA operation failure (injected by a fault::Injector).
class OpFailedError : public std::runtime_error {
 public:
  OpFailedError(FailureKind failure, const OpDesc& op);

  FailureKind failure() const { return failure_; }
  const OpDesc& op() const { return op_; }
  /// Transient failures may succeed when re-issued; rank death, quarantine
  /// and partition verdicts repeat until external state changes, so an
  /// immediate retry is pointless.
  bool recoverable() const { return failure_ == FailureKind::kTransient; }

 private:
  FailureKind failure_;
  OpDesc op_;
};

}  // namespace clampi::fault

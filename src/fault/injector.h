// fault::Injector — turns a Plan into per-operation verdicts.
//
// The engine consults the injector once per one-sided operation (and per
// flush against a target with outstanding operations). The verdict says
// whether the operation fails and how its modelled transfer cost is
// perturbed. All randomness is counter-based: a hash of (plan seed, salt,
// origin, target, per-(origin,target) operation index), so a run with the
// same seed and the same operation stream reproduces the same schedule —
// the determinism guarantee documented in docs/FAULTS.md.
//
// The injector carries the per-pair operation counters, so one Injector
// instance belongs to one Engine run; reuse across runs continues the
// counters (call reset() — or build a fresh Injector — for a replay).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "fault/plan.h"
#include "util/rng.h"

namespace clampi::fault {

/// Seeded bit-rot sweep over cached storage bytes. Each byte independently
/// flips one random bit with probability `prob`; skip lengths are drawn
/// geometrically so the sweep only touches flipped bytes (O(flips), not
/// O(bytes)). State persists across apply() calls: a walk over many
/// entries behaves like one contiguous byte stream, so the schedule does
/// not depend on how storage is split into entries.
class Corruptor {
 public:
  Corruptor(std::uint64_t seed, double prob);

  /// Flip the scheduled bits inside [data, data+len); returns flip count.
  std::size_t apply(std::byte* data, std::size_t len);

 private:
  void advance();

  util::SplitMix64 rng_;
  double prob_;
  std::uint64_t skip_ = 0;  ///< clean bytes before the next flip
};

class Injector {
 public:
  explicit Injector(Plan plan);

  /// Per-operation decision.
  struct Verdict {
    bool fail = false;
    FailureKind kind = FailureKind::kTransient;
    double latency_factor = 1.0;
    double latency_addend_us = 0.0;
  };

  /// Size the per-pair counters (called by the engine at construction;
  /// harmless to call again with the same or a smaller rank count).
  void prepare(int nranks);

  /// Advance the schedule by one operation `origin -> target` at virtual
  /// time `now_us` and return its verdict. Deterministic given the plan
  /// seed and the operation stream.
  Verdict on_op(OpKind op, int origin, int target, std::size_t bytes, double now_us);

  /// Apply a verdict's perturbation to a modelled transfer cost. Exact
  /// identity (bit-identical) when the verdict is unperturbed.
  static double perturb(const Verdict& v, double xfer_us) {
    if (v.latency_factor == 1.0 && v.latency_addend_us == 0.0) return xfer_us;
    return xfer_us * v.latency_factor + v.latency_addend_us;
  }

  /// The bit-rot sweep for one (rank, epoch): a pure function of the plan
  /// seed, so re-running the same epoch re-creates the same flips.
  Corruptor corruptor(int rank, std::uint64_t epoch) const;

  /// True when the put `origin -> target` should skip its cache
  /// invalidation (stale-put injection). Counter-based like on_op, but on
  /// separate per-pair counters so installing a plan with only
  /// stale_put_prob leaves the operation-failure schedule untouched.
  bool stale_put_verdict(int origin, int target) const;

  /// True once `rank` passed its death instant, or while a crash epoch's
  /// outage interval [at_us, restart_us) covers `now_us`.
  bool dead(int rank, double now_us) const;
  /// Number of crash restarts of `rank` whose restart instant has passed.
  /// The engine compares this against the wipes it already applied to
  /// decide whether `rank`'s window memory is pending a wipe.
  int restarts_due(int rank, double now_us) const;
  /// True when crash number `crash_idx` (0-based, in plan order per rank)
  /// of `rank` leaves a torn garbage tail on the journal. Seeded draw —
  /// pure function of the plan.
  bool torn_write(int rank, int crash_idx) const;
  /// Seeded length (in bytes, small and non-zero) of the torn garbage
  /// tail for (rank, crash_idx).
  std::size_t torn_garbage_len(int rank, int crash_idx) const;
  /// The journal bit-rot sweep for (rank, crash_idx): applied over the
  /// journal's cold records at the crash instant (docs/DURABILITY.md).
  Corruptor journal_corruptor(int rank, int crash_idx) const;
  /// True while a partition epoch cuts `origin -> target` (that direction).
  bool partitioned(int origin, int target, double now_us) const;
  /// True while `rank` is inside a degraded epoch.
  bool degraded(int rank, double now_us) const;
  /// True while `rank` is inside a straggler epoch (alive but slow; the
  /// resilience layer must NOT treat this as down — docs/FAULTS.md §8).
  bool slow(int rank, double now_us) const;

  const Plan& plan() const { return plan_; }

  /// Rewind the schedule to the beginning.
  void reset();

 private:
  /// Product of the latency factors of all epochs covering (rank, now).
  double degrade_factor(int rank, double now_us) const;
  /// Product of the straggler factors of all epochs covering (rank, now).
  double slow_factor(int rank, double now_us) const;
  double draw(std::uint64_t salt, int origin, int target, std::uint64_t seq) const;
  std::uint64_t next_seq(int origin, int target);

  Plan plan_;
  int nranks_ = 0;
  std::vector<std::uint64_t> seq_;  // per (origin, target) operation index
  // Per-pair stale-put counters, separate from seq_ (see stale_put_verdict).
  // mutable: the engine hands windows a const Injector*, and advancing a
  // deterministic schedule is not observable state in the verdict sense.
  mutable std::unordered_map<std::uint64_t, std::uint64_t> stale_seq_;
};

}  // namespace clampi::fault

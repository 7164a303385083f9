// KV workload engine (docs/KV.md): Zipf-skewed popularity over the store's
// key space, a configurable get/put mix and value-size distribution, and a
// built-in shadow check that validates every served byte.
//
// One Driver runs per client rank. Validation leans on the store's
// self-describing values (bucket.h: payload = f(key, seq)), so the shadow
// state a client must carry is tiny:
//   - structural: every served value must match its (key, seq, len) header;
//   - own keys (single writer per key): the served seq must equal exactly
//     what this client last applied on the serving replica — a failed
//     replica write does NOT advance that replica's expectation, which is
//     what makes the check exact even through rank death. When the store's
//     convergence layer is on (hinted handoff / read-repair / anti-entropy;
//     docs/KV.md "Repair & convergence"), repairs legitimately advance a
//     replica behind the driver's back, so the check relaxes to a bounded
//     one: applied-on-replica <= served seq <= last seq this client issued;
//   - foreign keys: seq must never regress on the same serving replica
//     (epoch-bounded staleness allows lag, never time travel), except on a
//     degraded serve, which is allowed to be stale within its bound. This
//     check survives convergence mode unchanged: repairs only ever raise
//     a slot's seq, so monotonicity still holds.
//
// In resilient mode (replication > 1, degraded reads on) the driver keeps
// serving through rank death — the availability field is the headline
// number the bench gates on.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "kv/store.h"

namespace clampi::kv {

struct WorkloadConfig {
  std::uint64_t ops = 20000;      ///< operations this client issues
  double get_ratio = 0.95;        ///< fraction of ops that are gets
  double zipf_s = 0.99;           ///< popularity skew (0 = uniform)
  std::uint64_t epoch_ops = 20000;  ///< Listing-1 cache invalidation period
  std::uint32_t put_len_min = 16;   ///< put value sizes, uniform in
  std::uint32_t put_len_max = 64;   ///<   [min, max] (clamped to capacity)
  bool use_cache = true;          ///< false = get_nocache baseline
  std::uint64_t seed = 0x6b76u;
  /// Open-loop arrivals: op i is *due* at t0 + i * period. A client ahead
  /// of schedule idles until the arrival; one behind schedule (overload)
  /// issues late — and when the cache config sets op_deadline_us, each
  /// get's deadline is dated from its ARRIVAL, not its issue, so queueing
  /// delay spends the budget exactly like a real service's admission
  /// queue. 0 keeps the closed-loop issue-as-fast-as-possible behaviour.
  double op_arrival_period_us = 0.0;
};

struct WorkloadReport {
  std::uint64_t attempted = 0;
  std::uint64_t served = 0;    ///< ops that completed (availability numerator)
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t bucket_reads = 0;
  std::uint64_t chain_follows = 0;
  std::uint64_t cached_hits = 0;  ///< bucket reads served as full cache hits
  std::uint64_t version_rereads = 0;
  std::uint64_t degraded_serves = 0;
  std::uint64_t rerouted = 0;     ///< ops served by a non-preferred replica
  std::uint64_t put_replicas_applied = 0;
  std::uint64_t put_replicas_skipped = 0;
  std::uint64_t put_replicas_hinted = 0;  ///< skips buffered as handoff hints
  std::uint64_t read_repairs = 0;         ///< stale replicas fixed inline by gets
  std::uint64_t antientropy_repairs = 0;  ///< repairs by the background scan
  std::uint64_t mismatches = 0;   ///< shadow-check violations (must be 0)
  // Tail-latency robustness (docs/FAULTS.md §8).
  std::uint64_t hedged_gets = 0;  ///< gets that raced a backup replica
  std::uint64_t hedge_wins = 0;   ///< ... where the backup answered first
  std::uint64_t ops_shed = 0;     ///< gets refused admission (kShed)
  std::uint64_t deadline_misses = 0;  ///< gets whose budget ran out (kDeadline)
  double elapsed_us = 0.0;        ///< virtual time across the run
  double p50_us = 0.0;            ///< per-op virtual latency percentiles
  double p99_us = 0.0;
  double max_us = 0.0;            ///< slowest single op (deadline-overrun gate)

  double availability() const {
    return attempted == 0 ? 1.0
                          : static_cast<double>(served) / static_cast<double>(attempted);
  }
  /// Ops per virtual second.
  double ops_per_sec() const {
    return elapsed_us <= 0.0 ? 0.0 : static_cast<double>(attempted) * 1e6 / elapsed_us;
  }
  double hit_frac() const {
    return bucket_reads == 0
               ? 0.0
               : static_cast<double>(cached_hits) / static_cast<double>(bucket_reads);
  }
};

class Driver {
 public:
  /// `client_index` in [0, nclients) partitions write ownership: the
  /// single writer of a key is hash(key) % nclients, so concurrent puts
  /// never race on a slot and the shadow check stays exact.
  Driver(Store& store, const WorkloadConfig& cfg, int client_index, int nclients);

  /// Issue cfg.ops operations inside one lock_all epoch. Not reentrant.
  WorkloadReport run(rmasim::Process& p);

  /// The client that owns writes to `key` under this driver's partition.
  int writer_of(std::uint64_t key) const;

 private:
  bool validate_get(std::uint64_t key, const GetMeta& m, const std::byte* value);

  Store* store_;
  WorkloadConfig cfg_;
  int me_;
  int nclients_;
  /// key -> seq this client last applied, per replica position.
  std::unordered_map<std::uint64_t, std::array<std::uint32_t, kMaxReplicas>> own_seq_;
  /// key -> (serving replica, seq) last observed, for the regression check.
  std::unordered_map<std::uint64_t, std::pair<int, std::uint32_t>> last_seen_;
  /// key -> next write sequence this client will issue.
  std::unordered_map<std::uint64_t, std::uint32_t> next_seq_;
};

}  // namespace clampi::kv

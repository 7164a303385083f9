// Access statistics and phase timings collected per caching-enabled window.
// These counters drive the adaptive parameter selection (Sec. III-E1) and
// the evaluation figures (Figs. 11, 13, 16, 18).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

#include "clampi/config.h"

namespace clampi {

// Every Stats counter, exactly once, in declaration order. X(name) is
// expanded into the struct fields below and into kStatsFields, from which
// delta_since, the `clampi_stat_<name>` keys of stats_to_info and the chaos
// oracle's monotonicity check are all generated: adding a counter is one
// line here.
// Every counter only ever grows.
#define CLAMPI_STATS_COUNTERS(X)                                                \
  /* --- access classification --- */                                        \
  X(total_gets)                                                               \
  X(hits_full)                                                                \
  X(hits_pending)                                                             \
  X(hits_partial)                                                             \
  X(direct)                                                                   \
  X(conflicting)                                                              \
  X(capacity)                                                                 \
  X(failing)                                                                  \
  /* Cause split of `failing` (failing == failed_index + failed_capacity).    \
     The adaptive tuner needs it: index-induced failures ask for a larger     \
     |I_w|, space-induced ones for a larger |S_w| (Sec. III-E1). */           \
  X(failed_index)                                                             \
  X(failed_capacity)                                                          \
                                                                              \
  /* --- eviction machinery --- */                                            \
  X(evictions)                                                                \
  X(eviction_rounds)        /* capacity/failed victim searches */             \
  X(visited_slots)          /* index slots scanned by searches */             \
  X(visited_nonempty)       /* of which held an entry */                      \
                                                                              \
  /* --- lifecycle --- */                                                     \
  X(invalidations)                                                            \
  X(adjustments)            /* adaptive parameter changes */                  \
                                                                              \
  /* --- hot-path counters (index + storage internals) ---                    \
     Maintained inside CuckooIndex/Storage with register-batched stores and   \
     folded into this struct by CacheCore::stats(); they make perf changes    \
     observable (probe counts, filter quality, allocator path mix) rather     \
     than only timed. */                                                      \
  X(index_probes)              /* candidate slots examined by lookups */      \
  X(index_tag_false_positives) /* 8-bit tag matched, exact key differed */    \
  X(index_kick_steps)          /* occupants moved by cuckoo inserts */        \
  X(storage_fastbin_allocs)    /* allocations served by segregated bins */    \
  X(storage_tree_allocs)       /* allocations served by the AVL tree */       \
  X(storage_pool_reuses)       /* Region descriptors recycled from the pool */ \
                                                                              \
  /* --- integrity guard (checksums / scrubbing / breaker;                    \
     docs/INTEGRITY.md) --- */                                                \
  X(checksum_verifications)    /* sampled hit-time verifications */           \
  X(corruption_detected)       /* checksum mismatches (hit or scrub) */       \
  X(self_heals)                /* corrupt/stale hits transparently re-served */ \
  X(scrub_entries_scanned)     /* entries visited by the scrubber */          \
  X(scrub_corruptions)         /* of which failed their checksum */           \
  X(shadow_verifications)      /* hits double-checked remotely */             \
  X(shadow_mismatches)         /* stale hits caught by shadow-verify */       \
  X(put_invalidations)         /* entries dropped by overlapping puts */      \
  X(stale_puts_injected)       /* puts whose invalidation was skipped */      \
  X(storage_bitflips)          /* injected bit flips in S_w */                \
  X(breaker_trips)             /* closed/half-open -> open */                 \
  X(breaker_recloses)          /* half-open -> closed */                      \
  X(breaker_passthrough_gets)  /* gets served direct while tripped */         \
                                                                              \
  /* --- volume --- */                                                        \
  X(bytes_from_cache)                                                         \
  X(bytes_from_network)                                                       \
                                                                              \
  /* --- resilience (fault injection) --- */                                  \
  X(injected_faults)        /* OpFailedErrors observed by this window */      \
  X(retries)                /* re-issued network gets */                      \
  X(retry_giveups)          /* retry loops that exhausted their policy */     \
                                                                              \
  /* --- per-target health (failure detection / quarantine / degraded        \
     reads; docs/FAULTS.md §6) --- */                                         \
  X(health_quarantines)     /* transitions into QUARANTINED */                \
  X(health_probes)          /* QUARANTINED -> PROBING (half-open) */          \
  X(health_recoveries)      /* PROBING -> HEALTHY */                          \
  X(fast_fails)             /* gets refused against quarantined targets       \
                               (no retry, no backoff) */                      \
  X(degraded_hits)          /* bounded-staleness degraded reads served from   \
                               cache */                                       \
  X(degraded_expired)       /* retained entries dropped: over the staleness  \
                               bound or target recovered */                   \
  X(degraded_corrupt_drops) /* degraded serves refused because the entry     \
                               failed its checksum */                         \
                                                                              \
  /* Read/write shape of the KV subsystem layered on this window (src/kv):    \
     kv::Store increments these directly, zero for non-KV workloads. */       \
  X(kv_bucket_reads)        /* main-bucket fetches issued by kv lookups */    \
  X(kv_chain_reads)         /* overflow-chain follows (extra hops) */         \
  X(kv_version_rereads)     /* stale-generation images re-read uncached */    \
  X(put_invalidation_ops)   /* puts whose overlap invalidation dropped at     \
                               least one cached entry */                      \
                                                                              \
  /* Replica convergence layer (docs/KV.md "Repair & convergence"): hinted    \
     handoff, read-repair and anti-entropy activity of the kv::Store. */      \
  X(kv_hints_queued)        /* replica writes buffered as hints because the  \
                               target was unreachable */                      \
  X(kv_hints_drained)       /* hints retired after the target recovered      \
                               (applied or superseded) */                     \
  X(kv_hints_dropped)       /* hints lost to a full queue */                  \
  X(kv_read_repairs)        /* stale replicas rewritten inline by a           \
                               divergence-observing get */                    \
  X(kv_antientropy_repairs) /* stale replicas rewritten by the background    \
                               anti-entropy scan */                           \
                                                                              \
  /* Tail-latency robustness (docs/FAULTS.md §8): deadline budgets, SLOW      \
     observations, hedged replica reads and adaptive load shedding. */       \
  X(deadline_misses)        /* ops whose virtual-time budget ran out          \
                               (resolved degraded or kDeadline) */            \
  X(ops_shed)               /* ops refused admission by the AIMD shedder      \
                               (typed kShed, no network work) */              \
  X(slow_observations)      /* ops completed against a straggling target      \
                               (informational; never quarantines) */          \
  X(kv_hedged_gets)         /* kv gets that issued a backup read after the    \
                               primary outran its quantile */                 \
  X(kv_hedge_wins)          /* hedged gets won by the backup replica */       \
  X(kv_hedge_wasted)        /* hedges whose backup lost (or was               \
                               unreachable): pure overhead */                 \
                                                                              \
  /* Crash-restart durability (docs/DURABILITY.md): write-ahead journal,      \
     snapshot recovery and torn-tail handling of the kv::Store. */            \
  X(kv_journal_appends)      /* acknowledged puts persisted to the simulated  \
                                journal device */                             \
  X(kv_journal_replayed)     /* journal records applied during crash          \
                                recovery */                                   \
  X(kv_torn_records_dropped) /* records discarded at replay: torn tail or     \
                                failed checksum */                            \
  X(kv_snapshot_loads)       /* snapshots restored at recovery */             \
  X(kv_recovery_repairs)     /* dropped records re-pulled from live peer      \
                                replicas */                                   \
  X(crash_invalidations)     /* cached entries dropped because their target   \
                                restarted after a wiped-memory crash (the     \
                                entry predates the wipe) */

struct Stats {
#define CLAMPI_STATS_FIELD(name) std::uint64_t name = 0;
  CLAMPI_STATS_COUNTERS(CLAMPI_STATS_FIELD)
#undef CLAMPI_STATS_FIELD

  /// "Hitting accesses" in the paper's sense: lookup returned CACHED or
  /// PENDING (full and partial hits alike).
  std::uint64_t hitting() const { return hits_full + hits_pending + hits_partial; }

  double hit_ratio() const {
    return total_gets == 0 ? 0.0
                           : static_cast<double>(hitting()) / static_cast<double>(total_gets);
  }

  /// q: fraction of visited slots that were non-empty (victim-selection
  /// quality signal used to shrink a sparse index, Sec. III-E1).
  double q() const {
    return visited_slots == 0
               ? 1.0
               : static_cast<double>(visited_nonempty) / static_cast<double>(visited_slots);
  }

  /// Per-field difference (this - base); used for adaptation windows.
  Stats delta_since(const Stats& base) const;
};

/// One counter of the list: its name and where it lives in Stats.
struct StatsField {
  const char* name;
  std::uint64_t Stats::* member;
};

/// Every counter, in declaration order (generated from the list above).
inline constexpr StatsField kStatsFields[] = {
#define CLAMPI_STATS_ENTRY(name) {#name, &Stats::name},
    CLAMPI_STATS_COUNTERS(CLAMPI_STATS_ENTRY)
#undef CLAMPI_STATS_ENTRY
};
inline constexpr std::size_t kStatsCounters = std::size(kStatsFields);

// A field declared outside CLAMPI_STATS_COUNTERS would escape every
// generated consumer; this keeps it from compiling.
static_assert(sizeof(Stats) == kStatsCounters * sizeof(std::uint64_t),
              "every Stats field must be declared in CLAMPI_STATS_COUNTERS");

inline Stats Stats::delta_since(const Stats& base) const {
  Stats d;
  for (const StatsField& f : kStatsFields) d.*f.member = this->*f.member - base.*f.member;
  return d;
}

/// Real-time cost breakdown of the most recent get_c, in nanoseconds
/// (populated when Config::collect_phase_timings is set; Fig. 7).
struct PhaseBreakdown {
  double lookup_ns = 0.0;
  double eviction_ns = 0.0;
  double copy_ns = 0.0;   ///< cache->user copy (hits) at access time
  double insert_ns = 0.0; ///< index insert + storage allocation
  AccessType type = AccessType::kDirect;

  double total_ns() const { return lookup_ns + eviction_ns + copy_ns + insert_ns; }
};

/// Monotonic thread-CPU clock used for the phase breakdown (ns).
double phase_clock_ns();

}  // namespace clampi

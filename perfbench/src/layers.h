// Per-layer reporting shared by the kv and lcc workloads: the clampi
// counters (summed Stats blocks), the runtime's op-hook tally, and the
// netmodel pricing of the observed ops (perfbench/README.md).
#pragma once

#include <cstdint>

#include "clampi/stats.h"
#include "fault/fault.h"
#include "harness.h"
#include "netmodel/model.h"

namespace perfbench {

/// Field-wise sum of the Stats counters the per-layer metrics read.
inline void add_stats(clampi::Stats& into, const clampi::Stats& s) {
  into.total_gets += s.total_gets;
  into.hits_full += s.hits_full;
  into.hits_pending += s.hits_pending;
  into.hits_partial += s.hits_partial;
  into.direct += s.direct;
  into.conflicting += s.conflicting;
  into.capacity += s.capacity;
  into.failing += s.failing;
  into.evictions += s.evictions;
  into.eviction_rounds += s.eviction_rounds;
  into.visited_slots += s.visited_slots;
  into.index_probes += s.index_probes;
  into.index_kick_steps += s.index_kick_steps;
  into.storage_tree_allocs += s.storage_tree_allocs;
  into.storage_fastbin_allocs += s.storage_fastbin_allocs;
  into.adjustments += s.adjustments;
  into.bytes_from_network += s.bytes_from_network;
  into.put_invalidations += s.put_invalidations;
  into.kv_journal_appends += s.kv_journal_appends;
}

/// Runtime operations seen by Engine::Config::op_observer while
/// `counting`, priced with the public network model.
struct RtTally {
  bool counting = false;
  std::uint64_t gets = 0, puts = 0, other = 0, bytes = 0;
  double modeled_us = 0.0;

  void observe(const clampi::fault::OpDesc& d, const clampi::net::Model& model) {
    using clampi::fault::OpKind;
    if (d.kind == OpKind::kGet || d.kind == OpKind::kGetBlocks) {
      ++gets;
    } else if (d.kind == OpKind::kPut) {
      ++puts;
    } else {
      ++other;
    }
    bytes += d.bytes;
    modeled_us += model.issue_us(d.origin, d.target, d.bytes) +
                  model.transfer_us(d.origin, d.target, d.bytes);
  }
};

/// clampi.*: access classes as fractions of get_c calls, and the
/// eviction/index/storage counters. `puts` = workload puts (0 on LCC).
inline void report_clampi(Report& rep, const clampi::Stats& d, double puts,
                          std::size_t final_index_entries, std::size_t final_storage_bytes) {
  const double getc = static_cast<double>(d.total_gets);
  rep.add("clampi.get_c", getc, "count");
  rep.add("clampi.type.hit", ratio(d.hits_full, getc), "fraction");
  rep.add("clampi.type.hit_pending", ratio(d.hits_pending, getc), "fraction");
  rep.add("clampi.type.partial_hit", ratio(d.hits_partial, getc), "fraction");
  rep.add("clampi.type.direct", ratio(d.direct, getc), "fraction");
  rep.add("clampi.type.conflicting", ratio(d.conflicting, getc), "fraction");
  rep.add("clampi.type.capacity", ratio(d.capacity, getc), "fraction");
  rep.add("clampi.type.failing", ratio(d.failing, getc), "fraction");
  rep.add("clampi.put_invalidations_per_put", ratio(d.put_invalidations, puts), "count/op");
  rep.add("clampi.evictions", static_cast<double>(d.evictions), "count");
  rep.add("clampi.visited_slots_per_round", ratio(d.visited_slots, d.eviction_rounds),
          "count/op");
  rep.add("clampi.index_probes_per_lookup", ratio(d.index_probes, getc), "count/op");
  rep.add("clampi.kick_steps_per_insert",
          ratio(d.index_kick_steps, d.direct + d.conflicting + d.capacity), "count/op");
  rep.add("clampi.tree_alloc_frac",
          ratio(d.storage_tree_allocs, d.storage_tree_allocs + d.storage_fastbin_allocs),
          "fraction");
  rep.add("clampi.adjustments", static_cast<double>(d.adjustments), "count");
  rep.add("clampi.final_index_entries", static_cast<double>(final_index_entries), "count");
  rep.add("clampi.final_storage_mb", static_cast<double>(final_storage_bytes) / (1 << 20), "MB");
  rep.add("clampi.bytes_from_network", static_cast<double>(d.bytes_from_network), "B");
}

/// rt.* and netmodel.*: `ops` = workload ops (kv ops / LCC vertices),
/// `virt_us` = the virtual time those ops took, `u` = getrusage delta
/// around Engine::run, `run_wall_s` = its wall time.
inline void report_rt(Report& rep, const RtTally& t, double ops, double virt_us,
                      double run_wall_s, const Usage& u) {
  rep.add("rt.gets", static_cast<double>(t.gets), "count");
  rep.add("rt.puts", static_cast<double>(t.puts), "count");
  rep.add("rt.bytes", static_cast<double>(t.bytes), "B");
  rep.add("rt.ops_per_op", ratio(static_cast<double>(t.gets + t.puts + t.other), ops),
          "count/op");
  rep.add("rt.run_wall_s", run_wall_s, "s");
  rep.add("rt.user_s", u.user_s, "s");
  rep.add("rt.sys_s", u.sys_s, "s");
  rep.add("rt.ctx_switches", u.ctx_switches, "count");
  rep.add("rt.minor_faults", u.minor_faults, "count");
  rep.add("netmodel.modeled_us", t.modeled_us, "us");
  rep.add("netmodel.share", ratio(t.modeled_us, virt_us), "fraction");
}

}  // namespace perfbench

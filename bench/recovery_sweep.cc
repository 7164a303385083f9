// Recovery sweep: replica convergence of the KV/DHT after faults heal
// (docs/KV.md "Repair & convergence", docs/FAULTS.md §7).
//
// Topology: 6 ranks — 4 servers own bucket shards, 2 dedicated clients
// drive src/kv/workload.{h,cc}. Two fault shapes, each run twice:
//
//   death      server rank 1 dies mid-run and revives later. rmasim rank
//              death does not wipe window memory, so the revived shard
//              holds exactly the stale state the convergence layer must
//              repair.
//   partition  asymmetric reachability: client 4 loses server 1 and
//              client 5 loses server 2 over overlapping epochs, so the
//              two writers stale different replicas (split-brain), while
//              every server stays up for everyone else.
//
// Variants per shape:
//   convergence  hinted handoff + inline read-repair + anti-entropy on.
//                After the fault heals the clients drain their hint
//                queues and run the background scan over the full
//                keyspace; the ground-truth check must then find ZERO
//                divergent keys, with availability still 1.0 (the PR-6
//                resilient baseline) and zero shadow-check mismatches.
//   control      the identical schedule with every convergence feature
//                off: the divergence left behind must be measurable
//                (keys_divergent > 0) — the honest A/B that the repairs
//                above are doing real work.
//
// The process exits nonzero if
//   - any shadow-check mismatch is observed anywhere,
//   - a convergence cell ends with divergent or unreachable keys, spills
//     hints, or drops availability below 1.0,
//   - a convergence cell shows no repair activity (nothing was exercised),
//   - a control cell fails to show divergence.
// CI runs this with CLAMPI_BENCH_SCALE for smoke and uploads the JSON.
//
// Output: one JSON document on stdout, also written to
// BENCH_kv_recovery.json (or argv[1]).
#include <algorithm>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kv/store.h"
#include "kv/workload.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Process;

constexpr int kServers = 4;
constexpr int kClients = 2;
constexpr int kRanks = kServers + kClients;
constexpr double kFaultUs = 20000.0;   ///< death / first partition onset
constexpr double kHealUs = 60000.0;    ///< revival / first partition heal
constexpr double kSecondFaultUs = 30000.0;  ///< second partition onset
constexpr double kSecondHealUs = 70000.0;   ///< second partition heal

struct Spec {
  bool partition;    ///< else death + revival
  bool convergence;  ///< else the control
};

struct CellResult {
  benchx::ClientOut sum;  ///< both clients' reports and Stats
  std::uint64_t hints_leftover = 0, ae_steps = 0;
  kv::Store::ConvergenceReport conv;

  std::uint64_t repair_activity() const {
    return sum.stats.kv_hints_drained + sum.stats.kv_read_repairs +
           sum.stats.kv_antientropy_repairs;
  }
};

kv::StoreConfig store_cfg(std::uint64_t nkeys, bool convergence) {
  kv::StoreConfig scfg;
  scfg.nkeys = nkeys;
  scfg.nservers = kServers;
  scfg.replication = 2;
  scfg.layout.value_capacity = 64;
  scfg.cache.mode = Mode::kUserDefined;
  scfg.cache.adaptive = false;
  scfg.cache.index_entries = std::size_t{1} << 17;
  scfg.cache.storage_bytes = std::size_t{64} << 20;
  scfg.cache.health_failure_threshold = 3;
  scfg.cache.degraded_reads = true;
  scfg.cache.degraded_max_staleness_us = 1e9;  // covers the whole run
  if (convergence) {
    scfg.hinted_handoff = true;
    scfg.hint_queue_cap = static_cast<std::uint32_t>(nkeys);
    scfg.read_repair_every_n = 16;
    scfg.antientropy_keys_per_epoch = std::max<std::uint64_t>(nkeys / 4, 1);
  }
  return scfg;
}

bool all_servers_healthy(kv::Store& store) {
  for (int t = 0; t < kServers; ++t) {
    const TargetStatus ts = store.window().target_status(t);
    if (!ts.usable || ts.state != HealthState::kHealthy) return false;
  }
  return true;
}

/// Drive every server's health machine back to HEALTHY after the faults
/// healed: uncached gets generate flushes (epoch closes promote
/// dwell-elapsed quarantines to PROBING) and successful probe reads.
void await_recovery(kv::Store& store) {
  std::vector<std::byte> v(store.config().layout.value_capacity);
  for (std::uint64_t i = 0; i < 2000 && !all_servers_healthy(store); ++i) {
    kv::GetMeta m;
    store.get_uncached(store.key_at(i % store.config().nkeys), v.data(), &m);
  }
}

CellResult run_cell(std::uint64_t nkeys, std::uint64_t ops, const Spec& spec) {
  rmasim::Engine::Config ecfg = benchx::modeled_engine(kRanks);
  fault::Plan plan;
  if (spec.partition) {
    // Asymmetric split-brain: each client loses a different server for an
    // overlapping epoch; every server stays reachable for everyone else.
    plan.partition_pair(/*origin=*/kServers + 0, /*target=*/1, kFaultUs, kHealUs);
    plan.partition_pair(/*origin=*/kServers + 1, /*target=*/2, kSecondFaultUs,
                        kSecondHealUs);
  } else {
    plan.kill_rank(/*rank=*/1, kFaultUs);
    plan.revive_rank(/*rank=*/1, kHealUs);
  }
  ecfg.injector = std::make_shared<fault::Injector>(plan);
  rmasim::Engine e(ecfg);
  auto outs = std::make_shared<std::vector<CellResult>>(kRanks);

  e.run([=, &outs](Process& p) {
    kv::Store store(p, store_cfg(nkeys, spec.convergence));
    CellResult& out = (*outs)[static_cast<std::size_t>(p.rank())];
    if (p.rank() >= kServers) {
      const int client = p.rank() - kServers;
      // Warm the hot set while every pair is reachable, then cross the
      // fault onset with no epoch open and serve through it.
      const std::uint64_t warm_mm = benchx::warm_then_cross(
          p, store, client, kClients, 0.99, /*use_cache=*/true, kFaultUs + 2000.0);

      kv::WorkloadConfig wcfg;
      wcfg.ops = ops;
      wcfg.get_ratio = 0.9;
      wcfg.zipf_s = 0.99;
      wcfg.epoch_ops = std::max<std::uint64_t>(ops / 4, 1);  // AE ticks mid-run
      kv::Driver driver(store, wcfg, client, kClients);
      out.sum.rep = driver.run(p);
      out.sum.rep.mismatches += warm_mm;

      // Post-heal convergence epoch: recover the health machines, replay
      // the hint queues, and run the background scan over the keyspace.
      benchx::advance_to(p, kSecondHealUs + 2000.0);
      store.window().lock_all();
      await_recovery(store);
      store.drain_hints();
      const std::uint64_t budget = store.config().antientropy_keys_per_epoch;
      if (budget > 0) {
        const std::uint64_t passes = (nkeys + budget - 1) / budget;
        for (std::uint64_t s = 0; s < 2 * passes; ++s) {
          store.anti_entropy_step();
          ++out.ae_steps;
        }
      }
      out.hints_leftover = store.hints_pending();
      store.window().unlock_all();
    }
    p.barrier();  // all repair traffic quiesced before the ground truth
    if (p.rank() == kServers) {
      store.window().lock_all();
      out.conv = store.verify_convergence();
      store.window().unlock_all();
    }
    if (p.rank() >= kServers) out.sum.stats = store.window().stats();
    p.barrier();
    store.free_window();
  });

  CellResult r;
  for (int c = kServers; c < kRanks; ++c) {
    const CellResult& o = (*outs)[static_cast<std::size_t>(c)];
    benchx::absorb(r.sum, o.sum);
    r.hints_leftover += o.hints_leftover;
    r.ae_steps += o.ae_steps;
  }
  r.conv = (*outs)[kServers].conv;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::Sweep sweep("recovery_sweep", "BENCH_kv_recovery.json", argc, argv);
  const std::uint64_t nkeys = benchx::scaled(std::uint64_t{1} << 16, 2048);
  const std::uint64_t ops = benchx::scaled(100000, 6000);
  sweep.header(benchx::Fields()
                   .num("nkeys", nkeys)
                   .num("ops_per_client", ops)
                   .num("clients", kClients)
                   .num("servers", kServers));

  const Spec specs[] = {{false, true}, {false, false}, {true, true}, {true, false}};
  std::uint64_t mismatches = 0;
  sweep.cells(
      specs, [&](const Spec& s) { return run_cell(nkeys, ops, s); },
      [&](const Spec& s, const CellResult& r) {
        const char* cell = s.partition ? "partition" : "death";
        const char* variant = s.convergence ? "convergence" : "control";
        const kv::WorkloadReport& w = r.sum.rep;
        const Stats& st = r.sum.stats;
        sweep.row(benchx::Fields()
                      .str("cell", cell)
                      .str("variant", variant)
                      .num("nkeys", nkeys)
                      .num("attempted", w.attempted)
                      .num("served", w.served)
                      .num("availability", "%.6f", w.availability())
                      .num("mismatches", w.mismatches)
                      .num("degraded", w.degraded_serves)
                      .num("rerouted", w.rerouted)
                      .num("put_replicas_applied", w.put_replicas_applied)
                      .num("put_replicas_skipped", w.put_replicas_skipped)
                      .num("put_replicas_hinted", w.put_replicas_hinted)
                      .num("hints_queued", st.kv_hints_queued)
                      .num("hints_drained", st.kv_hints_drained)
                      .num("hints_dropped", st.kv_hints_dropped)
                      .num("hints_leftover", r.hints_leftover)
                      .num("read_repairs", st.kv_read_repairs)
                      .num("antientropy_repairs", st.kv_antientropy_repairs)
                      .num("ae_steps", r.ae_steps)
                      .num("keys_checked", r.conv.keys_checked)
                      .num("keys_divergent", r.conv.keys_divergent)
                      .num("keys_unreachable", r.conv.keys_unreachable)
                      .num("max_seq_spread", r.conv.max_seq_spread)
                      .num("elapsed_us", "%.1f", w.elapsed_us));
        mismatches += w.mismatches;
        sweep.gate(w.mismatches == 0, "%s/%s: shadow-check mismatches", cell, variant);
        if (!s.convergence) {
          // The control must stay divergent, or the schedule never actually
          // staled a replica and the convergence cell proved nothing.
          sweep.gate(r.conv.keys_divergent > 0, "%s/control: no divergence", cell);
          return;
        }
        sweep.gate(w.availability() == 1.0, "%s/convergence: availability %.6f < 1", cell,
                   w.availability());
        sweep.gate(r.conv.keys_divergent == 0 && r.conv.keys_unreachable == 0,
                   "%s/convergence: divergent or unreachable keys after repair", cell);
        sweep.gate(r.hints_leftover == 0, "%s/convergence: hints left", cell);
        sweep.gate(r.repair_activity() > 0, "%s/convergence: no repair activity", cell);
      });
  return sweep.finish(benchx::Fields().num("mismatches", mismatches));
}

// Tail-latency sweep: straggler epochs x {hedged reads, deadline budgets,
// adaptive load shedding} (docs/FAULTS.md §8, docs/KV.md "Hedged reads").
//
// Topology: 3 ranks — 2 servers hold replicated shards (replication 2, so
// every key lives on both), 1 client drives src/kv/workload.{h,cc} with a
// get-only Zipf mix and periodic epoch invalidation (misses actually touch
// the network). Server 1 is the straggler: fault::Plan::slow_rank
// multiplies its transfer latency by kStraggleFactor without ever failing
// an op — the regime the failure detector must NOT react to.
//
// Three cells:
//   hedge     calm phase feeds the per-target latency estimators, then the
//             straggler epoch begins and the same workload runs hedged
//             (hedge_quantile 0.9) and unhedged. Gates: hedged p99 <= 0.5x
//             unhedged p99, hedges fired and won, hedge waste <= 0.25x
//             hedged gets, zero shadow mismatches, and zero quarantines
//             with the failure detector armed (slowness is not failure).
//   deadline  a no-deadline probe under the straggler measures one-op
//             worst-case latency; the deadline run sets the budget to
//             0.6x the probe's p99 and adds transient faults on the slow
//             server so retries arm the backoff path. Gates: deadline
//             misses observed, ops still served, and NO op exceeding the
//             budget by more than one op latency (max_us <= budget +
//             probe max_us — the check-before-issue invariant).
//   shed      the deadline cell doubles as the closed-loop baseline: its
//             attempt rate defines capacity. The shed and control runs
//             offer 2x that rate open-loop (op_arrival_period_us), with
//             deadlines dated from each op's ARRIVAL. Gates: ops were
//             shed, shed-variant goodput stays within 10% of the
//             sustainable (1x) goodput — overload does not collapse
//             throughput — and the shed variant suffers fewer deadline
//             misses than the no-shedding control. The last one is the
//             honest A/B: arrival-dated budgets mean a pre-expired op
//             already fast-fails for free at the entry check (the control
//             cannot collapse on goodput), so what AIMD admission buys is
//             refusing live-but-doomed ops BEFORE they burn network time
//             — measured as misses converted into free refusals.
//
// The process exits nonzero if any gate fails or any shadow-check
// mismatch is observed anywhere. CI runs this with CLAMPI_BENCH_SCALE
// for smoke and uploads the JSON.
//
// Output: one JSON document on stdout, also written to BENCH_tail.json
// (or argv[1]).
#include <algorithm>
#include <memory>

#include "bench/bench_common.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kv/store.h"
#include "kv/workload.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Process;

constexpr int kServers = 2;
constexpr int kClientRank = 2;
constexpr int kRanks = 3;
constexpr double kStraggleFactor = 40.0;
/// Straggler onset for the hedge cell: the calm estimator-feeding phase
/// must complete strictly before this (REQUIREd below).
constexpr double kHedgeOnsetUs = 2.0e6;

struct CellSpec {
  std::uint64_t nkeys = 0;
  std::uint64_t calm_ops = 0;  ///< pre-onset phase feeding the estimators
  std::uint64_t ops = 0;       ///< measured phase (all gates read this)
  double straggle_from_us = 0.0;
  double fail_prob = 0.0;      ///< transient failure prob on the slow server
  double hedge_quantile = 0.0;
  double deadline_us = 0.0;
  bool shedding = false;
  double shed_window_us = 0.0;
  double arrival_period_us = 0.0;  ///< open-loop offered rate; 0 = closed loop
  std::uint32_t health_threshold = 0;  ///< 0 = detector off (deadline/shed cells)
};

struct CellOut {
  kv::WorkloadReport rep;
  Stats stats;
  double admit_fraction = 1.0;

  double goodput_per_sec() const {
    return rep.elapsed_us <= 0.0
               ? 0.0
               : static_cast<double>(rep.served) * 1e6 / rep.elapsed_us;
  }
};

CellOut run_cell(const CellSpec& s) {
  rmasim::Engine::Config ecfg = benchx::modeled_engine(kRanks);
  fault::Plan plan;
  plan.slow_rank(/*rank=*/1, kStraggleFactor, s.straggle_from_us);
  if (s.fail_prob > 0.0) plan.fail_target(/*rank=*/1, s.fail_prob);
  ecfg.injector = std::make_shared<fault::Injector>(plan);
  rmasim::Engine e(ecfg);

  auto out = std::make_shared<CellOut>();
  e.run([=](Process& p) {
    kv::StoreConfig cfg;
    cfg.nkeys = s.nkeys;
    cfg.nservers = kServers;
    cfg.replication = 2;
    cfg.layout.value_capacity = 64;
    cfg.cache.mode = Mode::kUserDefined;
    cfg.cache.adaptive = false;
    cfg.cache.index_entries = std::size_t{1} << 15;
    cfg.cache.storage_bytes = std::size_t{32} << 20;
    cfg.cache.health_failure_threshold = s.health_threshold;
    if (s.deadline_us > 0.0) {
      cfg.cache.op_deadline_us = s.deadline_us;
      cfg.cache.max_retries = 3;
      cfg.cache.retry_backoff_us = 0.5 * s.deadline_us;
      cfg.cache.retry_jitter = 0.0;
    }
    if (s.shedding) {
      cfg.cache.load_shedding = true;
      cfg.cache.shed_window_us = s.shed_window_us;
      cfg.cache.shed_miss_ratio = 0.4;
      cfg.cache.shed_decrease_factor = 0.6;
      cfg.cache.shed_increase = 0.15;
      cfg.cache.shed_min_admit = 0.2;
    }
    cfg.hedge_quantile = s.hedge_quantile;
    kv::Store store(p, cfg);
    if (p.rank() == kClientRank) {
      CellOut& o = *out;
      std::uint64_t calm_mm = 0;
      if (s.calm_ops > 0) {
        kv::WorkloadConfig calm;
        calm.ops = s.calm_ops;
        calm.get_ratio = 1.0;
        calm.zipf_s = 0.99;
        calm.epoch_ops = std::max<std::uint64_t>(s.calm_ops / 8, 1);
        calm.seed = 0x63616c6dull;
        kv::Driver warmer(store, calm, 0, 1);
        calm_mm = warmer.run(p).mismatches;
        CLAMPI_REQUIRE(p.now_us() < s.straggle_from_us,
                       "tail_sweep: calm phase overran the straggler onset");
      }
      benchx::advance_to(p, s.straggle_from_us + 1.0);

      kv::WorkloadConfig w;
      w.ops = s.ops;
      w.get_ratio = 1.0;
      w.zipf_s = 0.99;
      w.epoch_ops = std::max<std::uint64_t>(s.ops / 16, 1);
      w.op_arrival_period_us = s.arrival_period_us;
      w.seed = 0x7461696cull;
      kv::Driver driver(store, w, 0, 1);
      o.rep = driver.run(p);
      o.rep.mismatches += calm_mm;
      o.stats = store.window().stats();
      o.admit_fraction = store.window().admit_fraction();
    }
    p.barrier();
    store.free_window();
  });
  return *out;
}

benchx::Fields result_row(const char* cell, const char* variant, const CellSpec& s,
                          const CellOut& o) {
  return benchx::Fields()
      .str("cell", cell)
      .str("variant", variant)
      .num("ops", s.ops)
      .num("deadline_us", "%.1f", s.deadline_us)
      .num("arrival_period_us", "%.3f", s.arrival_period_us)
      .num("attempted", o.rep.attempted)
      .num("served", o.rep.served)
      .num("availability", "%.6f", o.rep.availability())
      .num("goodput_per_sec", "%.1f", o.goodput_per_sec())
      .num("p50_us", "%.2f", o.rep.p50_us)
      .num("p99_us", "%.2f", o.rep.p99_us)
      .num("max_us", "%.2f", o.rep.max_us)
      .num("hedged_gets", o.stats.kv_hedged_gets)
      .num("hedge_wins", o.stats.kv_hedge_wins)
      .num("hedge_wasted", o.stats.kv_hedge_wasted)
      .num("deadline_misses", o.rep.deadline_misses)
      .num("ops_shed", o.rep.ops_shed)
      .num("slow_observations", o.stats.slow_observations)
      .num("quarantines", o.stats.health_quarantines)
      .num("admit_fraction", "%.3f", o.admit_fraction)
      .num("mismatches", o.rep.mismatches)
      .num("elapsed_us", "%.1f", o.rep.elapsed_us);
}

}  // namespace

int main(int argc, char** argv) {
  benchx::Sweep sweep("tail_sweep", "BENCH_tail.json", argc, argv);
  const std::uint64_t nkeys = benchx::scaled(std::uint64_t{1} << 15, 2048);
  const std::uint64_t calm_ops = benchx::scaled(4000, 512);
  const std::uint64_t ops = benchx::scaled(50000, 4000);
  sweep.header(benchx::Fields()
                   .num("nkeys", nkeys)
                   .num("ops", ops)
                   .num("servers", kServers)
                   .num("straggle_factor", "%f", kStraggleFactor));
  std::uint64_t mismatches = 0;
  const auto row = [&](const char* cell, const char* variant, const CellSpec& s,
                       const CellOut& o) {
    sweep.row(result_row(cell, variant, s, o));
    mismatches += o.rep.mismatches;
  };

  // --- hedge cell: hedged vs unhedged under the straggler epoch ---
  CellSpec hs;
  hs.nkeys = nkeys;
  hs.calm_ops = calm_ops;
  hs.ops = ops;
  hs.straggle_from_us = kHedgeOnsetUs;
  hs.hedge_quantile = 0.9;
  hs.health_threshold = 3;  // armed: stragglers must still never quarantine
  const CellOut hedged = run_cell(hs);
  CellSpec us = hs;
  us.hedge_quantile = 0.0;
  const CellOut unhedged = run_cell(us);
  row("hedge", "hedged", hs, hedged);
  row("hedge", "unhedged", us, unhedged);
  sweep.gate(hedged.stats.kv_hedged_gets > 0, "hedge: no hedges fired");
  sweep.gate(hedged.stats.kv_hedge_wins > 0, "hedge: no hedge ever won");
  sweep.gate(hedged.rep.p99_us <= 0.5 * unhedged.rep.p99_us,
             "hedge: hedged p99 > 0.5x unhedged p99");
  sweep.gate(static_cast<double>(hedged.stats.kv_hedge_wasted) <=
                 0.25 * static_cast<double>(hedged.stats.kv_hedged_gets),
             "hedge: waste > 0.25x hedged gets");
  sweep.gate(hedged.stats.slow_observations > 0,
             "hedge: straggler epoch never observed as SLOW");
  sweep.gate(hedged.stats.health_quarantines == 0 &&
                 unhedged.stats.health_quarantines == 0,
             "hedge: a straggler epoch caused a quarantine");

  // --- deadline cell: budget derived from a no-deadline probe ---
  CellSpec ps;
  ps.nkeys = nkeys;
  ps.ops = ops;
  const CellOut probe = run_cell(ps);  // straggled, unbounded: one-op worst case
  CellSpec ds = ps;
  ds.deadline_us = std::max(0.6 * probe.rep.p99_us, 1.0);
  ds.fail_prob = 0.5;  // transients on the slow server arm the backoff path
  const CellOut dl = run_cell(ds);
  row("deadline", "probe", ps, probe);
  row("deadline", "deadline", ds, dl);
  sweep.gate(dl.rep.deadline_misses > 0, "deadline: no misses observed");
  sweep.gate(dl.rep.served > 0, "deadline: nothing served at all");
  // Check-before-issue invariant: once past the last deadline check an op
  // charges at most one more op's latency, so no op may exceed the budget
  // by more than the probe's worst single op.
  sweep.gate(dl.rep.max_us <= ds.deadline_us + 1.05 * probe.rep.max_us + 1.0,
             "deadline: an op exceeded its budget by more than one op");

  // --- shed cell: 2x overload, shedding vs control ---
  // The deadline cell is the closed-loop 1x baseline: its attempt rate is
  // the sustainable capacity under the same straggler + transient faults.
  const double period_2x =
      dl.rep.elapsed_us / static_cast<double>(dl.rep.attempted) / 2.0;
  CellSpec ss = ds;
  ss.shedding = true;
  ss.shed_window_us = std::max(50.0 * period_2x, 500.0);
  ss.arrival_period_us = period_2x;
  const CellOut shed = run_cell(ss);
  CellSpec cs = ss;
  cs.shedding = false;
  const CellOut ctrl = run_cell(cs);
  sweep.row(result_row("shed", "baseline", ds, dl));  // counted in the deadline cell
  row("shed", "shed", ss, shed);
  row("shed", "control", cs, ctrl);
  sweep.gate(shed.rep.ops_shed > 0, "shed: AIMD never shed an op");
  sweep.gate(shed.goodput_per_sec() >= 0.9 * dl.goodput_per_sec(),
             "shed: goodput fell more than 10%% below the sustainable rate");
  sweep.gate(shed.rep.deadline_misses < ctrl.rep.deadline_misses,
             "shed: no fewer deadline misses than the no-shedding control");

  sweep.gate(mismatches == 0, "%llu shadow-check mismatches",
             static_cast<unsigned long long>(mismatches));
  return sweep.finish(benchx::Fields().num("mismatches", mismatches));
}

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
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

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

void advance_to(Process& p, double t_us) {
  if (p.now_us() < t_us) p.compute_us(t_us - p.now_us());
}

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
      advance_to(p, s.straggle_from_us + 1.0);

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

void emit_cell(std::string& json, const char* cell, const char* variant,
               const CellSpec& s, const CellOut& o, bool first) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "%s\n    {\"cell\":\"%s\",\"variant\":\"%s\",\"ops\":%llu,"
      "\"deadline_us\":%.1f,\"arrival_period_us\":%.3f,"
      "\"attempted\":%llu,\"served\":%llu,\"availability\":%.6f,"
      "\"goodput_per_sec\":%.1f,\"p50_us\":%.2f,\"p99_us\":%.2f,"
      "\"max_us\":%.2f,\"hedged_gets\":%llu,\"hedge_wins\":%llu,"
      "\"hedge_wasted\":%llu,\"deadline_misses\":%llu,\"ops_shed\":%llu,"
      "\"slow_observations\":%llu,\"quarantines\":%llu,"
      "\"admit_fraction\":%.3f,\"mismatches\":%llu,\"elapsed_us\":%.1f}",
      first ? "" : ",", cell, variant, static_cast<unsigned long long>(s.ops),
      s.deadline_us, s.arrival_period_us,
      static_cast<unsigned long long>(o.rep.attempted),
      static_cast<unsigned long long>(o.rep.served), o.rep.availability(),
      o.goodput_per_sec(), o.rep.p50_us, o.rep.p99_us, o.rep.max_us,
      static_cast<unsigned long long>(o.stats.kv_hedged_gets),
      static_cast<unsigned long long>(o.stats.kv_hedge_wins),
      static_cast<unsigned long long>(o.stats.kv_hedge_wasted),
      static_cast<unsigned long long>(o.rep.deadline_misses),
      static_cast<unsigned long long>(o.rep.ops_shed),
      static_cast<unsigned long long>(o.stats.slow_observations),
      static_cast<unsigned long long>(o.stats.health_quarantines),
      o.admit_fraction, static_cast<unsigned long long>(o.rep.mismatches),
      o.rep.elapsed_us);
  json += buf;
}

bool gate(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "tail_sweep: GATE FAILED: %s\n", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_tail.json";
  const std::uint64_t nkeys = benchx::scaled(std::uint64_t{1} << 15, 2048);
  const std::uint64_t calm_ops = benchx::scaled(4000, 512);
  const std::uint64_t ops = benchx::scaled(50000, 4000);

  std::string json = "{\"bench\":\"tail_sweep\",\"nkeys\":" +
                     std::to_string(nkeys) + ",\"ops\":" + std::to_string(ops) +
                     ",\"servers\":" + std::to_string(kServers) +
                     ",\"straggle_factor\":" + std::to_string(kStraggleFactor) +
                     ",\"results\":[";
  bool pass = true;
  std::uint64_t mismatches = 0;

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
  emit_cell(json, "hedge", "hedged", hs, hedged, /*first=*/true);
  emit_cell(json, "hedge", "unhedged", us, unhedged, false);
  mismatches += hedged.rep.mismatches + unhedged.rep.mismatches;

  std::fprintf(stderr,
               "tail_sweep: hedge p99 %.1fus vs unhedged %.1fus (hedged=%llu "
               "wins=%llu wasted=%llu)\n",
               hedged.rep.p99_us, unhedged.rep.p99_us,
               static_cast<unsigned long long>(hedged.stats.kv_hedged_gets),
               static_cast<unsigned long long>(hedged.stats.kv_hedge_wins),
               static_cast<unsigned long long>(hedged.stats.kv_hedge_wasted));
  pass &= gate(hedged.stats.kv_hedged_gets > 0, "hedge: no hedges fired");
  pass &= gate(hedged.stats.kv_hedge_wins > 0, "hedge: no hedge ever won");
  pass &= gate(hedged.rep.p99_us <= 0.5 * unhedged.rep.p99_us,
               "hedge: hedged p99 > 0.5x unhedged p99");
  pass &= gate(static_cast<double>(hedged.stats.kv_hedge_wasted) <=
                   0.25 * static_cast<double>(hedged.stats.kv_hedged_gets),
               "hedge: waste > 0.25x hedged gets");
  pass &= gate(hedged.stats.slow_observations > 0,
               "hedge: straggler epoch never observed as SLOW");
  pass &= gate(hedged.stats.health_quarantines == 0 &&
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
  emit_cell(json, "deadline", "probe", ps, probe, false);
  emit_cell(json, "deadline", "deadline", ds, dl, false);
  mismatches += probe.rep.mismatches + dl.rep.mismatches;

  std::fprintf(stderr,
               "tail_sweep: deadline budget %.1fus misses=%llu max=%.1fus "
               "(probe max %.1fus)\n",
               ds.deadline_us,
               static_cast<unsigned long long>(dl.rep.deadline_misses),
               dl.rep.max_us, probe.rep.max_us);
  pass &= gate(dl.rep.deadline_misses > 0, "deadline: no misses observed");
  pass &= gate(dl.rep.served > 0, "deadline: nothing served at all");
  // Check-before-issue invariant: once past the last deadline check an op
  // charges at most one more op's latency, so no op may exceed the budget
  // by more than the probe's worst single op.
  pass &= gate(dl.rep.max_us <= ds.deadline_us + 1.05 * probe.rep.max_us + 1.0,
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
  emit_cell(json, "shed", "baseline", ds, dl, false);
  emit_cell(json, "shed", "shed", ss, shed, false);
  emit_cell(json, "shed", "control", cs, ctrl, false);
  mismatches += shed.rep.mismatches + ctrl.rep.mismatches;

  std::fprintf(stderr,
               "tail_sweep: shed goodput %.1f/s (baseline %.1f/s, control "
               "%.1f/s) shed=%llu admit=%.2f\n",
               shed.goodput_per_sec(), dl.goodput_per_sec(),
               ctrl.goodput_per_sec(),
               static_cast<unsigned long long>(shed.rep.ops_shed),
               shed.admit_fraction);
  pass &= gate(shed.rep.ops_shed > 0, "shed: AIMD never shed an op");
  pass &= gate(shed.goodput_per_sec() >= 0.9 * dl.goodput_per_sec(),
               "shed: goodput fell more than 10% below the sustainable rate");
  pass &= gate(shed.rep.deadline_misses < ctrl.rep.deadline_misses,
               "shed: no fewer deadline misses than the no-shedding control");

  if (mismatches != 0) {
    std::fprintf(stderr, "tail_sweep: %llu shadow-check mismatches\n",
                 static_cast<unsigned long long>(mismatches));
    pass = false;
  }

  char tail[256];
  std::snprintf(tail, sizeof tail,
                "\n  ],\n  \"acceptance\":{\"mismatches\":%llu,\"pass\":%s}}\n",
                static_cast<unsigned long long>(mismatches),
                pass ? "true" : "false");
  json += tail;

  std::fputs(json.c_str(), stdout);
  if (FILE* f = std::fopen(out_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "tail_sweep: wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "tail_sweep: cannot write %s\n", out_path);
    return 1;
  }
  if (!pass) {
    std::fprintf(stderr, "tail_sweep: ACCEPTANCE FAILED\n");
    return 1;
  }
  return 0;
}

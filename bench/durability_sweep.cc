// Durability sweep: crash-restart recovery of the KV/DHT from simulated
// persistent devices (docs/DURABILITY.md, docs/FAULTS.md §9).
//
// Topology: 6 ranks — 4 servers own bucket shards, 2 clients write
// disjoint halves of the key space (acked seq tracked per key), server 1
// suffers a wiped-memory crash after all writes acked and recovers inside
// its crash_tick loop. The loss metric is exact: a key whose post-recovery
// uncached read serves a seq below the acked seq (or wrong bytes) is an
// acknowledged write the crash destroyed.
//
// Cells:
//   journal           replication 1 (the journal is the ONLY copy),
//                     torn_write_prob 1. GATE: zero loss, journal replay
//                     did the work, the torn tail was discarded.
//   journal_snapshot  same with periodic snapshots: recovery restores the
//                     newest checksum-valid image and replays only the
//                     tail. GATE: zero loss, a snapshot was loaded.
//   control           the identical schedule with journaling OFF: the
//                     server restarts from the initial population. GATE:
//                     loss is provably nonzero — the honest A/B that the
//                     journal cells prove something.
//   journal_corrupt   replication 2 + sparse journal bit rot: checksum-
//                     rejected records are re-pulled from the live peer
//                     replica during recovery; rot that destroyed a
//                     record's key bytes leaves no readable suspect, so a
//                     post-recovery anti-entropy pass (the convergence
//                     layer) reconciles the remainder. GATE: zero loss,
//                     peer repairs happened, and the recovered replica
//                     agrees with its peer (verify_convergence finds zero
//                     divergence).
//   overhead_on/off   no crash: the same write+read workload with devices
//                     on vs off — the journaling cost for docs/PERF.md.
//                     GATE: zero loss.
//
// The process exits nonzero if any gate fails; each failed gate names its
// cell on stderr. CI runs this with CLAMPI_BENCH_SCALE for smoke and
// uploads the JSON.
//
// Output: one JSON document on stdout, also written to
// BENCH_kv_durability.json (or argv[1]).
#include <algorithm>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "kv/bucket.h"
#include "kv/store.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Process;

constexpr int kServers = 4;
constexpr int kClients = 2;
constexpr int kRanks = kServers + kClients;
constexpr int kCrashRank = 1;
constexpr std::uint32_t kRounds = 2;  ///< acked write rounds (seq 1..kRounds)
constexpr std::uint32_t kVlen = 48;   ///< payload bytes per write

struct CellSpec {
  const char* name;
  int replication = 1;
  bool devices = false;
  bool crash = true;
  double torn_prob = 0.0;
  double corrupt_prob = 0.0;
  double snapshot_every_us = 0.0;
};

struct CellResult {
  std::uint64_t acked = 0, lost = 0, unreachable = 0;
  std::uint64_t appends = 0;            // client-side journal appends
  std::uint64_t replayed = 0;           // server 1 recovery counters
  std::uint64_t torn_dropped = 0;
  std::uint64_t snapshot_loads = 0;
  std::uint64_t recovery_repairs = 0;
  std::uint64_t ae_repairs = 0;         // post-recovery anti-entropy rewrites
  int restarts_handled = 0;
  bool schedule_violated = false;       // writes overran the crash instant
  kv::Store::ConvergenceReport conv;
  double write_elapsed_us = 0.0;        // max over clients (overhead cells)
  double recovery_us = 0.0;             // virtual time recover_server cost
};

kv::StoreConfig store_cfg(std::uint64_t nkeys, const CellSpec& spec) {
  kv::StoreConfig cfg;
  cfg.nkeys = nkeys;
  cfg.nservers = kServers;
  cfg.replication = spec.replication;
  cfg.layout.value_capacity = 64;
  cfg.cache.mode = Mode::kUserDefined;
  cfg.cache.adaptive = false;
  cfg.cache.index_entries = std::size_t{1} << 16;
  cfg.cache.storage_bytes = std::size_t{32} << 20;
  cfg.snapshot_every_us = spec.snapshot_every_us;
  // Hold every record one server journals (at most ~2.9 MB at full
  // scale) without a self-compaction: each compaction charges the modelled
  // snapshot cost, so a smaller initial capacity would change the cells'
  // virtual times.
  cfg.journal_cap_bytes = std::size_t{8} << 20;
  return cfg;
}

CellResult run_cell(std::uint64_t nkeys, const CellSpec& spec) {
  // All writes must ack strictly before the crash instant; budget virtual
  // time generously per put and verify the schedule held afterwards.
  const double crash_us = 50000.0 + static_cast<double>(nkeys) * 100.0;
  const double restart_us = crash_us + 20000.0;
  const double end_us = restart_us + 2000.0;

  rmasim::Engine::Config ecfg = benchx::modeled_engine(kRanks);
  fault::Plan plan;
  if (spec.crash) {
    plan.crash_rank(kCrashRank, crash_us, restart_us);
    if (spec.torn_prob > 0.0) plan.torn_writes(spec.torn_prob);
    if (spec.corrupt_prob > 0.0) plan.corrupt_journal(spec.corrupt_prob);
  }
  ecfg.injector = std::make_shared<fault::Injector>(plan);
  rmasim::Engine e(ecfg);

  kv::StoreConfig cfg = store_cfg(nkeys, spec);
  if (spec.devices) cfg.devices = kv::Store::make_device_set(cfg);

  auto outs = std::make_shared<std::vector<CellResult>>(kRanks);
  e.run([=, &outs](Process& p) {
    kv::Store store(p, cfg);
    const bool server = p.rank() < kServers;
    CellResult& out = (*outs)[static_cast<std::size_t>(p.rank())];
    std::vector<std::byte> buf(cfg.layout.value_capacity);
    std::vector<std::uint32_t> acked(nkeys, 0);

    if (!server) {
      const std::uint64_t client = static_cast<std::uint64_t>(p.rank() - kServers);
      store.window().lock_all();
      const double t0 = p.now_us();
      for (std::uint32_t seq = 1; seq <= kRounds; ++seq) {
        for (std::uint64_t i = client; i < nkeys; i += kClients) {
          const std::uint64_t key = store.key_at(i);
          kv::fill_value(key, seq, kVlen, buf.data());
          kv::PutMeta pm;
          if (store.put(key, seq, buf.data(), kVlen, &pm) && pm.applied > 0) {
            acked[i] = seq;
          }
        }
      }
      out.write_elapsed_us = p.now_us() - t0;
      out.appends = store.window().stats().kv_journal_appends;
      if (spec.crash && p.now_us() >= crash_us) out.schedule_violated = true;
      store.window().unlock_all();
    }
    p.barrier();  // every write acked, strictly before the crash instant

    if (server) {
      // crash_tick is a no-op until the restart instant passes, then runs
      // the whole recovery protocol synchronously inside one call
      // (rmasim's baton only switches at sync points, so the loop is
      // time-bounded rather than flag-driven).
      while (p.now_us() < end_us) {
        p.compute_us(500.0);
        store.crash_tick();
      }
    } else {
      benchx::advance_to(p, end_us);
    }
    p.barrier();  // outage over, the crashed server recovered

    if (spec.corrupt_prob > 0.0 && p.rank() == kServers) {
      // Rot that landed on a record's key bytes leaves no readable
      // suspect, so recovery's pull-repair cannot name every stale slot.
      // The convergence layer closes the gap: two full anti-entropy
      // passes rewrite whatever the suspect repair missed.
      store.window().lock_all();
      for (int pass = 0; pass < 2; ++pass) {
        out.ae_repairs += store.anti_entropy_step(nkeys);
      }
      store.window().unlock_all();
    }
    p.barrier();  // reconciliation quiesced before verification

    if (!server) {
      store.window().lock_all();
      store.invalidate_cache();
      for (std::uint64_t i = 0; i < nkeys; ++i) {
        if (acked[i] == 0) continue;
        ++out.acked;
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta gm;
        bool ok = false;
        for (int attempt = 0; attempt < 10 && !ok; ++attempt) {
          ok = store.get_uncached(key, buf.data(), &gm);
          if (!ok) p.compute_us(1000.0);
        }
        if (!ok) {
          ++out.unreachable;
        } else if (gm.seq < acked[i] ||
                   !kv::check_value(key, gm.seq, gm.len, buf.data())) {
          ++out.lost;
        }
      }
      store.window().unlock_all();
    } else if (p.rank() == kCrashRank) {
      const Stats& st = store.window().stats();
      out.replayed = st.kv_journal_replayed;
      out.torn_dropped = st.kv_torn_records_dropped;
      out.snapshot_loads = st.kv_snapshot_loads;
      out.recovery_repairs = st.kv_recovery_repairs;
      out.restarts_handled = store.crash_restarts_handled();
    }
    p.barrier();  // verification reads quiesced before the ground truth
    if (p.rank() == kServers && spec.replication > 1) {
      store.window().lock_all();
      out.conv = store.verify_convergence();
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });

  CellResult r;
  for (int c = 0; c < kRanks; ++c) {
    const CellResult& o = (*outs)[static_cast<std::size_t>(c)];
    r.acked += o.acked;
    r.lost += o.lost;
    r.unreachable += o.unreachable;
    r.appends += o.appends;
    r.replayed += o.replayed;
    r.torn_dropped += o.torn_dropped;
    r.snapshot_loads += o.snapshot_loads;
    r.recovery_repairs += o.recovery_repairs;
    r.ae_repairs += o.ae_repairs;
    r.restarts_handled += o.restarts_handled;
    r.schedule_violated = r.schedule_violated || o.schedule_violated;
    r.write_elapsed_us = std::max(r.write_elapsed_us, o.write_elapsed_us);
  }
  r.conv = (*outs)[kServers].conv;
  return r;
}

/// The gates of one cell, chosen by what its spec turns on.
void gate_cell(benchx::Sweep& sweep, const CellSpec& spec, const CellResult& r) {
  const char* cell = spec.name;
  if (spec.crash) {
    // Shared preconditions of every crash cell: the schedule held (writes
    // acked before the crash), writes exist, recovery ran exactly once,
    // and every key stayed reachable afterwards.
    sweep.gate(!r.schedule_violated, "%s: writes overran the crash instant", cell);
    sweep.gate(r.acked > 0, "%s: no acknowledged writes", cell);
    sweep.gate(r.unreachable == 0, "%s: keys unreachable after recovery", cell);
    sweep.gate(r.restarts_handled == 1, "%s: recovery did not run exactly once", cell);
  }
  if (spec.crash && !spec.devices) {
    // Journaling off: the crash must provably destroy acks, or the
    // schedule never put anything at risk and the other gates are void.
    sweep.gate(r.lost > 0, "%s: no loss with journaling off", cell);
  } else {
    sweep.gate(r.lost == 0, "%s: acknowledged writes lost", cell);
  }
  if (spec.torn_prob > 0.0) {  // replay alone must save every ack
    sweep.gate(r.appends > 0, "%s: no journal appends", cell);
    sweep.gate(r.replayed > 0, "%s: no journal replay", cell);
    sweep.gate(r.torn_dropped > 0, "%s: torn tail never discarded", cell);
  }
  if (spec.snapshot_every_us > 0.0) {
    sweep.gate(r.snapshot_loads > 0, "%s: no snapshot restored", cell);
  }
  if (spec.corrupt_prob > 0.0) {  // the recovered shard must agree with its peer
    sweep.gate(r.recovery_repairs > 0, "%s: no peer repairs", cell);
    sweep.gate(r.conv.keys_checked > 0, "%s: convergence never checked", cell);
    sweep.gate(r.conv.keys_divergent == 0 && r.conv.keys_unreachable == 0,
               "%s: recovered replica diverges from peer", cell);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchx::Sweep sweep("durability_sweep", "BENCH_kv_durability.json", argc, argv);
  const std::uint64_t nkeys = benchx::scaled(std::uint64_t{1} << 15, 2048);
  sweep.header(benchx::Fields()
                   .num("nkeys", nkeys)
                   .num("rounds", kRounds)
                   .num("clients", kClients)
                   .num("servers", kServers));

  const CellSpec cells[] = {
      // replication 1 + torn tail: replay alone must save every ack.
      {"journal", 1, /*devices=*/true, /*crash=*/true, /*torn=*/1.0, /*corrupt=*/0.0,
       /*snap=*/0.0},
      // recovery restores the image, replay covers the tail.
      {"journal_snapshot", 1, true, true, 0.0, 0.0, /*snap=*/5000.0},
      {"control", 1, /*devices=*/false, true, 0.0, 0.0, 0.0},
      // Sparse rot: the Corruptor draws per BYTE, so 2e-5 over a ~1 MB
      // journal is a few dozen rotted records — dense enough to exercise
      // the checksum/resync/repair machinery, sparse enough that the live
      // peer still holds a clean copy of everything.
      {"journal_corrupt", 2, true, true, 0.0, /*corrupt=*/2e-5, 0.0},
      // The journaling cost with no fault in sight (docs/PERF.md).
      {"overhead_on", 1, true, /*crash=*/false, 0.0, 0.0, 0.0},
      {"overhead_off", 1, false, /*crash=*/false, 0.0, 0.0, 0.0},
  };
  sweep.cells(
      cells, [&](const CellSpec& s) { return run_cell(nkeys, s); },
      [&](const CellSpec& s, const CellResult& r) {
        sweep.row(benchx::Fields()
                      .str("cell", s.name)
                      .num("replication", s.replication)
                      .num("nkeys", nkeys)
                      .flag("crash", s.crash)
                      .num("torn_write_prob", "%.2f", s.torn_prob)
                      .num("journal_corrupt_prob", "%.6f", s.corrupt_prob)
                      .num("snapshot_every_us", "%.0f", s.snapshot_every_us)
                      .num("acked", r.acked)
                      .num("lost", r.lost)
                      .num("unreachable", r.unreachable)
                      .num("journal_appends", r.appends)
                      .num("journal_replayed", r.replayed)
                      .num("torn_records_dropped", r.torn_dropped)
                      .num("snapshot_loads", r.snapshot_loads)
                      .num("recovery_repairs", r.recovery_repairs)
                      .num("ae_repairs", r.ae_repairs)
                      .num("restarts_handled", r.restarts_handled)
                      .num("keys_divergent", r.conv.keys_divergent)
                      .num("keys_checked", r.conv.keys_checked)
                      .num("write_elapsed_us", "%.1f", r.write_elapsed_us));
        gate_cell(sweep, s, r);
      });
  return sweep.finish();
}

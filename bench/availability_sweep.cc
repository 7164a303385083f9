// Availability sweep: get-availability and goodput after rank death,
// with and without bounded-staleness degraded reads (docs/FAULTS.md §6).
//
// Rank 0 reads a per-server hot set (32 keys x 1 KiB) from 4 server
// ranks in transparent mode. A swept number of servers dies mid-epoch;
// the reader then keeps iterating over the hot set. Three variants:
//
//   clampi-degraded  kTransparent + health detector + degraded_reads:
//                    the dead flush materializes in-flight data as
//                    last-known-good entries, the transparent epoch
//                    invalidation retains them, and warmed keys keep
//                    serving within the staleness bound.
//   clampi           same window, degraded_reads off: transparent
//                    invalidation drops everything, every post-death get
//                    against a dead server fails.
//   none             raw rmasim gets (no cache at all).
//
// The harness independently tracks which (target, key) pairs were ever
// cached and what bytes each server exposes, and counts a *violation*
// whenever a degraded read serves a never-cached key, reports an age
// over the configured staleness bound, or returns wrong bytes. The
// process exits nonzero on any violation — and also if the headline
// acceptance fails: with deaths injected, the degraded variant must keep
// dead-target availability above zero while the uncached baseline is at
// exactly zero. CI gates on this binary (see .github/workflows/ci.yml).
//
// Output (stdout and BENCH_availability.json, or argv[1]), everything
// virtual-time modelled and deterministic:
//   {"bench":"availability_sweep","results":[
//     {"dead_servers":2,"variant":"clampi-degraded","attempted_dead":...,
//      "served_dead":...,"avail_dead":...,"served_alive":...,
//      "degraded_hits":...,"fast_fails":...,"max_age_us":...,
//      "goodput_mb_per_s":...,"violations":0}, ...],
//    "acceptance":{"violations":0,"pass":true}}
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "clampi/clampi.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "rt/engine.h"

namespace {

using namespace clampi;
using rmasim::Process;

constexpr int kServers = 4;            // ranks 1..4 serve, rank 0 reads
constexpr int kRanks = kServers + 1;
constexpr int kKeys = 32;              // hot-set size per server
constexpr std::size_t kBytes = 1024;   // per key
constexpr int kRounds = 3;             // post-death passes over the hot set
constexpr double kDeathUs = 20000.0;   // all deaths at the same instant
constexpr double kStaleBoundUs = 1e6;  // degraded-read staleness bound

std::uint8_t pattern_at(std::size_t i, int rank) {
  return static_cast<std::uint8_t>((i * 7 + rank * 13) & 0xff);
}

void fill_pattern(void* base, std::size_t n, int rank) {
  auto* b = static_cast<std::uint8_t*>(base);
  for (std::size_t i = 0; i < n; ++i) b[i] = pattern_at(i, rank);
}

enum class Variant { kDegraded, kClampi, kNone };
constexpr const char* kVariantNames[] = {"clampi-degraded", "clampi", "none"};

struct Spec {
  int dead_servers;
  Variant variant;
};

struct Cell {
  long attempted_dead = 0;
  long served_dead = 0;
  long attempted_alive = 0;
  long served_alive = 0;
  long degraded_hits = 0;
  long fast_fails = 0;
  long violations = 0;
  double max_age_us = 0.0;
  double elapsed_us = 0.0;
  double bytes_served = 0.0;

  double avail_dead() const {
    return attempted_dead > 0
               ? static_cast<double>(served_dead) / static_cast<double>(attempted_dead)
               : 0.0;
  }
  double goodput_mb_per_s() const {
    return elapsed_us > 0.0 ? bytes_served / elapsed_us : 0.0;  // B/us == MB/s
  }
};

rmasim::Engine::Config engine_cfg(int dead_servers) {
  rmasim::Engine::Config cfg = benchx::modeled_engine(kRanks);
  fault::Plan plan;
  for (int s = 0; s < dead_servers; ++s) plan.kill_rank(1 + s, kDeathUs);
  if (!plan.trivial()) cfg.injector = std::make_shared<fault::Injector>(plan);
  return cfg;
}

bool is_dead(int target, int dead_servers) {
  return target >= 1 && target <= dead_servers;
}

/// CLaMPI reader, transparent mode; `degraded` toggles the survivability
/// policy under test.
Cell run_clampi(int dead_servers, bool degraded) {
  Config ccfg;
  ccfg.mode = Mode::kTransparent;
  ccfg.index_entries = 512;
  ccfg.storage_bytes = 512 * 1024;
  ccfg.health_failure_threshold = 3;
  ccfg.degraded_reads = degraded;
  ccfg.degraded_max_staleness_us = kStaleBoundUs;

  rmasim::Engine e(engine_cfg(dead_servers));
  auto cell = std::make_shared<Cell>();
  e.run([ccfg, dead_servers, cell](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, kKeys * kBytes, &base, ccfg);
    fill_pattern(base, kKeys * kBytes, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(kBytes);
      // Warm epoch: fetch every key from every server while all are
      // alive, then cross the death instant with the epoch still open.
      // The data arrived, so the failed flush materializes it as
      // last-known-good entries; which keys are warm is tracked here,
      // independently of the cache's own bookkeeping. Every in-flight
      // get needs its own origin slice (RMA semantics: the origin
      // buffer must stay untouched until the epoch completes — misses
      // copy user buffer -> S_w at flush).
      std::vector<bool> warmed(static_cast<std::size_t>(kRanks) * kKeys, false);
      std::vector<std::uint8_t> warmbuf(
          static_cast<std::size_t>(kServers) * kKeys * kBytes);
      for (int t = 1; t <= kServers; ++t) {
        for (int k = 0; k < kKeys; ++k) {
          const std::size_t slot =
              (static_cast<std::size_t>(t - 1) * kKeys + static_cast<std::size_t>(k)) *
              kBytes;
          win.get(warmbuf.data() + slot, kBytes, t,
                  static_cast<std::size_t>(k) * kBytes);
          warmed[static_cast<std::size_t>(t) * kKeys + static_cast<std::size_t>(k)] = true;
        }
      }
      p.compute_us(kDeathUs + 5000.0 - p.now_us());
      try {
        win.flush_all();
      } catch (const fault::OpFailedError&) {
        // expected whenever dead_servers > 0
      }

      const double t0 = p.now_us();
      for (int round = 0; round < kRounds; ++round) {
        for (int t = 1; t <= kServers; ++t) {
          for (int k = 0; k < kKeys; ++k) {
            const bool dead = is_dead(t, dead_servers);
            (dead ? cell->attempted_dead : cell->attempted_alive) += 1;
            const std::size_t disp = static_cast<std::size_t>(k) * kBytes;
            bool ok = false;
            try {
              win.get(buf.data(), kBytes, t, disp);
              ok = true;
            } catch (const fault::OpFailedError&) {
            }
            if (!ok) continue;
            (dead ? cell->served_dead : cell->served_alive) += 1;
            cell->bytes_served += static_cast<double>(kBytes);
            if (!dead) continue;
            // A serve against a dead server must be an honest degraded
            // read: flagged as such, within its staleness bound, of a
            // key the harness saw cached, with the server's bytes.
            if (!win.last_was_degraded()) ++cell->violations;
            const double age = win.last_degraded_age_us();
            if (age > kStaleBoundUs) ++cell->violations;
            if (age > cell->max_age_us) cell->max_age_us = age;
            if (!warmed[static_cast<std::size_t>(t) * kKeys +
                        static_cast<std::size_t>(k)]) {
              ++cell->violations;
            }
            for (std::size_t j = 0; j < kBytes; ++j) {
              if (buf[j] != pattern_at(disp + j, t)) {
                ++cell->violations;
                break;
              }
            }
          }
        }
        try {
          win.flush_all();  // epoch boundary: alive targets complete
        } catch (const fault::OpFailedError&) {
        }
      }
      cell->elapsed_us = p.now_us() - t0;
      const Stats st = win.stats();
      cell->degraded_hits = static_cast<long>(st.degraded_hits);
      cell->fast_fails = static_cast<long>(st.fast_fails);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  return *cell;
}

/// Baseline: raw rmasim gets, no cache anywhere.
Cell run_uncached(int dead_servers) {
  rmasim::Engine e(engine_cfg(dead_servers));
  auto cell = std::make_shared<Cell>();
  e.run([dead_servers, cell](Process& p) {
    void* base = nullptr;
    const rmasim::Window w = p.win_allocate(kKeys * kBytes, &base);
    fill_pattern(base, kKeys * kBytes, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      std::vector<std::uint8_t> buf(kBytes);
      for (int t = 1; t <= kServers; ++t) {  // warm pass (alive everywhere)
        for (int k = 0; k < kKeys; ++k) {
          p.get(buf.data(), kBytes, t, static_cast<std::size_t>(k) * kBytes, w);
        }
      }
      p.compute_us(kDeathUs + 5000.0 - p.now_us());
      try {
        p.flush_all(w);
      } catch (const fault::OpFailedError&) {
      }

      const double t0 = p.now_us();
      for (int round = 0; round < kRounds; ++round) {
        for (int t = 1; t <= kServers; ++t) {
          for (int k = 0; k < kKeys; ++k) {
            const bool dead = is_dead(t, dead_servers);
            (dead ? cell->attempted_dead : cell->attempted_alive) += 1;
            try {
              p.get(buf.data(), kBytes, t, static_cast<std::size_t>(k) * kBytes, w);
              p.flush(t, w);
              (dead ? cell->served_dead : cell->served_alive) += 1;
              cell->bytes_served += static_cast<double>(kBytes);
            } catch (const fault::OpFailedError&) {
            }
          }
        }
      }
      cell->elapsed_us = p.now_us() - t0;
    }
    p.barrier();
    p.win_free(w);
  });
  return *cell;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::Sweep sweep("availability_sweep", "BENCH_availability.json", argc, argv);
  std::vector<Spec> specs;
  for (const int dead : {0, 1, 2, 4}) {
    for (const Variant v : {Variant::kDegraded, Variant::kClampi, Variant::kNone}) {
      specs.push_back({dead, v});
    }
  }

  long violations = 0;
  sweep.cells(
      specs,
      [](const Spec& s) {
        return s.variant == Variant::kNone
                   ? run_uncached(s.dead_servers)
                   : run_clampi(s.dead_servers, s.variant == Variant::kDegraded);
      },
      [&](const Spec& s, const Cell& c) {
        const char* variant = kVariantNames[static_cast<int>(s.variant)];
        sweep.row(benchx::Fields()
                      .num("dead_servers", s.dead_servers)
                      .str("variant", variant)
                      .num("attempted_dead", c.attempted_dead)
                      .num("served_dead", c.served_dead)
                      .num("avail_dead", "%.4f", c.avail_dead())
                      .num("attempted_alive", c.attempted_alive)
                      .num("served_alive", c.served_alive)
                      .num("degraded_hits", c.degraded_hits)
                      .num("fast_fails", c.fast_fails)
                      .num("max_age_us", "%.1f", c.max_age_us)
                      .num("goodput_mb_per_s", "%.3f", c.goodput_mb_per_s())
                      .num("violations", c.violations));
        sweep.gate(c.violations == 0,
                   "dead_servers=%d %s: %ld staleness/coverage violations",
                   s.dead_servers, variant, c.violations);
        violations += c.violations;
        if (s.dead_servers == 0) return;
        // Headline acceptance: degraded reads keep dead-target availability
        // above zero; the uncached baseline (and the degraded-off cache in
        // transparent mode) drop to exactly zero.
        if (s.variant == Variant::kDegraded) {
          sweep.gate(c.avail_dead() > 0.0,
                     "dead_servers=%d %s: no dead-target get served", s.dead_servers,
                     variant);
        } else {
          sweep.gate(c.served_dead == 0,
                     "dead_servers=%d %s: %ld dead-target gets served", s.dead_servers,
                     variant, c.served_dead);
        }
      });
  return sweep.finish(benchx::Fields().num("violations", violations));
}

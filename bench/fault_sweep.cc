// Fault sweep: effective get latency under injected faults, cached vs
// uncached.
//
// 7 reader ranks fetch a 64-key x 1 KiB hot set from rank 0 while the
// fault plan injects transient failures (swept probability) and degrades
// rank 0's service time (swept latency factor). The CLaMPI variant runs
// kAlwaysCache with a 6-retry policy (cached keys are full hits that never
// touch the network, degraded target or not); the uncached variant issues
// raw rmasim gets with the same manual retry loop.
//
// Output (stdout and BENCH_fault.json, or argv[1]):
//   {"bench":"fault_sweep","results":[
//     {"fail_prob":0.1,"degrade_factor":4,"cache":"clampi",
//      "avg_get_us":...,"served":...,"retries":...,"giveups":...}, ...],
//    "acceptance":{"mismatches":0,"pass":true}}
//
// Everything is virtual-time modelled, so the numbers are deterministic
// across runs and machines. Rank 0's window holds a known pattern and every
// served get is checked against it; any mismatch fails the gate and makes
// the binary exit nonzero.
#include <cstdint>
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

constexpr int kRanks = 8;             // rank 0 serves, ranks 1..7 read
constexpr int kKeys = 64;             // hot-set size
constexpr std::size_t kBytes = 1024;  // per key
constexpr int kRounds = 3;            // passes over the hot set per reader
constexpr int kMaxRetries = 6;
constexpr double kBackoffUs = 4.0;
constexpr double kBackoffFactor = 2.0;  // CLaMPI's fixed per-retry growth

struct Spec {
  double fail_prob;
  double degrade_factor;
  bool cached;
};

struct Cell {
  double total_get_us = 0.0;
  long served = 0;
  long retries = 0;
  long giveups = 0;
  long mismatches = 0;  // served gets whose bytes differ from the pattern

  double avg_get_us() const {
    return served > 0 ? total_get_us / static_cast<double>(served) : 0.0;
  }
};

std::uint8_t pattern_at(std::size_t i) {
  return static_cast<std::uint8_t>((i * 7 + 13) & 0xff);
}

/// Rank 0 exposes the pattern, so a get that serves the wrong bytes shows.
void fill_pattern(void* base) {
  auto* bytes = static_cast<std::uint8_t*>(base);
  for (std::size_t i = 0; i < kKeys * kBytes; ++i) bytes[i] = pattern_at(i);
}

void record_served(const std::vector<std::uint8_t>& buf, std::size_t disp, double us,
                   Cell* cell) {
  cell->total_get_us += us;
  ++cell->served;
  for (std::size_t j = 0; j < buf.size(); ++j) {
    if (buf[j] != pattern_at(disp + j)) {
      ++cell->mismatches;
      return;
    }
  }
}

rmasim::Engine::Config engine_cfg(const Spec& s) {
  fault::Plan plan;
  if (s.fail_prob > 0.0) plan.fail_everywhere(s.fail_prob);
  if (s.degrade_factor > 1.0) {
    plan.degrade_rank(0, s.degrade_factor, 0.0, fault::kForever);
  }
  rmasim::Engine::Config cfg = benchx::modeled_engine(kRanks);
  cfg.injector = std::make_shared<fault::Injector>(plan);
  return cfg;
}

/// CLaMPI readers: kAlwaysCache + retry policy in the window.
Cell run_cached(const Spec& s) {
  Config ccfg;
  ccfg.mode = Mode::kAlwaysCache;
  ccfg.index_entries = 512;
  ccfg.storage_bytes = 256 * 1024;
  ccfg.max_retries = kMaxRetries;
  ccfg.retry_backoff_us = kBackoffUs;

  rmasim::Engine e(engine_cfg(s));
  auto cell = std::make_shared<Cell>();
  e.run([ccfg, cell](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, kKeys * kBytes, &base, ccfg);
    if (p.rank() == 0) fill_pattern(base);
    p.barrier();
    if (p.rank() != 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(kBytes);
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const std::size_t disp = static_cast<std::size_t>(k) * kBytes;
          const double t0 = p.now_us();
          try {
            win.get(buf.data(), kBytes, 0, disp);
            win.flush_all();
            record_served(buf, disp, p.now_us() - t0, cell.get());
          } catch (const fault::OpFailedError&) {
            ++cell->giveups;
          }
        }
      }
      cell->retries += static_cast<long>(win.stats().retries);
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  return *cell;
}

/// Baseline: raw rmasim gets with the same retry loop done by hand.
Cell run_uncached(const Spec& s) {
  rmasim::Engine e(engine_cfg(s));
  auto cell = std::make_shared<Cell>();
  e.run([cell](Process& p) {
    void* base = nullptr;
    const rmasim::Window w = p.win_allocate(kKeys * kBytes, &base);
    if (p.rank() == 0) fill_pattern(base);
    p.barrier();
    if (p.rank() != 0) {
      std::vector<std::uint8_t> buf(kBytes);
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const std::size_t disp = static_cast<std::size_t>(k) * kBytes;
          const double t0 = p.now_us();
          bool ok = false;
          double backoff = kBackoffUs;
          for (int attempt = 0; attempt <= kMaxRetries && !ok; ++attempt) {
            try {
              p.get(buf.data(), kBytes, 0, disp, w);
              p.flush(0, w);
              ok = true;
            } catch (const fault::OpFailedError&) {
              if (attempt == kMaxRetries) break;
              ++cell->retries;
              p.compute_us(backoff);
              backoff *= kBackoffFactor;
            }
          }
          if (ok) {
            record_served(buf, disp, p.now_us() - t0, cell.get());
          } else {
            ++cell->giveups;
          }
        }
      }
    }
    p.barrier();
    p.win_free(w);
  });
  return *cell;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::Sweep sweep("fault_sweep", "BENCH_fault.json", argc, argv);
  std::vector<Spec> specs;
  for (const double df : {1.0, 4.0, 16.0}) {
    for (const double fp : {0.0, 0.05, 0.1, 0.2, 0.4}) {
      specs.push_back({fp, df, /*cached=*/true});
      specs.push_back({fp, df, /*cached=*/false});
    }
  }

  long mismatches = 0;
  sweep.cells(
      specs, [](const Spec& s) { return s.cached ? run_cached(s) : run_uncached(s); },
      [&](const Spec& s, const Cell& c) {
        const char* cache = s.cached ? "clampi" : "none";
        sweep.row(benchx::Fields()
                      .num("fail_prob", "%g", s.fail_prob)
                      .num("degrade_factor", "%g", s.degrade_factor)
                      .str("cache", cache)
                      .num("avg_get_us", "%.3f", c.avg_get_us())
                      .num("served", c.served)
                      .num("retries", c.retries)
                      .num("giveups", c.giveups));
        sweep.gate(c.mismatches == 0,
                   "fail_prob=%g degrade_factor=%g cache=%s: %ld served gets "
                   "returned wrong bytes",
                   s.fail_prob, s.degrade_factor, cache, c.mismatches);
        mismatches += c.mismatches;
      });
  return sweep.finish(benchx::Fields().num("mismatches", mismatches));
}

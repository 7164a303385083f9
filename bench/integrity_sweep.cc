// Integrity sweep: corruption rate x breaker threshold, with escape
// detection (docs/INTEGRITY.md).
//
// One reader cycles a 32-key x 512 B hot set on rank 1 while the fault
// plan flips cached bits at a swept per-byte-per-epoch rate. Hit-time
// verification and a small scrub budget are on for every cell; the
// breaker threshold is swept from "disabled" to "hair trigger". Every
// served byte is checked against the known remote pattern — a mismatch is
// a *corruption escape*, i.e. rotted bytes that reached the application.
// With verification on, escapes must be zero at every swept rate; the
// binary exits nonzero otherwise so CI can gate on it.
//
// Output (stdout and BENCH_integrity.json, or argv[1]):
//   {"bench":"integrity_sweep","results":[
//     {"bitflip_prob":1e-4,"breaker_threshold":4,"gets":...,
//      "hit_ratio":...,"bitflips":...,"detected":...,"self_heals":...,
//      "scrub_scanned":...,"scrub_corruptions":...,"trips":...,
//      "recloses":...,"passthrough_gets":...,"time_in_open_us":...,
//      "corruption_escapes":0,"avg_get_us":...}, ...],
//    "acceptance":{"corruption_escapes":0,"pass":true}}
//
// Everything is virtual-time modelled, so the numbers are deterministic
// across runs and machines.
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

constexpr int kKeys = 32;            // hot-set size
constexpr std::size_t kBytes = 512;  // per key
constexpr int kRounds = 30;          // passes over the hot set

struct Spec {
  double bitflip_prob;
  int breaker_threshold;
};

struct Cell {
  long gets = 0;
  long escapes = 0;
  double total_get_us = 0.0;
  double time_in_open_us = 0.0;
  Stats stats;

  double hit_ratio() const {
    return gets > 0 ? static_cast<double>(stats.hits_full) / static_cast<double>(gets)
                    : 0.0;
  }
  double avg_get_us() const {
    return gets > 0 ? total_get_us / static_cast<double>(gets) : 0.0;
  }
};

std::uint8_t pattern_at(std::size_t i, int rank) {
  return static_cast<std::uint8_t>((i * 7 + static_cast<std::size_t>(rank) * 13) & 0xff);
}

Cell run_cell(const Spec& spec) {
  fault::Plan plan;
  plan.corrupt_storage(spec.bitflip_prob);
  rmasim::Engine::Config ecfg = benchx::modeled_engine(2);
  ecfg.injector = std::make_shared<fault::Injector>(plan);

  Config ccfg;
  ccfg.mode = Mode::kAlwaysCache;
  ccfg.index_entries = 512;
  ccfg.storage_bytes = 256 * 1024;
  ccfg.verify_every_n = 1;          // verify every hit: escapes must be zero
  ccfg.scrub_entries_per_epoch = 4;
  ccfg.breaker_failure_threshold = spec.breaker_threshold;
  ccfg.breaker_window_us = 20000.0;
  ccfg.breaker_open_us = 2000.0;
  ccfg.breaker_probe_every_n = 4;
  ccfg.breaker_halfopen_successes = 4;

  rmasim::Engine e(ecfg);
  auto cell = std::make_shared<Cell>();
  e.run([ccfg, cell](Process& p) {
    void* base = nullptr;
    auto win = CachedWindow::allocate(p, kKeys * kBytes, &base, ccfg);
    auto* bytes = static_cast<std::uint8_t*>(base);
    for (std::size_t i = 0; i < kKeys * kBytes; ++i) bytes[i] = pattern_at(i, p.rank());
    p.barrier();
    if (p.rank() == 0) {
      win.lock_all();
      std::vector<std::uint8_t> buf(kBytes);
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const std::size_t disp = static_cast<std::size_t>(k) * kBytes;
          const double t0 = p.now_us();
          win.get(buf.data(), kBytes, 1, disp);
          win.flush_all();
          cell->total_get_us += p.now_us() - t0;
          ++cell->gets;
          for (std::size_t j = 0; j < kBytes; ++j) {
            if (buf[j] != pattern_at(disp + j, 1)) {
              ++cell->escapes;
              break;  // count escaped gets, not escaped bytes
            }
          }
        }
      }
      cell->stats = win.stats();
      cell->time_in_open_us = win.breaker_time_in_open_us();
      win.unlock_all();
    }
    p.barrier();
    win.free_window();
  });
  return *cell;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::Sweep sweep("integrity_sweep", "BENCH_integrity.json", argc, argv);
  std::vector<Spec> specs;
  for (const int bt : {0, 16, 64}) {  // 0 = breaker disabled
    for (const double bp : {0.0, 1e-5, 1e-4, 1e-3}) specs.push_back({bp, bt});
  }

  long escapes = 0;
  sweep.cells(specs, run_cell, [&](const Spec& spec, const Cell& c) {
    const Stats& s = c.stats;
    sweep.row(benchx::Fields()
                  .num("bitflip_prob", "%g", spec.bitflip_prob)
                  .num("breaker_threshold", spec.breaker_threshold)
                  .num("gets", c.gets)
                  .num("hit_ratio", "%.3f", c.hit_ratio())
                  .num("bitflips", s.storage_bitflips)
                  .num("detected", s.corruption_detected)
                  .num("self_heals", s.self_heals)
                  .num("scrub_scanned", s.scrub_entries_scanned)
                  .num("scrub_corruptions", s.scrub_corruptions)
                  .num("trips", s.breaker_trips)
                  .num("recloses", s.breaker_recloses)
                  .num("passthrough_gets", s.breaker_passthrough_gets)
                  .num("time_in_open_us", "%.1f", c.time_in_open_us)
                  .num("corruption_escapes", c.escapes)
                  .num("avg_get_us", "%.3f", c.avg_get_us()));
    sweep.gate(c.escapes == 0,
               "bitflip_prob=%g breaker_threshold=%d: %ld corrupted gets escaped "
               "verification",
               spec.bitflip_prob, spec.breaker_threshold, c.escapes);
    escapes += c.escapes;
  });
  return sweep.finish(benchx::Fields().num("corruption_escapes", escapes));
}

// cache_explorer — an offline CLaMPI configuration explorer.
//
// Feeds a get trace (recorded from an application, or a synthetic
// micro-workload) through CacheCore under a grid of configurations and
// prints the resulting access statistics, so |I_w| / |S_w| / eviction
// policy can be tuned without re-running the application.
//
// Usage:
//   cache_explorer                            # built-in synthetic trace
//   cache_explorer trace.txt                  # replay a recorded trace
//   cache_explorer trace.txt 4096,16384 1M,8M # sweep |I_w| and |S_w|
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "clampi/health.h"
#include "clampi/info.h"
#include "clampi/trace.h"
#include "util/rng.h"

using namespace clampi;

namespace {

trace::Trace synthetic_trace() {
  // The Sec. IV-A micro-workload shape: 1K distinct gets, normal reuse.
  trace::Trace t;
  util::Xoshiro256 rng(1);
  std::vector<std::uint64_t> disp(1000);
  std::vector<std::uint64_t> size(1000);
  std::uint64_t cursor = 0;
  for (int i = 0; i < 1000; ++i) {
    size[i] = std::uint64_t{1} << rng.bounded(17);
    disp[i] = cursor;
    cursor += size[i];
  }
  for (int z = 0; z < 50000; ++z) {
    double g = 0;
    for (int k = 0; k < 12; ++k) g += rng.uniform();  // ~normal via CLT
    const auto i = static_cast<std::size_t>(
        std::min(999.0, std::max(0.0, (g - 6.0) / 3.0 * 250.0 + 500.0)));
    t.add_get(1, disp[i], size[i]);
    if (z % 16 == 15) t.add_flush_all();
  }
  t.add_flush_all();
  return t;
}

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  trace::Trace t;
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    t = trace::Trace::load(in);
  } else {
    t = synthetic_trace();
  }
  std::printf("trace: %zu gets, %zu distinct keys, %.2f MiB total, largest %llu B\n",
              t.num_gets(), t.distinct_keys(),
              static_cast<double>(t.total_bytes()) / (1 << 20),
              static_cast<unsigned long long>(t.max_bytes()));

  // Survivability preview: traces recorded with the health detector on
  // carry `h <target> <state>` annotations (docs/FAULTS.md §6). Replay
  // skips them; summarize them here so a recorded incident is visible.
  std::size_t health_events = 0, quarantines = 0, recoveries = 0;
  for (const auto& ev : t.events) {
    if (ev.kind != trace::Event::Kind::kHealth) continue;
    ++health_events;
    quarantines += ev.disp == static_cast<std::uint64_t>(HealthState::kQuarantined);
    recoveries += ev.disp == static_cast<std::uint64_t>(HealthState::kHealthy);
  }
  if (health_events > 0) {
    std::printf("health: %zu transitions (%zu quarantines, %zu recoveries)\n",
                health_events, quarantines, recoveries);
  }

  const auto index_sweep = split(argc > 2 ? argv[2] : "512,1024,2048,4096");
  const auto storage_sweep = split(argc > 3 ? argv[3] : "1M,4M,16M");

  std::printf("%-8s %-8s %-8s %7s %7s %7s %7s %7s %7s %7s %7s\n", "index", "storage",
              "score", "hit%", "partial", "direct", "confl", "capac", "fail",
              "prb/get", "fbin%");
  for (const auto& iw : index_sweep) {
    for (const auto& sw : storage_sweep) {
      for (const ScoreKind score :
           {ScoreKind::kFull, ScoreKind::kTemporal, ScoreKind::kPositional}) {
        Config cfg;
        cfg.mode = Mode::kAlwaysCache;
        cfg.index_entries = std::strtoull(iw.c_str(), nullptr, 10);
        cfg.storage_bytes = parse_size(sw);
        cfg.score = score;
        CacheCore core(cfg);
        const Stats st = trace::replay_core(t, core);
        const double total = static_cast<double>(st.total_gets ? st.total_gets : 1);
        const std::uint64_t allocs = st.storage_fastbin_allocs + st.storage_tree_allocs;
        std::printf("%-8s %-8s %-8s %6.1f%% %7.3f %7.3f %7.3f %7.3f %7.3f %7.2f %6.1f%%\n",
                    iw.c_str(), sw.c_str(), to_string(score), 100.0 * st.hit_ratio(),
                    static_cast<double>(st.hits_partial) / total,
                    static_cast<double>(st.direct) / total,
                    static_cast<double>(st.conflicting) / total,
                    static_cast<double>(st.capacity) / total,
                    static_cast<double>(st.failing) / total,
                    static_cast<double>(st.index_probes) / total,
                    100.0 * static_cast<double>(st.storage_fastbin_allocs) /
                        static_cast<double>(allocs ? allocs : 1));
      }
    }
  }

  // Integrity-guard preview: replay once more with hit-time verification
  // and scrubbing enabled (docs/INTEGRITY.md) so the checksum work a
  // deployment would pay is visible next to the plain numbers. Offline
  // replay has no bit rot, so detections must be zero.
  Config icfg;
  icfg.mode = Mode::kAlwaysCache;
  icfg.index_entries = std::strtoull(index_sweep.back().c_str(), nullptr, 10);
  icfg.storage_bytes = parse_size(storage_sweep.back());
  icfg.verify_every_n = 1;
  icfg.scrub_entries_per_epoch = 64;
  CacheCore icore(icfg);
  const Stats ist = trace::replay_core(t, icore);
  std::printf(
      "\nintegrity (verify_every_n=1, scrub=64/epoch at %s/%s):\n"
      "  checksum_verifications %llu, scrub_entries_scanned %llu,\n"
      "  corruption_detected %llu, self_heals %llu, scrub_corruptions %llu\n",
      index_sweep.back().c_str(), storage_sweep.back().c_str(),
      static_cast<unsigned long long>(ist.checksum_verifications),
      static_cast<unsigned long long>(ist.scrub_entries_scanned),
      static_cast<unsigned long long>(ist.corruption_detected),
      static_cast<unsigned long long>(ist.self_heals),
      static_cast<unsigned long long>(ist.scrub_corruptions));
  return 0;
}

// Shared infrastructure for the figure-reproduction benchmarks.
//
// Every bench binary prints self-describing CSV rows:
//   # <figure id>: <description>
//   # col1,col2,...
//   val1,val2,...
// so `for b in build/bench/*; do $b; done` regenerates every figure's
// data series. Problem sizes default to the scaled-down values recorded
// in EXPERIMENTS.md; set CLAMPI_BENCH_SCALE (0 < s <= 1) to shrink them
// further for smoke runs.
//
// The gated sweeps (*_sweep.cc) print one JSON document instead, through
// the Sweep driver below.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clampi/stats.h"
#include "kv/store.h"
#include "kv/workload.h"
#include "metrics/stats.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"

namespace clampi::benchx {

/// Engine with the Aries-calibrated model and the measured-time policy
/// (cache-management costs are real, the network is modelled; DESIGN.md).
inline rmasim::Engine::Config default_engine(int nranks) {
  rmasim::Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = net::make_aries_model(/*ranks_per_node=*/1);
  cfg.time_policy = rmasim::TimePolicy::kMeasured;
  return cfg;
}

/// Deterministic variant for structural figures (occupancy, histograms).
inline rmasim::Engine::Config modeled_engine(int nranks) {
  rmasim::Engine::Config cfg = default_engine(nranks);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

/// CLAMPI_BENCH_SCALE, or 1 when unset. Anything but a number in (0, 1]
/// ends the run with status 2: a typo must not silently run full scale.
inline double bench_scale() {
  const char* s = std::getenv("CLAMPI_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v > 0.0 && v <= 1.0)) {
    std::fprintf(stderr, "CLAMPI_BENCH_SCALE=\"%s\" is not a number in (0, 1]\n", s);
    std::exit(2);
  }
  return v;
}

inline std::size_t scaled(std::size_t n, std::size_t min_n = 1) {
  const auto v = static_cast<std::size_t>(static_cast<double>(n) * bench_scale());
  return v < min_n ? min_n : v;
}

/// Median with the paper's 95%-CI-within-5% repetition rule.
using metrics::RepetitionController;
using metrics::Summary;
using metrics::summarize;

inline void header(const char* fig, const char* what, const char* columns) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // rows appear as they are computed
  std::printf("# %s: %s\n# %s\n", fig, what, columns);
}

// --- Sweep driver ----------------------------------------------------------

/// An ordered list of JSON fields, each value formatted when it is added.
class Fields {
 public:
  /// A floating-point value in its own printf format ("%.3f", "%g").
  Fields& num(const char* key, const char* fmt, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return add(key, buf);
  }
  /// An integer, in decimal.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Fields& num(const char* key, T v) {
    return add(key, std::to_string(v));
  }
  Fields& str(const char* key, const char* v) {
    return add(key, std::string("\"") + v + "\"");
  }
  Fields& flag(const char* key, bool v) { return add(key, v ? "true" : "false"); }

  bool empty() const { return items_.empty(); }

  /// `"k1":v1,"k2":v2`
  std::string json() const {
    std::string out;
    for (const auto& [k, v] : items_) out += (out.empty() ? "\"" : ",\"") + k + "\":" + v;
    return out;
  }
  /// `k1=v1 k2=v2`, strings unquoted
  std::string text() const {
    std::string out;
    for (const auto& [k, v] : items_) {
      const bool quoted = v.size() >= 2 && v.front() == '"';
      out += (out.empty() ? "" : " ") + k + "=" +
             (quoted ? v.substr(1, v.size() - 2) : v);
    }
    return out;
  }

 private:
  Fields& add(const char* key, std::string v) {
    items_.emplace_back(key, std::move(v));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> items_;
};

/// One gated sweep. It writes the document
///   {"bench":"<name>",<header>,"results":[
///       {<row>},
///       ...
///     ],
///     "acceptance":{<fields>,"pass":true}}
/// to stdout and to argv[1] (else `default_path`), echoes every row to
/// stderr as one `<name>: k=v ...` line, and reports every failed gate
/// as `<name>: GATE FAILED: <reason>`. finish() returns the exit status:
/// 0 when every gate held and the file was written, 1 otherwise.
class Sweep {
 public:
  /// Checks CLAMPI_BENCH_SCALE first: a malformed value exits 2.
  Sweep(const char* name, const char* default_path, int argc, char** argv)
      : name_(name), path_(argc > 1 ? argv[1] : default_path) {
    bench_scale();
  }

  /// Fields between "bench" and "results" (problem sizes, topology).
  void header(Fields f) { header_ = std::move(f); }

  void row(const Fields& f) {
    rows_ += (rows_.empty() ? "\n    {" : ",\n    {") + f.json() + "}";
    std::fprintf(stderr, "%s: %s\n", name_.c_str(), f.text().c_str());
  }

  /// Records a gate; a false `ok` prints the reason and fails the sweep.
  __attribute__((format(printf, 3, 4))) bool gate(bool ok, const char* fmt, ...) {
    if (ok) return true;
    ++failed_gates_;
    std::va_list args;
    va_start(args, fmt);
    char reason[256];
    std::vsnprintf(reason, sizeof reason, fmt, args);
    va_end(args);
    std::fprintf(stderr, "%s: GATE FAILED: %s\n", name_.c_str(), reason);
    return false;
  }

  /// Runs each independent cell of `specs` in table order; `report`
  /// turns a cell's result into rows and gates.
  template <class Specs, class Run, class Report>
  void cells(const Specs& specs, Run run, Report report) {
    for (const auto& spec : specs) report(spec, run(spec));
  }

  bool passed() const { return failed_gates_ == 0; }

  int finish(const Fields& acceptance = Fields()) {
    std::string doc = "{\"bench\":\"" + name_ + "\"";
    if (!header_.empty()) doc += "," + header_.json();
    doc += ",\"results\":[" + rows_ + "\n  ],\n  \"acceptance\":{";
    if (!acceptance.empty()) doc += acceptance.json() + ",";
    doc += std::string("\"pass\":") + (passed() ? "true" : "false") + "}}\n";

    std::fputs(doc.c_str(), stdout);
    FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(), path_.c_str());
      return 1;
    }
    std::fputs(doc.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "%s: wrote %s\n", name_.c_str(), path_.c_str());
    if (!passed()) {
      std::fprintf(stderr, "%s: ACCEPTANCE FAILED (%d gate(s))\n", name_.c_str(),
                   failed_gates_);
      return 1;
    }
    return 0;
  }

 private:
  std::string name_;
  std::string path_;
  Fields header_;
  std::string rows_;
  int failed_gates_ = 0;
};

// --- KV sweep helpers ------------------------------------------------------

inline void advance_to(rmasim::Process& p, double t_us) {
  if (p.now_us() < t_us) p.compute_us(t_us - p.now_us());
}

/// Warm the Zipf hot set with gets while every server is up, then cross
/// the fault instant `cross_us` with no epoch open. Returns the warm-up's
/// shadow-check mismatches.
inline std::uint64_t warm_then_cross(rmasim::Process& p, kv::Store& store, int client,
                                     int nclients, double skew, bool use_cache,
                                     double cross_us) {
  kv::WorkloadConfig warm;
  warm.ops = std::min<std::uint64_t>(store.config().nkeys, 8000);
  warm.get_ratio = 1.0;
  warm.zipf_s = skew;
  warm.epoch_ops = warm.ops + 1;
  warm.use_cache = use_cache;
  warm.seed = 0x7761726dull;
  kv::Driver warmer(store, warm, client, nclients);
  const std::uint64_t mismatches = warmer.run(p).mismatches;
  advance_to(p, cross_us);
  return mismatches;
}

/// One client's harvest of a KV run.
struct ClientOut {
  kv::WorkloadReport rep;
  Stats stats;
};

/// Sums per-client results: counts add up, times and latency percentiles
/// take the slowest client.
inline void absorb(ClientOut& sum, const ClientOut& c) {
  kv::WorkloadReport& s = sum.rep;
  const kv::WorkloadReport& r = c.rep;
  for (auto m : {&kv::WorkloadReport::attempted, &kv::WorkloadReport::served,
                 &kv::WorkloadReport::gets, &kv::WorkloadReport::puts,
                 &kv::WorkloadReport::bucket_reads, &kv::WorkloadReport::chain_follows,
                 &kv::WorkloadReport::cached_hits, &kv::WorkloadReport::version_rereads,
                 &kv::WorkloadReport::degraded_serves, &kv::WorkloadReport::rerouted,
                 &kv::WorkloadReport::put_replicas_applied,
                 &kv::WorkloadReport::put_replicas_skipped,
                 &kv::WorkloadReport::put_replicas_hinted,
                 &kv::WorkloadReport::read_repairs,
                 &kv::WorkloadReport::antientropy_repairs,
                 &kv::WorkloadReport::mismatches, &kv::WorkloadReport::hedged_gets,
                 &kv::WorkloadReport::hedge_wins, &kv::WorkloadReport::ops_shed,
                 &kv::WorkloadReport::deadline_misses}) {
    s.*m += r.*m;
  }
  for (auto m : {&kv::WorkloadReport::elapsed_us, &kv::WorkloadReport::p50_us,
                 &kv::WorkloadReport::p99_us, &kv::WorkloadReport::max_us}) {
    s.*m = std::max(s.*m, r.*m);
  }
  for (const StatsField& f : kStatsFields) sum.stats.*f.member += c.stats.*f.member;
}

}  // namespace clampi::benchx

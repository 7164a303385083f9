// Shared machinery of the repository benchmark (perfbench/README.md):
// command-line arguments, wall clocks, sample statistics, the in-memory
// span trace and the metric report every workload fills in.
//
// The benchmark times and counts only at the calls it makes itself into
// each layer's public functions and hooks; nothing under src/ is patched.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Fixed-work mode: stop after this many timed kv ops / this many LCC
  /// solves instead of after `seconds` (the count-repeatability check).
  std::uint64_t ops = 0;
  /// Self-test: corrupt one byte of the served data after the reference
  /// is fixed; the correctness check must then fail.
  bool plant_corruption = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

inline double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile of `v` (sorts it); 0 for an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// f(round) for every round whose `traced` flag equals `traced`.
template <class Round, class F>
std::vector<double> of_rounds(const std::vector<Round>& rounds, bool traced, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) {
    if (r.traced == traced) v.push_back(f(r));
  }
  return v;
}

/// Process resource usage (all threads), for the rt layer's deltas and
/// the peak-RSS metric.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;
  double minor_faults = 0.0;
  double max_rss_mb = 0.0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
    u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
    u.minor_faults = static_cast<double>(ru.ru_minflt);
    u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    return u;
  }
  Usage minus(const Usage& b) const {
    return {user_s - b.user_s, sys_s - b.sys_s, ctx_switches - b.ctx_switches,
            minor_faults - b.minor_faults, max_rss_mb};
  }
};

/// In-memory span trace, written out once at exit. A span is one call
/// the benchmark made into a layer; events are what a layer reported
/// back through its public hooks while that call ran (get_c observations,
/// runtime operations) and attach to the enclosing span by op id.
class Trace {
 public:
  struct Span {
    const char* name;
    int rank;
    std::int64_t op;      ///< workload op id (-1: not a per-op span)
    std::int64_t parent;  ///< index of the parent span (-1: root)
    std::int64_t wall_start_ns, wall_end_ns;
    double virt_start_us, virt_end_us;
  };
  struct Event {
    const char* name;
    int rank;
    std::int64_t op;      ///< op id of the enclosing span
    std::int64_t parent;  ///< index of the enclosing span
    std::int64_t wall_ns;
    double virt_us;       ///< < 0 when the hook carries no virtual time
    const char* kind;     ///< access type / op kind
    int target;
    std::uint64_t bytes;
    double cost_ns[4];    ///< CacheCore phases (lookup, copy, insert, eviction)
  };

  /// Spans and events beyond these caps are counted, not kept, so a long
  /// traced run stays within a few tens of MB.
  static constexpr std::size_t kMaxSpans = 200000;
  static constexpr std::size_t kMaxEvents = 400000;

  /// Keep a span; returns its index, or -1 once the cap is reached.
  std::int64_t span(const Span& s) {
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  /// Open a span whose end is not known yet (its events need its index).
  std::int64_t open(const char* name, int rank, std::int64_t op, std::int64_t parent) {
    return span({name, rank, op, parent, wall_ns(), 0, 0.0, 0.0});
  }
  void close(std::int64_t idx, double virt_start_us, double virt_end_us) {
    if (idx < 0) return;
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.wall_end_ns = wall_ns();
    s.virt_start_us = virt_start_us;
    s.virt_end_us = virt_end_us;
  }
  void event(const Event& e) {
    if (events_.size() >= kMaxEvents) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }
  std::size_t size() const { return spans_.size() + events_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// JSON lines: one object per span, then one per event.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"span\":%zu,\"name\":\"%s\",\"rank\":%d,\"op\":%lld,\"parent\":%lld,"
                   "\"wall_ns\":[%lld,%lld],\"virt_us\":[%.3f,%.3f]}\n",
                   i, s.name, s.rank, static_cast<long long>(s.op),
                   static_cast<long long>(s.parent), static_cast<long long>(s.wall_start_ns),
                   static_cast<long long>(s.wall_end_ns), s.virt_start_us, s.virt_end_us);
    }
    for (const Event& e : events_) {
      std::fprintf(f,
                   "{\"event\":\"%s\",\"rank\":%d,\"op\":%lld,\"parent\":%lld,\"wall_ns\":%lld,"
                   "\"virt_us\":%.3f,\"kind\":\"%s\",\"target\":%d,\"bytes\":%llu,"
                   "\"core_ns\":[%.0f,%.0f,%.0f,%.0f]}\n",
                   e.name, e.rank, static_cast<long long>(e.op),
                   static_cast<long long>(e.parent), static_cast<long long>(e.wall_ns),
                   e.virt_us, e.kind, e.target, static_cast<unsigned long long>(e.bytes),
                   e.cost_ns[0], e.cost_ns[1], e.cost_ns[2], e.cost_ns[3]);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
};

/// Every metric a run measured, printed as `name = value unit (n=...)`
/// lines and once more as the final JSON line that perfbench/run.py
/// reads. Which of them end up in the final result is run.py's business.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::uint64_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  /// A line of the human-readable notes (diagnoses, breakdowns).
  void note(const std::string& line) { notes_.push_back(line); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void print(const std::string& workload, bool trace) const {
    for (const auto& n : notes_) std::printf("note: %s\n", n.c_str());
    for (const auto& m : metrics_) {
      if (m.samples > 0) {
        std::printf("metric %-36s = %.6g %s (n=%llu)\n", m.name.c_str(), m.value,
                    m.unit.c_str(), static_cast<unsigned long long>(m.samples));
      } else {
        std::printf("metric %-36s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::printf("{\"workload\":\"%s\",\"trace\":%s,\"correct\":%s,\"attempted\":%llu,"
                "\"failed\":%llu,\"metrics\":{",
                workload.c_str(), trace ? "true" : "false", failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%llu}",
                  i == 0 ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::uint64_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Workload entry points (kv_workloads.cc, lcc_workload.cc). Each returns
/// after filling `rep`; a harness error throws.
void run_kv(const Args& args, Report& rep);
void run_lcc(const Args& args, Report& rep);

/// Split a 64-bit workload seed into independent per-purpose streams.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + purpose * 0xbf58476d1ce4e5b9ull + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

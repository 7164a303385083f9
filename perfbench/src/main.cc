// perfbench: the repository benchmark binary (perfbench/README.md).
//
//   perfbench --workload kv_serve|kv_update|lcc_rmat --seed N --seconds S
//             --trace 0|1 [--ops N] [--plant-corruption] [--trace-out FILE]
//
// Prints one `metric name = value unit` line per measured metric and, as
// its last line, a JSON object with every metric. Exits 1 when any output
// failed its correctness check, 2 on a usage or harness error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload kv_serve|kv_update|lcc_rmat "
               "--seed N --seconds S --trace 0|1 [--ops N] [--plant-corruption] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

perfbench::Args parse(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--plant-corruption") {
      a.plant_corruption = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--ops") {
      a.ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = parse(argc, argv);
  perfbench::Report rep;
  try {
    if (args.workload == "kv_serve" || args.workload == "kv_update") {
      perfbench::run_kv(args, rep);
    } else if (args.workload == "lcc_rmat") {
      perfbench::run_lcc(args, rep);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  rep.add("peak_rss_mb", perfbench::Usage::now().max_rss_mb, "MB");
  rep.add("failed_frac",
          perfbench::ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
          "fraction", rep.attempted);
  rep.print(args.workload, args.trace);
  return rep.failed == 0 ? 0 : 1;
}

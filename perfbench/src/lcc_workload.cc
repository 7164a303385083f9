// lcc_rmat: distributed LCC (graph::DistributedLcc) on an R-MAT graph over
// four ranks, CLaMPI in always-cache mode with adaptive sizing starting
// from fig15's starved configuration (perfbench/README.md).
//
// Every round is one cold solve that users pay in full: generate the
// graph, build the engine and the solver (set-up), then solve. Rounds
// repeat until the run's seconds are spent (at least kMinRounds), and
// the end-to-end numbers are medians over rounds. Every coefficient of
// every round is compared with graph::lcc_reference, computed once,
// outside both timed regions. With --trace 1 rounds alternate untraced
// and traced; the untraced ones give the tracing overhead's baseline, the
// traced ones count runtime ops and record per-rank solve spans.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "graph/lcc.h"
#include "graph/rmat.h"
#include "harness.h"
#include "layers.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"

namespace perfbench {
namespace {

using namespace clampi;

constexpr int kRanks = 4;
constexpr int kScale = 16;
constexpr int kEdgeFactor = 16;
constexpr int kMinRounds = 3;

graph::LccConfig lcc_config() {
  graph::LccConfig cfg;
  cfg.backend = graph::LccBackend::kClampi;
  cfg.clampi_cfg.mode = Mode::kAlwaysCache;
  cfg.clampi_cfg.index_entries = std::size_t{4} << 10;
  cfg.clampi_cfg.storage_bytes = std::size_t{2} << 20;
  cfg.clampi_cfg.adaptive = true;
  cfg.clampi_cfg.adapt_interval = 4096;  // fig15's setting
  return cfg;
}

struct Round {
  bool traced = false;
  double setup_s = 0.0, rmat_s = 0.0, engine_s = 0.0, solver_s = 0.0;
  double solve_wall_s = 0.0, run_wall_s = 0.0;
  std::vector<double> compute_us, comm_us;  ///< per rank
  std::uint64_t remote_gets = 0, vertices = 0, wrong = 0;
  Stats stats{};  ///< summed over ranks
  std::size_t final_index_entries = 0, final_storage_bytes = 0;
  Usage usage;
  RtTally rt;

  double solve_us() const { return *std::max_element(compute_us.begin(), compute_us.end()); }
};

/// Change one byte of one adjacency entry of the highest-degree vertex,
/// keeping its list sorted: the solve must then disagree with the
/// reference computed from the intact graph.
void plant_corruption(graph::Csr& g) {
  graph::Vertex hub = 0;
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  const std::uint64_t lo = g.offsets[hub], hi = g.offsets[hub + 1];
  for (std::uint64_t k = lo; k + 1 < hi; ++k) {
    if ((g.adj[k] & 0xffu) != 0xffu && g.adj[k] + 1 < g.adj[k + 1] && g.adj[k] + 1 != hub) {
      ++g.adj[k];
      return;
    }
  }
  throw std::runtime_error("plant_corruption: no corruptible adjacency entry");
}

/// One cold solve; `trace` (traced rounds only) receives the round's
/// set-up span and one solve span per rank.
Round run_round(const Args& args, int index, std::vector<double>& reference, Trace* trace) {
  Round r;
  r.traced = trace != nullptr;
  const double t0 = wall_s();
  auto g = std::make_shared<graph::Csr>(graph::rmat_graph(
      {.scale = kScale, .edge_factor = kEdgeFactor, .seed = derive_seed(args.seed, 3)}));
  r.rmat_s = wall_s() - t0;
  // The benchmark's own work, outside both timed regions.
  if (reference.empty()) reference = graph::lcc_reference(*g);
  if (args.plant_corruption) plant_corruption(*g);
  const std::shared_ptr<const graph::Csr> graph_ro = g;
  const std::size_t n = g->num_vertices();

  rmasim::Engine::Config ecfg;
  ecfg.nranks = kRanks;
  ecfg.model = net::make_aries_model(/*ranks_per_node=*/1);
  ecfg.time_policy = rmasim::TimePolicy::kMeasured;
  if (r.traced) {
    const std::shared_ptr<const net::Model> model = ecfg.model;
    RtTally* rt = &r.rt;
    ecfg.op_observer = [rt, model](const fault::OpDesc& d, bool) {
      if (rt->counting) rt->observe(d, *model);
    };
  }

  const double t1 = wall_s();
  rmasim::Engine engine(ecfg);
  std::vector<double> coeff(n, 0.0);
  r.compute_us.assign(kRanks, 0.0);
  r.comm_us.assign(kRanks, 0.0);
  std::vector<Stats> stats(kRanks);
  std::vector<std::uint64_t> remote(kRanks, 0);
  std::vector<std::size_t> idx(kRanks, 0), storage(kRanks, 0);
  std::vector<Trace::Span> solve_spans(kRanks);
  double t_rank0 = 0.0, t_ready = 0.0, t_solved = 0.0;
  const Usage u0 = Usage::now();
  const graph::LccConfig cfg = lcc_config();
  engine.run([&](rmasim::Process& p) {
    const auto me = static_cast<std::size_t>(p.rank());
    if (me == 0) t_rank0 = wall_s();
    graph::DistributedLcc solver(p, graph_ro, cfg);
    p.barrier();
    if (me == 0) {
      t_ready = wall_s();
      r.rt.counting = true;
    }
    const double v0 = p.now_us();
    const std::int64_t w0 = wall_ns();
    const graph::DistributedLcc::Report rep = solver.run();
    solve_spans[me] = {"graph.solve", p.rank(), index, -1, w0, wall_ns(), v0, p.now_us()};
    if (me == 0) {
      t_solved = wall_s();
      r.rt.counting = false;
    }
    r.compute_us[me] = rep.compute_us;
    r.comm_us[me] = rep.comm_us;
    remote[me] = rep.remote_gets;
    std::copy(solver.local_lcc().begin(), solver.local_lcc().end(),
              coeff.begin() + solver.first_vertex());
    if (const Stats* s = solver.clampi_stats()) stats[me] = *s;
    idx[me] = solver.clampi_index_entries();
    storage[me] = solver.clampi_storage_bytes();
    p.barrier();
  });
  r.run_wall_s = wall_s() - t_rank0;
  r.usage = Usage::now().minus(u0);
  r.engine_s = t_rank0 - t1;
  r.solver_s = t_ready - t_rank0;
  r.setup_s = r.rmat_s + (t_ready - t1);
  r.solve_wall_s = t_solved - t_ready;
  for (int k = 0; k < kRanks; ++k) {
    const auto i = static_cast<std::size_t>(k);
    r.remote_gets += remote[i];
    add_stats(r.stats, stats[i]);
    r.final_index_entries += idx[i];
    r.final_storage_bytes += storage[i];
  }
  if (trace != nullptr) {
    trace->span({"setup.round", -1, index, -1, static_cast<std::int64_t>(t0 * 1e9),
                 static_cast<std::int64_t>(t_ready * 1e9), 0.0, 0.0});
    for (const Trace::Span& sp : solve_spans) trace->span(sp);
  }
  r.vertices = n;
  for (std::size_t v = 0; v < n; ++v) {
    if (coeff[v] != reference[v]) ++r.wrong;
  }
  return r;
}

}  // namespace

void run_lcc(const Args& args, Report& rep) {
  std::vector<double> reference;
  std::vector<Round> rounds;
  Trace trace;
  const double t_start = wall_s();
  for (int i = 0;; ++i) {
    const bool enough = args.ops > 0 ? static_cast<std::uint64_t>(i) >= args.ops
                                     : i >= kMinRounds && wall_s() - t_start >= args.seconds;
    if (enough) break;
    rounds.push_back(run_round(args, i, reference, args.trace && i % 2 == 1 ? &trace : nullptr));
  }
  const double n = static_cast<double>(rounds.front().vertices);

  std::vector<double> setup, rmat, engine, solver;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    rmat.push_back(r.rmat_s);
    engine.push_back(r.engine_s);
    solver.push_back(r.solver_s);
    rep.attempted += r.vertices;
    rep.failed += r.wrong;
  }
  rep.add("setup_s", median(setup), "s", setup.size());
  rep.add("setup.engine_s", median(engine), "s", engine.size());
  rep.add("setup.rmat_s", median(rmat), "s", rmat.size());
  rep.add("setup.solver_s", median(solver), "s", solver.size());

  const auto solve_us = of_rounds(rounds, false, [](const Round& r) { return r.solve_us(); });
  const auto solve_wall = of_rounds(rounds, false, [](const Round& r) { return r.solve_wall_s; });
  rep.add("kops_per_s", ratio(n * 1e3, median(solve_us)), "kop/s", solve_us.size());
  rep.add("wall_kops_per_s", ratio(n * 1e-3, median(solve_wall)), "kop/s", solve_wall.size());
  rep.add("solve_us", median(solve_us), "us", solve_us.size());
  rep.add("solve_wall_s", median(solve_wall), "s", solve_wall.size());
  rep.add("lcc.vertices", n, "count");
  rep.add("lcc.wrong_vertices", static_cast<double>(rep.failed), "count");
  if (!args.trace) return;

  // Per-layer numbers from the last traced round.
  const Round* tr = nullptr;
  for (const Round& r : rounds) {
    if (r.traced) tr = &r;
  }
  const Stats& d = tr->stats;
  double compute_sum = 0.0;
  for (double c : tr->compute_us) compute_sum += c;

  rep.add("graph.compute_us", tr->solve_us(), "us");
  rep.add("graph.comm_us", *std::max_element(tr->comm_us.begin(), tr->comm_us.end()), "us");
  rep.add("graph.comm_share",
          ratio(*std::max_element(tr->comm_us.begin(), tr->comm_us.end()), tr->solve_us()),
          "fraction");
  rep.add("graph.remote_gets", static_cast<double>(tr->remote_gets), "count");
  rep.add("graph.imbalance", ratio(tr->solve_us(), compute_sum / kRanks), "x");

  report_clampi(rep, d, 0.0, tr->final_index_entries, tr->final_storage_bytes);
  report_rt(rep, tr->rt, n, compute_sum, tr->run_wall_s, tr->usage);

  // The kv layer and put invalidation do nothing on this workload.
  rep.add("kv.hit_frac", 0.0, "fraction");
  rep.add("kv.bucket_reads_per_get", 0.0, "count/op");
  rep.add("kv.chain_follows_per_get", 0.0, "count/op");
  rep.add("kv.replicas_per_put", 0.0, "count/op");
  rep.add("kv.journal_appends", 0.0, "count");
  rep.add("kv.put.wall_share", 0.0, "fraction");
  rep.add("kv.get_hit.core_share", 0.0, "fraction");

  const auto traced_wall = of_rounds(rounds, true, [](const Round& r) { return r.solve_wall_s; });
  rep.add("trace.wall_overhead", ratio(median(traced_wall), median(solve_wall)), "x");
  if (!trace.write(args.trace_out)) {
    throw std::runtime_error("cannot write trace to " + args.trace_out);
  }
  rep.add("trace.records", static_cast<double>(trace.size()), "count");
}

}  // namespace perfbench

// kv_serve and kv_update: one closed-loop client against three kv::Store
// servers on the measured clock (perfbench/README.md).
//
// A run is kRounds engine lifetimes. Each builds the whole system (timed
// as set-up), runs an untimed warm-up of gets, then measures seconds /
// kRounds in batches of kBatchOps ops; the end-to-end numbers are medians
// over rounds, so one slow stretch of the shared host cannot move them. The op
// stream is generated between batches, outside every timer; the shadow
// check runs outside the per-op now_us() brackets, so under kMeasured
// only the store's own work is billed to an op. With --trace 1 every
// other round is traced: the traced rounds give the per-layer numbers,
// the untraced ones the tracing overhead's baseline.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "harness.h"
#include "layers.h"
#include "kv/store.h"
#include "netmodel/hierarchy.h"
#include "rt/engine.h"
#include "util/rng.h"
#include "util/skew.h"

namespace perfbench {
namespace {

using namespace clampi;

constexpr int kServers = 3;
constexpr int kRanks = 4;
constexpr int kClient = 3;  // the one client rank; ranks [0, kServers) serve
constexpr std::uint64_t kKeys = std::uint64_t{1} << 20;
constexpr double kZipf = 0.99;
constexpr std::uint64_t kWarmupGets = std::uint64_t{1} << 19;
/// Ops generated (outside every timer) and timed per batch.
constexpr std::uint64_t kBatchOps = 256;
/// Engine lifetimes per run; each builds the system afresh (new memory
/// placement), warms up and measures seconds / kRounds. End-to-end
/// numbers are medians over rounds.
constexpr int kRounds = 5;
/// Per-call samples kept for the per-layer quantiles (the first ones of
/// the traced rounds); bounds the traced run's memory.
constexpr std::size_t kMaxSamples = 1u << 20;

struct Spec {
  double get_ratio;
  std::uint32_t capacity;
  std::uint32_t put_len_min, put_len_max;
  std::uint32_t initial_len;  ///< 0: the store's per-key length in [8, capacity]
  int replication;
  bool journal;
};

Spec spec_for(const std::string& workload) {
  if (workload == "kv_serve") return {0.95, 32, 32, 32, 32, 1, false};
  return {0.50, 96, 48, 96, 0, 2, true};  // kv_update
}

kv::StoreConfig store_config(const Spec& s, bool phase_timings) {
  kv::StoreConfig c;
  c.nkeys = kKeys;
  c.nservers = kServers;
  c.replication = s.replication;
  c.layout.value_capacity = s.capacity;
  c.initial_value_len = s.initial_len;
  // kv_sweep's gated cells: epochs are the kv layer's job.
  c.cache.mode = Mode::kUserDefined;
  c.cache.adaptive = false;
  c.cache.index_entries = std::size_t{1} << 17;
  c.cache.storage_bytes = std::size_t{64} << 20;
  c.cache.collect_phase_timings = phase_timings;
  if (s.journal) {
    c.group_commit_n = 8;
    c.devices = kv::Store::make_device_set(c);
  }
  return c;
}

struct Op {
  std::uint32_t rank;  ///< Zipf rank of the key (kv::Store::key_at)
  std::uint32_t len;   ///< put value length; 0 for a get
};

/// The client's op stream: a pure function of (seed, spec).
class OpStream {
 public:
  OpStream(std::uint64_t seed, const Spec& s) : rng_(seed), zipf_(kKeys, kZipf), spec_(s) {}

  void fill(std::vector<Op>& out, std::size_t n, bool gets_only) {
    out.resize(n);
    for (Op& op : out) {
      op.rank = static_cast<std::uint32_t>(zipf_(rng_));
      const bool get = gets_only || rng_.uniform() < spec_.get_ratio;
      op.len = get ? 0
                   : spec_.put_len_min + static_cast<std::uint32_t>(rng_.bounded(
                                             spec_.put_len_max - spec_.put_len_min + 1));
    }
  }

 private:
  util::Xoshiro256 rng_;
  util::ZipfSampler zipf_;
  Spec spec_;
};

/// Exact expected state of every key: the client is the only writer, so
/// each key's seq and length are known; values are self-describing
/// (kv/bucket.h), so every served byte is checked too.
class Shadow {
 public:
  explicit Shadow(const Spec& s) : seq_(kKeys, 0), len_(kKeys, 0), spec_(s) {}

  bool get_ok(std::uint64_t rank, std::uint64_t key, const kv::GetMeta& m,
              const std::byte* value) const {
    if (m.seq != seq_[rank] || m.len == 0 || m.len > spec_.capacity) return false;
    const std::uint32_t want = len_[rank] != 0 ? len_[rank] : spec_.initial_len;
    if (want != 0 && m.len != want) return false;
    return kv::check_value(key, m.seq, m.len, value);
  }
  std::uint32_t next_seq(std::uint64_t rank) const { return seq_[rank] + 1; }
  void applied(std::uint64_t rank, std::uint32_t seq, std::uint32_t len) {
    seq_[rank] = seq;
    len_[rank] = static_cast<std::uint8_t>(len);
  }

 private:
  std::vector<std::uint32_t> seq_;
  std::vector<std::uint8_t> len_;
  Spec spec_;
};

void keep(std::vector<float>& v, double x) {
  if (v.size() < kMaxSamples) v.push_back(static_cast<float>(x));
}

double q_of(const std::vector<float>& v, double q) {
  std::vector<double> d(v.begin(), v.end());
  return quantile(d, q);
}

/// What the traced round records at the layer boundaries it can see.
struct Tally {
  // Current kv op, for attaching hook callbacks to it.
  std::int64_t op = -1;
  std::int64_t span = -1;
  double op_core_ns = 0.0;
  // kv spans (wall ns) by outcome, and self time (span minus CacheCore).
  std::vector<float> get_hit_ns, get_miss_ns, put_ns, get_hit_core_ns, get_hit_rest_ns;
  double kv_ns = 0.0, kv_put_ns = 0.0, kv_core_ns = 0.0;
  std::uint64_t kv_ops = 0;
  // clampi: CacheCore phases per get_c, where the phase ran.
  std::vector<float> lookup_ns, copy_ns, insert_ns, eviction_ns;
  // rt + netmodel: runtime operations of the timed phases.
  RtTally rt;
  double virt_us = 0.0;  ///< summed in-call virtual time of the traced ops
  double wall_s = 0.0;   ///< wall time of the traced timed batches
};

/// Corrupt one value byte of the key the first timed get reads (and no
/// earlier timed put rewrites) on its primary server, and drop the
/// client's cache, so that get must fetch the corrupted bytes.
void plant_corruption(rmasim::Process& p, kv::Store& store, const std::vector<Op>& first_batch) {
  std::vector<std::uint32_t> written;
  std::uint64_t key = 0;
  for (const Op& op : first_batch) {
    if (op.len != 0) {
      written.push_back(op.rank);
    } else if (std::find(written.begin(), written.end(), op.rank) == written.end()) {
      key = store.key_at(op.rank);
      break;
    }
  }
  int reps[kv::kMaxReplicas];
  store.ring().replicas(key, store.config().replication, reps);
  const rmasim::Window w = store.window().raw();
  std::byte* base = p.win_raw(w, reps[0]);
  const kv::Layout& lay = store.config().layout;
  const std::size_t bb = lay.bucket_bytes();
  const std::size_t nb = p.win_size(w, reps[0]) / bb;
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::uint32_t s = 0; s < lay.slots_per_bucket; ++s) {
      std::byte* slot = base + b * bb + lay.slot_offset(s);
      if (kv::load_slot_meta(slot).key != key) continue;
      slot[kv::Layout::kSlotHeaderBytes] ^= std::byte{0x01};
      store.invalidate_cache();
      return;
    }
  }
  throw std::runtime_error("plant_corruption: target key not found on its primary");
}

/// One engine lifetime: set-up, warm-up, one slice of the timed phase.
struct Round {
  bool traced = false;
  double setup_s = 0.0, engine_s = 0.0, store_load_s = 0.0;
  double run_wall_s = 0.0, verify_s = 0.0;
  Usage usage;  ///< getrusage delta around Engine::run
  std::uint64_t ops = 0, gets = 0, puts = 0, failed = 0, checked = 0;
  std::uint64_t bucket_reads = 0, cached_hits = 0, chain_follows = 0, replicas = 0;
  std::uint64_t divergent = 0;
  double virt_us = 0.0;  ///< summed in-call virtual time of the timed ops
  double wall_s = 0.0;   ///< wall time of the timed batches
  double get_p50 = 0.0, get_p99 = 0.0, put_p50 = 0.0, put_p99 = 0.0;
  Stats delta{};  ///< CacheCore counters over the timed phase
  std::size_t final_index_entries = 0, final_storage_bytes = 0;

  double kops_per_s() const { return ratio(static_cast<double>(ops) * 1e3, virt_us); }
  double wall_kops_per_s() const { return ratio(static_cast<double>(ops) * 1e-3, wall_s); }
};

/// The client's work in a round: warm-up, timed slice, checks.
void client_main(rmasim::Process& p, kv::Store& store, const Spec& spec, const Args& args,
                 double seconds, bool verify, Tally* tally, Trace* trace, Round& out) {
  CachedWindow& win = store.window();
  Shadow shadow(spec);
  std::vector<std::byte> value(spec.capacity), put_buf(spec.capacity);
  std::vector<Op> ops;
  std::vector<float> get_us, put_us;
  win.lock_all();

  OpStream warm(derive_seed(args.seed, 1), spec);
  warm.fill(ops, kWarmupGets, /*gets_only=*/true);
  for (const Op& op : ops) {
    const std::uint64_t key = store.key_at(op.rank);
    kv::GetMeta m;
    const bool ok = store.get(key, value.data(), &m);
    ++out.checked;
    if (!ok || !shadow.get_ok(op.rank, key, m, value.data())) ++out.failed;
  }
  if (args.plant_corruption) {
    OpStream peek(derive_seed(args.seed, 2), spec);
    peek.fill(ops, kBatchOps, /*gets_only=*/false);
    plant_corruption(p, store, ops);
  }

  if (tally != nullptr) {
    win.observe_gets([tally, trace, &win](const CachedWindow::GetObservation& o) {
      const PhaseBreakdown& ph = win.last_phases();
      tally->op_core_ns += ph.total_ns();
      if (ph.lookup_ns > 0.0) keep(tally->lookup_ns, ph.lookup_ns);
      if (ph.copy_ns > 0.0) keep(tally->copy_ns, ph.copy_ns);
      if (ph.insert_ns > 0.0) keep(tally->insert_ns, ph.insert_ns);
      if (ph.eviction_ns > 0.0) keep(tally->eviction_ns, ph.eviction_ns);
      if (tally->span >= 0) {
        trace->event({"clampi.get_c", kClient, tally->op, tally->span, wall_ns(), -1.0,
                      to_string(o.type), o.target, o.bytes,
                      {ph.lookup_ns, ph.copy_ns, ph.insert_ns, ph.eviction_ns}});
      }
    });
    tally->rt.counting = true;
  }
  const Stats base = win.stats();
  const double phase_v0 = p.now_us();
  const std::int64_t phase_span =
      trace != nullptr ? trace->open("kv.timed_phase", kClient, -1, -1) : -1;

  OpStream stream(derive_seed(args.seed, 2), spec);
  const double t_start = wall_s();
  while (args.ops > 0 ? out.ops < args.ops : wall_s() - t_start < seconds) {
    stream.fill(ops, kBatchOps, /*gets_only=*/false);
    const double w0 = wall_s();
    for (const Op& op : ops) {
      const std::uint64_t key = store.key_at(op.rank);
      const std::int64_t id = static_cast<std::int64_t>(out.ops);
      kv::GetMeta m;
      kv::PutMeta pm;
      std::uint32_t seq = 0;
      if (op.len != 0) {
        seq = shadow.next_seq(op.rank);
        kv::fill_value(key, seq, op.len, put_buf.data());
      }
      if (tally != nullptr) {
        tally->op = id;
        tally->op_core_ns = 0.0;
        tally->span = trace->open(op.len == 0 ? "kv.get" : "kv.put", kClient, id, phase_span);
      }
      const double v0 = p.now_us();
      const std::int64_t n0 = tally != nullptr ? wall_ns() : 0;
      const bool ok = op.len == 0 ? store.get(key, value.data(), &m)
                                  : store.put(key, seq, put_buf.data(), op.len, &pm);
      const double ns = tally != nullptr ? static_cast<double>(wall_ns() - n0) : 0.0;
      const double v1 = p.now_us();
      const double us = v1 - v0;
      out.virt_us += us;
      ++out.ops;
      if (op.len == 0) {
        ++out.gets;
        get_us.push_back(static_cast<float>(us));
        out.bucket_reads += static_cast<std::uint64_t>(m.bucket_reads);
        out.cached_hits += static_cast<std::uint64_t>(m.cached_hits);
        out.chain_follows += static_cast<std::uint64_t>(m.chain_follows);
        if (!ok || !shadow.get_ok(op.rank, key, m, value.data())) ++out.failed;
      } else {
        ++out.puts;
        put_us.push_back(static_cast<float>(us));
        out.replicas += static_cast<std::uint64_t>(pm.applied);
        if (ok && pm.applied == spec.replication) {
          shadow.applied(op.rank, seq, op.len);
        } else {
          ++out.failed;
        }
      }
      if (tally != nullptr) {
        trace->close(tally->span, v0, v1);
        tally->span = -1;
        tally->kv_ns += ns;
        tally->kv_core_ns += tally->op_core_ns;
        tally->virt_us += us;
        ++tally->kv_ops;
        if (op.len != 0) {
          tally->kv_put_ns += ns;
          keep(tally->put_ns, ns);
        } else if (m.cached_hits == m.bucket_reads) {
          keep(tally->get_hit_ns, ns);
          keep(tally->get_hit_core_ns, tally->op_core_ns);
          keep(tally->get_hit_rest_ns, ns - tally->op_core_ns);
        } else {
          keep(tally->get_miss_ns, ns);
        }
      }
    }
    out.wall_s += wall_s() - w0;
  }
  if (trace != nullptr) trace->close(phase_span, phase_v0, p.now_us());
  if (tally != nullptr) {
    tally->rt.counting = false;
    tally->wall_s += out.wall_s;
    win.observe_gets({});
  }
  out.delta = win.stats().delta_since(base);
  out.checked += out.ops;
  out.final_index_entries = win.index_entries();
  out.final_storage_bytes = win.storage_bytes();
  out.get_p50 = q_of(get_us, 0.5);
  out.get_p99 = q_of(get_us, 0.99);
  out.put_p50 = q_of(put_us, 0.5);
  out.put_p99 = q_of(put_us, 0.99);
  // Replicas must agree once the writes stop (untimed; the last round
  // only, a full pass reads every key on every replica).
  if (spec.replication > 1 && verify) {
    const double t0 = wall_s();
    const kv::Store::ConvergenceReport cr = store.verify_convergence();
    out.verify_s = wall_s() - t0;
    out.divergent = cr.keys_divergent + cr.keys_unreachable;
    out.failed += out.divergent;
  }
  win.unlock_all();
}

Round run_round(const Spec& spec, const Args& args, double seconds, bool verify, Tally* tally,
                Trace* trace) {
  Round r;
  r.traced = tally != nullptr;
  rmasim::Engine::Config ecfg;
  ecfg.nranks = kRanks;
  ecfg.model = net::make_aries_model(/*ranks_per_node=*/1);
  ecfg.time_policy = rmasim::TimePolicy::kMeasured;
  if (tally != nullptr) {
    const std::shared_ptr<const net::Model> model = ecfg.model;
    ecfg.op_observer = [tally, trace, model](const fault::OpDesc& d, bool) {
      if (!tally->rt.counting) return;
      tally->rt.observe(d, *model);
      if (tally->span >= 0) {
        trace->event({"rt.op", d.origin, tally->op, tally->span, wall_ns(), d.time_us,
                      fault::to_string(d.kind), d.target, d.bytes, {0, 0, 0, 0}});
      }
    };
  }

  const double t0 = wall_s();
  const kv::StoreConfig scfg = store_config(spec, tally != nullptr);
  rmasim::Engine engine(ecfg);
  double t_rank0 = 0.0, t_ready = 0.0;
  const Usage u0 = Usage::now();
  engine.run([&](rmasim::Process& p) {
    if (p.rank() == 0) t_rank0 = wall_s();
    kv::Store store(p, scfg);
    if (p.rank() == kClient) {
      t_ready = wall_s();
      client_main(p, store, spec, args, seconds, verify, tally, trace, r);
    }
    p.barrier();
    store.free_window();
  });
  r.run_wall_s = wall_s() - t_rank0;
  r.usage = Usage::now().minus(u0);
  r.setup_s = t_ready - t0;
  r.engine_s = t_rank0 - t0;
  r.store_load_s = t_ready - t_rank0;
  if (trace != nullptr) {
    trace->span({"setup.round", -1, -1, -1, static_cast<std::int64_t>(t0 * 1e9),
                 static_cast<std::int64_t>(t_ready * 1e9), 0.0, 0.0});
  }
  return r;
}

void report_layers(const Spec& spec, const std::vector<Round>& rounds, const Tally& t,
                   Report& rep) {
  Round sum;  // the traced rounds' timed phases, summed
  for (const Round& r : rounds) {
    if (!r.traced) continue;
    sum.ops += r.ops;
    sum.gets += r.gets;
    sum.puts += r.puts;
    sum.bucket_reads += r.bucket_reads;
    sum.cached_hits += r.cached_hits;
    sum.chain_follows += r.chain_follows;
    sum.replicas += r.replicas;
    sum.run_wall_s += r.run_wall_s;
    sum.usage.user_s += r.usage.user_s;
    sum.usage.sys_s += r.usage.sys_s;
    sum.usage.ctx_switches += r.usage.ctx_switches;
    sum.usage.minor_faults += r.usage.minor_faults;
    add_stats(sum.delta, r.delta);
    sum.final_index_entries = r.final_index_entries;
    sum.final_storage_bytes = r.final_storage_bytes;
  }
  const double gets = static_cast<double>(sum.gets), puts = static_cast<double>(sum.puts);

  rep.add("kv.get_hit.wall_ns", q_of(t.get_hit_ns, 0.5), "ns", t.get_hit_ns.size());
  rep.add("kv.get_miss.wall_ns", q_of(t.get_miss_ns, 0.5), "ns", t.get_miss_ns.size());
  rep.add("kv.put.wall_ns", q_of(t.put_ns, 0.5), "ns", t.put_ns.size());
  rep.add("kv.put.wall_ns.p99", q_of(t.put_ns, 0.99), "ns", t.put_ns.size());
  rep.add("kv.put.wall_share", ratio(t.kv_put_ns * 1e-9, t.wall_s), "fraction");
  rep.add("kv.self_ns", ratio(t.kv_ns - t.kv_core_ns, static_cast<double>(t.kv_ops)), "ns/op",
          t.kv_ops);
  rep.add("kv.get_hit.core_ns", q_of(t.get_hit_core_ns, 0.5), "ns", t.get_hit_core_ns.size());
  rep.add("kv.get_hit.rest_ns", q_of(t.get_hit_rest_ns, 0.5), "ns", t.get_hit_rest_ns.size());
  rep.add("kv.get_hit.core_share", ratio(q_of(t.get_hit_core_ns, 0.5), q_of(t.get_hit_ns, 0.5)),
          "fraction");
  rep.add("kv.hit_frac", ratio(sum.cached_hits, sum.bucket_reads), "fraction");
  rep.add("kv.bucket_reads_per_get", ratio(sum.bucket_reads, gets), "count/op");
  rep.add("kv.chain_follows_per_get", ratio(sum.chain_follows, gets), "count/op");
  rep.add("kv.replicas_per_put", ratio(sum.replicas, puts), "count/op");
  rep.add("kv.journal_appends", static_cast<double>(sum.delta.kv_journal_appends), "count");

  report_clampi(rep, sum.delta, puts, sum.final_index_entries, sum.final_storage_bytes);
  rep.add("clampi.core.lookup_ns", q_of(t.lookup_ns, 0.5), "ns", t.lookup_ns.size());
  rep.add("clampi.core.copy_ns", q_of(t.copy_ns, 0.5), "ns", t.copy_ns.size());
  rep.add("clampi.core.insert_ns", q_of(t.insert_ns, 0.5), "ns", t.insert_ns.size());
  rep.add("clampi.core.eviction_ns", q_of(t.eviction_ns, 0.5), "ns", t.eviction_ns.size());

  report_rt(rep, t.rt, static_cast<double>(sum.ops), t.virt_us, sum.run_wall_s, sum.usage);

  // The LCC solver does nothing on this workload.
  rep.add("graph.comm_share", 0.0, "fraction");
  rep.add("graph.remote_gets", 0.0, "count");
  rep.add("graph.imbalance", 0.0, "x");

  const auto wall_kops = [](const Round& r) { return r.wall_kops_per_s(); };
  rep.add("trace.wall_overhead",
          ratio(median(of_rounds(rounds, false, wall_kops)),
                median(of_rounds(rounds, true, wall_kops))),
          "x");

  // ROADMAP's diagnoses (perfbench/README.md "Baseline diagnosis").
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "puts take %.1f%% of the timed wall time; %.3f cached entries dropped "
                "per put; put p50 %.0f ns vs full-hit get p50 %.0f ns",
                100.0 * ratio(t.kv_put_ns * 1e-9, t.wall_s), ratio(sum.delta.put_invalidations, puts),
                q_of(t.put_ns, 0.5), q_of(t.get_hit_ns, 0.5));
  rep.note(buf);
  std::snprintf(buf, sizeof buf,
                "full-hit get p50 %.0f ns wall = CacheCore lookup+copy p50 %.0f ns + rest "
                "(kv, gates, rt) p50 %.0f ns; replication %d",
                q_of(t.get_hit_ns, 0.5), q_of(t.get_hit_core_ns, 0.5),
                q_of(t.get_hit_rest_ns, 0.5), spec.replication);
  rep.note(buf);
}

}  // namespace

void run_kv(const Args& args, Report& rep) {
  const Spec spec = spec_for(args.workload);
  Tally tally;
  Trace trace;
  std::vector<Round> rounds;
  for (int i = 0; i < kRounds; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    rounds.push_back(run_round(spec, args, args.seconds / kRounds, i == kRounds - 1,
                               traced ? &tally : nullptr, traced ? &trace : nullptr));
  }

  std::vector<double> setup, engine, load;
  for (const Round& r : rounds) {
    setup.push_back(r.setup_s);
    engine.push_back(r.engine_s);
    load.push_back(r.store_load_s);
    rep.attempted += r.checked;
    rep.failed += r.failed;
  }
  rep.add("setup_s", median(setup), "s", setup.size());
  rep.add("setup.engine_s", median(engine), "s", engine.size());
  rep.add("setup.store_load_s", median(load), "s", load.size());

  const auto untraced = [&](double (*f)(const Round&)) {
    return median(of_rounds(rounds, false, f));
  };
  const std::uint64_t n = static_cast<std::uint64_t>(kRounds - (args.trace ? kRounds / 2 : 0));
  rep.add("kops_per_s", untraced([](const Round& r) { return r.kops_per_s(); }), "kop/s", n);
  rep.add("wall_kops_per_s", untraced([](const Round& r) { return r.wall_kops_per_s(); }),
          "kop/s", n);
  rep.add("get_p50_us", untraced([](const Round& r) { return r.get_p50; }), "us", n);
  rep.add("get_p99_us", untraced([](const Round& r) { return r.get_p99; }), "us", n);
  rep.add("put_p50_us", untraced([](const Round& r) { return r.put_p50; }), "us", n);
  rep.add("put_p99_us", untraced([](const Round& r) { return r.put_p99; }), "us", n);
  rep.add("timed_ops", static_cast<double>(rounds.back().ops), "count");
  rep.add("kv.verify_s", rounds.back().verify_s, "s");
  rep.add("kv.divergent_keys", static_cast<double>(rounds.back().divergent), "count");
  std::string by_round = "kops_per_s by round:";
  for (const Round& r : rounds) by_round += " " + std::to_string(r.kops_per_s());
  rep.note(by_round);

  if (args.trace) {
    report_layers(spec, rounds, tally, rep);
    if (!trace.write(args.trace_out)) {
      throw std::runtime_error("cannot write trace to " + args.trace_out);
    }
    rep.add("trace.records", static_cast<double>(trace.size()), "count");
    rep.add("trace.dropped", static_cast<double>(trace.dropped()), "count");
  }
}

}  // namespace perfbench

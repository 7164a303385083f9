// micro_hotpath — the perf-regression harness for CLaMPI's cache core.
//
// Guards the per-operation costs the paper's crossover analysis lives on
// (Sec. III, Fig. 7): index lookup hit/miss, the cuckoo insertion walk,
// storage alloc/dealloc/extend, the end-to-end cached-get hit, and the
// capacity and conflicting misses. Unlike
// micro_structures.cc (broad data-structure coverage), every benchmark
// here keeps harness overhead off the measured path: key selection uses
// power-of-two masks (no integer divide), sizes come from precomputed
// tables, and steady-state loops avoid per-iteration RNG.
//
// Run from the repo root; by default the binary writes
// BENCH_cache_hotpath.json (google-benchmark JSON) into the current
// directory so the perf trajectory of the repo is recorded run over run.
// Pass your own --benchmark_out=... to override. See docs/PERF.md for the
// methodology and how to compare runs.
//
// `--concurrent` switches to the multi-threaded throughput driver (no
// google-benchmark): a 1..16-thread x hit-rate x load-factor grid over
// the sharded cache core, written to BENCH_cache_concurrent.json. See
// docs/PERF.md "Sharding" for the methodology and the scaling gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "clampi/cache.h"
#include "clampi/cuckoo_index.h"
#include "clampi/storage.h"
#include "util/json.h"
#include "util/rng.h"

using namespace clampi;

namespace {

// Entry records sized like CacheCore::Entry (one 64-byte cache line per
// entry), so the cost of the exact-compare predicate matches production.
struct EntryRec {
  std::uint64_t key;
  std::uint64_t pad[7];
};

struct RawOps {
  std::vector<EntryRec> keys;
  std::uint64_t hash_key(std::uint32_t id) const { return keys[id].key; }
};

/// Report a hot-path counter as a per-iteration rate. Template so the
/// harness still compiles against revisions that predate the counters —
/// the whole file can be rebuilt at an older commit for A/B comparison.
template <class Idx, class Getter>
  requires requires(const Idx& i, Getter g) { g(i.counters()); }
void report_index_counter(benchmark::State& state, const Idx& idx, const char* name,
                          Getter getter) {
  const auto iters = static_cast<double>(state.iterations() ? state.iterations() : 1);
  state.counters[name] = static_cast<double>(getter(idx.counters())) / iters;
}
template <class... Ts>
void report_index_counter(Ts&&...) {}  // older revision: no counters, no-op

/// lookup() with probe counting where the revision supports it (the
/// out-parameter form CacheCore::access() uses), plain lookup otherwise.
template <class Idx, class Pred>
std::uint32_t counted_lookup(const Idx& idx, std::uint64_t k, Pred&& pred, int* probes) {
  if constexpr (requires { idx.lookup(k, pred, probes); }) {
    return idx.lookup(k, static_cast<Pred&&>(pred), probes);
  } else {
    return idx.lookup(k, static_cast<Pred&&>(pred));
  }
}

/// Fill `idx` to roughly `load` (0..1) with random keys; returns the keys
/// that were actually placed, truncated to a power-of-two count so the
/// benchmark loop can cycle with a mask instead of a divide.
std::vector<std::uint64_t> fill_index(CuckooIndex<RawOps>& idx, RawOps& ops, double load,
                                      std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> placed;
  const auto want = static_cast<std::size_t>(static_cast<double>(idx.nslots()) * load);
  while (idx.occupied() < want) {
    const std::uint64_t k = rng();
    ops.keys.push_back({k, {}});
    if (idx.insert(k, static_cast<std::uint32_t>(ops.keys.size() - 1), nullptr)) {
      placed.push_back(k);
    }
  }
  std::size_t pow2 = 1;
  while (pow2 * 2 <= placed.size()) pow2 *= 2;
  placed.resize(pow2);
  return placed;
}

// --- index: lookup hit -----------------------------------------------------

// Arguments: {slots, load%}. The probe count is accumulated exactly the
// way CacheCore::access() does it — through lookup()'s out-parameter into
// a counter the caller owns. The paper's index runs near-full (p = 4
// sustains ~97% utilization, Sec. III-C1), so the 90%-load rows are the
// representative regime; 50% covers a lightly loaded window.
void BM_IndexLookupHit(benchmark::State& state) {
  const auto slots = static_cast<std::size_t>(state.range(0));
  const double load = static_cast<double>(state.range(1)) / 100.0;
  RawOps ops;
  CuckooIndex<RawOps> idx(slots, 4, 64, 42, &ops);
  const auto keys = fill_index(idx, ops, load, 1);
  const std::size_t mask = keys.size() - 1;
  std::size_t i = 0;
  std::uint64_t total_probes = 0;
  for (auto _ : state) {
    const std::uint64_t k = keys[i++ & mask];
    int probes = 0;
    benchmark::DoNotOptimize(counted_lookup(
        idx, k, [&](std::uint32_t id) { return ops.keys[id].key == k; }, &probes));
    total_probes += static_cast<std::uint64_t>(probes);
  }
  state.counters["probes_per_lookup"] =
      static_cast<double>(total_probes) /
      static_cast<double>(state.iterations() ? state.iterations() : 1);
}
BENCHMARK(BM_IndexLookupHit)
    ->ArgsProduct({{1 << 10, 1 << 14, 1 << 18}, {50, 90}});

// --- index: lookup miss ----------------------------------------------------

void BM_IndexLookupMiss(benchmark::State& state) {
  RawOps ops;
  CuckooIndex<RawOps> idx(1 << 14, 4, 64, 42, &ops);
  fill_index(idx, ops, 0.9, 3);
  std::uint64_t probe = 0xdead;
  for (auto _ : state) {
    probe += 0x9e3779b97f4a7c15ull;
    benchmark::DoNotOptimize(
        idx.lookup(probe, [&](std::uint32_t id) { return ops.keys[id].key == probe; }));
  }
}
BENCHMARK(BM_IndexLookupMiss);

// --- index: insertion walk -------------------------------------------------

// Steady state at high load: erase one resident entry, insert a fresh
// key. Most inserts displace occupants, exercising the kick rotation.
void BM_IndexInsertWalk(benchmark::State& state) {
  RawOps ops;
  CuckooIndex<RawOps> idx(1 << 14, 4, 64, 42, &ops);
  util::Xoshiro256 rng(4);
  std::vector<std::uint32_t> resident;
  const auto target = static_cast<std::size_t>(static_cast<double>(idx.nslots()) * 0.85);
  while (idx.occupied() < target) {
    const std::uint64_t k = rng();
    ops.keys.push_back({k, {}});
    const auto id = static_cast<std::uint32_t>(ops.keys.size() - 1);
    if (idx.insert(k, id, nullptr)) resident.push_back(id);
  }
  std::size_t pow2 = 1;
  while (pow2 * 2 <= resident.size()) pow2 *= 2;
  resident.resize(pow2);
  const std::size_t mask = resident.size() - 1;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t at = i++ & mask;
    const std::uint32_t victim = resident[at];
    idx.erase(victim);
    // Recycle the id with a fresh key (walks may still fail at this
    // load; keep the occupancy invariant by restoring the old key then).
    const std::uint64_t old_key = ops.keys[victim].key;
    ops.keys[victim].key = old_key * 0x9e3779b97f4a7c15ull + 1;
    if (!idx.insert(ops.keys[victim].key, victim, nullptr)) {
      ops.keys[victim].key = old_key;
      idx.insert(old_key, victim, nullptr);
    }
  }
  report_index_counter(state, idx, "kick_steps_per_insert",
                       [](const auto& c) { return c.kick_steps; });
}
BENCHMARK(BM_IndexInsertWalk);

// --- storage: alloc/dealloc ------------------------------------------------

// Ring of live regions: each iteration deallocs the oldest and allocs a
// replacement — one alloc + one dealloc per iteration, zero harness RNG.
// Freed holes are interior (their neighbours are live), so dealloc takes
// the no-coalesce path and alloc is served from the free index, exactly
// the steady-state cache-entry turnover pattern.
void BM_StorageAllocDealloc(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Storage s(std::size_t{64} << 20);
  constexpr std::size_t kRing = 512;
  std::vector<Storage::Region*> ring(kRing);
  for (std::size_t i = 0; i < kRing; ++i) ring[i] = s.alloc(bytes);
  std::size_t at = 0;
  for (auto _ : state) {
    s.dealloc(ring[at]);
    ring[at] = s.alloc(bytes);
    benchmark::DoNotOptimize(ring[at]);
    at = (at + 2) & (kRing - 1);  // stride 2: neighbours stay live
  }
}
// 64/1024/4096 are served by the segregated size-class bins; 16384 is
// deliberately past the largest class (4 KiB) and exercises the AVL
// best-fit tree path — expect it to track the pre-bin implementation.
BENCHMARK(BM_StorageAllocDealloc)->Arg(64)->Arg(1024)->Arg(4096)->Arg(16384);

// Mixed small sizes across the segregated classes.
void BM_StorageAllocDeallocMixed(benchmark::State& state) {
  Storage s(std::size_t{64} << 20);
  constexpr std::size_t kRing = 512;
  static constexpr std::size_t kSizes[8] = {64, 128, 256, 448, 1024, 2048, 3072, 4096};
  std::vector<Storage::Region*> ring(kRing);
  for (std::size_t i = 0; i < kRing; ++i) ring[i] = s.alloc(kSizes[i & 7]);
  std::size_t at = 0;
  for (auto _ : state) {
    s.dealloc(ring[at]);
    ring[at] = s.alloc(kSizes[at & 7]);
    benchmark::DoNotOptimize(ring[at]);
    at = (at + 2) & (kRing - 1);
  }
}
BENCHMARK(BM_StorageAllocDeallocMixed);

// --- storage: extend (partial-hit entry growth) ----------------------------

void BM_StorageExtend(benchmark::State& state) {
  Storage s(std::size_t{16} << 20);
  for (auto _ : state) {
    Storage::Region* r = s.alloc(64);
    benchmark::DoNotOptimize(s.try_extend(r, 192));
    s.dealloc(r);
  }
}
BENCHMARK(BM_StorageExtend);

// --- end-to-end: cached get hit --------------------------------------------

// The money path: CacheCore::access() returning a full hit, cycling over
// a small resident working set (mask-indexed).
void BM_CachedGetHit(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  Config cfg;
  cfg.index_entries = 1 << 14;
  cfg.storage_bytes = std::size_t{64} << 20;
  CacheCore c(cfg);
  std::vector<std::byte> payload(bytes);
  constexpr std::size_t kKeys = 64;
  Key keys[kKeys];
  for (std::size_t i = 0; i < kKeys; ++i) {
    keys[i] = Key{1, i * (std::uint64_t{1} << 20)};
    const auto r = c.access(keys[i], bytes);
    std::memcpy(c.entry_data(r.entry), payload.data(), bytes);
    c.mark_cached(r.entry);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(keys[i++ & (kKeys - 1)], bytes));
  }
}
BENCHMARK(BM_CachedGetHit)->Arg(64)->Arg(4096)->Arg(65536);

// Steady-state miss with one capacity eviction per access — the weak-
// caching bound (Sec. III-D2) on the miss side.
void BM_CachedGetMissEvict(benchmark::State& state) {
  Config cfg;
  cfg.index_entries = 1 << 14;
  cfg.storage_bytes = std::size_t{1} << 20;
  CacheCore c(cfg);
  std::uint64_t disp = 0;
  std::vector<std::byte> payload(1024);
  for (auto _ : state) {
    const auto r = c.access({1, disp}, 1024);
    if (r.inserted) {
      std::memcpy(c.entry_data(r.entry), payload.data(), 1024);
      c.mark_cached(r.entry);
    }
    disp += 4096;
  }
}
BENCHMARK(BM_CachedGetMissEvict);

// Steady-state conflicting miss (Secs. III-C1, III-D2): the index is kept
// full, so a fresh key walks the cuckoo path to its bound, rolls it back,
// scores the entries on it and evicts the lowest-scoring one before the
// retry lands. Storage is ample (2^17 x 256 B regions fill half of it),
// so no access turns into a capacity one. The counters report the kick
// steps per access and the share of accesses that were conflicting
// (~0.9: a conflict that needs a second eviction frees a slot that a
// later access fills directly).
void BM_CachedGetMissConflict(benchmark::State& state) {
  Config cfg;
  cfg.index_entries = 1 << 17;
  cfg.storage_bytes = std::size_t{64} << 20;
  CacheCore c(cfg);
  constexpr std::size_t kBytes = 208;
  std::vector<std::byte> payload(kBytes);
  std::uint64_t disp = 0;
  const auto miss = [&] {
    const auto r = c.access({1, disp}, kBytes);
    if (r.inserted) {
      std::memcpy(c.entry_data(r.entry), payload.data(), kBytes);
      c.mark_cached(r.entry);
    }
    disp += 256;
    return r.type;
  };
  // Fill to the first conflict, then settle: the few slots still free
  // fill up through direct inserts until nearly every walk fails.
  while (miss() != AccessType::kConflicting) {
  }
  for (int i = 0; i < (1 << 13); ++i) miss();
  const Stats before = c.stats();
  for (auto _ : state) benchmark::DoNotOptimize(miss());
  const Stats d = c.stats().delta_since(before);
  const auto iters = static_cast<double>(state.iterations() ? state.iterations() : 1);
  state.counters["kick_steps_per_insert"] = static_cast<double>(d.index_kick_steps) / iters;
  state.counters["conflicting_frac"] = static_cast<double>(d.conflicting) / iters;
}
BENCHMARK(BM_CachedGetMissConflict);

// --- concurrent throughput mode --------------------------------------------

// One grid cell of the multi-threaded driver. Methodology (docs/PERF.md):
// the cache is prefilled to the target index load factor with keys
// round-robined across the worker threads; each thread then drives its
// own disjoint key set (the CacheCore same-key contract), serving hits
// through access_read() — the copy-out-under-the-shard-lock hit path —
// and misses through a rotating never-resident key whose inserted entry
// is dropped again, so the load factor stays pinned for the whole cell.
struct ConcurrentCell {
  int threads = 1;
  int hit_pct = 90;
  int load_pct = 90;
  std::size_t shards = 16;
  double seconds = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t hits = 0;
  std::uint64_t lock_acquisitions = 0;
  std::uint64_t lock_contended = 0;
  double ops_per_sec = 0.0;
  double hits_per_sec = 0.0;
};

ConcurrentCell run_concurrent_cell(int nthreads, int hit_pct, int load_pct,
                                   std::size_t shards, std::size_t ops_per_thread) {
  constexpr std::size_t kPayload = 256;
  Config cfg;
  cfg.cache_shards = shards;
  cfg.index_entries = 1 << 14;
  cfg.storage_bytes = std::size_t{64} << 20;
  CacheCore c(cfg);

  // Prefill: resident (CACHED) keys, one disjoint set per thread.
  const std::size_t target =
      cfg.index_entries * static_cast<std::size_t>(load_pct) / 100;
  std::vector<std::vector<Key>> resident(static_cast<std::size_t>(nthreads));
  std::uint64_t disp = 0;
  for (std::size_t attempt = 0;
       c.cached_entries() < target && attempt < cfg.index_entries * 4; ++attempt) {
    const int t = static_cast<int>(attempt % static_cast<std::size_t>(nthreads));
    const Key key{1 + t, disp};
    disp += 4096;
    const auto r = c.access(key, kPayload);
    if (!r.inserted) continue;  // conflicting draw near full load
    c.mark_cached(r.entry);
    resident[static_cast<std::size_t>(t)].push_back(key);
  }
  // Power-of-two per-thread sets: the benchmark loop cycles with a mask.
  for (auto& keys : resident) {
    std::size_t pow2 = 1;
    while (pow2 * 2 <= keys.size()) pow2 *= 2;
    keys.resize(pow2);
  }

  std::atomic<bool> go{false};
  std::vector<std::uint64_t> hit_counts(static_cast<std::size_t>(nthreads), 0);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    workers.emplace_back([&, t] {
      std::byte buf[kPayload];
      const auto& keys = resident[static_cast<std::size_t>(t)];
      const std::size_t mask = keys.size() - 1;
      std::uint64_t rng = 0x243f6a8885a308d3ull * static_cast<std::uint64_t>(t + 1);
      // Miss keys live in a per-thread displacement range no resident key
      // ever touches, so a miss never turns into a surprise hit.
      std::uint64_t miss_disp =
          (std::uint64_t{1} << 40) + (static_cast<std::uint64_t>(t) << 30);
      std::uint64_t hits = 0;
      std::size_t ki = 0;
      while (!go.load(std::memory_order_acquire)) {}
      for (std::size_t op = 0; op < ops_per_thread; ++op) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        if ((rng >> 33) % 100 < static_cast<std::uint64_t>(hit_pct)) {
          const auto r = c.access_read(keys[ki++ & mask], kPayload, buf);
          hits += r.serve_now ? 1 : 0;
        } else {
          const auto r = c.access({1 + t, miss_disp}, kPayload);
          miss_disp += 4096;
          // Drop the inserted entry again: the resident set (and with it
          // the cell's load factor and hit rate) stays fixed.
          if (r.inserted) c.drop_failed(r.entry);
        }
      }
      hit_counts[static_cast<std::size_t>(t)] = hits;
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();

  ConcurrentCell cell;
  cell.threads = nthreads;
  cell.hit_pct = hit_pct;
  cell.load_pct = load_pct;
  cell.shards = shards;
  cell.seconds = std::chrono::duration<double>(t1 - t0).count();
  cell.ops = static_cast<std::uint64_t>(nthreads) * ops_per_thread;
  for (const std::uint64_t h : hit_counts) cell.hits += h;
  const Stats& st = c.stats();  // quiescent: workers joined
  cell.lock_acquisitions = st.shard_lock_acquisitions;
  cell.lock_contended = st.shard_lock_contended;
  cell.ops_per_sec = static_cast<double>(cell.ops) / cell.seconds;
  cell.hits_per_sec = static_cast<double>(cell.hits) / cell.seconds;
  return cell;
}

int run_concurrent(const char* out_path) {
  namespace json = clampi::util::json;
  // CLAMPI_BENCH_SCALE shrinks the per-thread op count for CI smoke runs,
  // same knob as bench/kv_sweep.
  double scale = 1.0;
  if (const char* s = std::getenv("CLAMPI_BENCH_SCALE")) scale = std::atof(s);
  const auto ops_per_thread = static_cast<std::size_t>(
      std::max(1000.0, 200000.0 * (scale > 0.0 ? scale : 1.0)));

  std::vector<ConcurrentCell> cells;
  for (const int threads : {1, 2, 4, 8, 16}) {
    for (const int hit_pct : {50, 90}) {
      for (const int load_pct : {50, 90}) {
        cells.push_back(
            run_concurrent_cell(threads, hit_pct, load_pct, 16, ops_per_thread));
        std::fprintf(stderr,
                     "concurrent: threads=%2d hit=%d%% load=%d%% shards=16  "
                     "%.2f Mops/s (%.2f Mhits/s, contended %.2f%%)\n",
                     threads, hit_pct, load_pct, cells.back().ops_per_sec / 1e6,
                     cells.back().hits_per_sec / 1e6,
                     100.0 * static_cast<double>(cells.back().lock_contended) /
                         static_cast<double>(cells.back().lock_acquisitions
                                                 ? cells.back().lock_acquisitions
                                                 : 1));
      }
    }
  }
  // Single-shard parity row: cache_shards = 1 must not regress the
  // single-threaded hot path (cross-check against BENCH_cache_hotpath).
  cells.push_back(run_concurrent_cell(1, 90, 90, 1, ops_per_thread));
  std::fprintf(stderr, "concurrent: threads= 1 hit=90%% load=90%% shards= 1  %.2f Mops/s\n",
               cells.back().ops_per_sec / 1e6);

  // Scaling gate (docs/PERF.md): >= 4x aggregate hit throughput at 8
  // threads vs 1 (90% hit, 90% load, 16 shards) — only meaningful on a
  // machine with at least 8 hardware threads; elsewhere the numbers are
  // recorded but the gate is skipped (honest measurement over fiction).
  const unsigned hw = std::thread::hardware_concurrency();
  double base = 0.0, at8 = 0.0;
  for (const auto& cl : cells) {
    if (cl.shards == 16 && cl.hit_pct == 90 && cl.load_pct == 90) {
      if (cl.threads == 1) base = cl.hits_per_sec;
      if (cl.threads == 8) at8 = cl.hits_per_sec;
    }
  }
  const double speedup = base > 0.0 ? at8 / base : 0.0;
  const bool enforce = hw >= 8;
  const bool gate_ok = !enforce || speedup >= 4.0;

  json::Value root = json::Value::object();
  root.set("benchmark", json::Value::str("cache_concurrent"));
  root.set("hardware_concurrency", json::Value::number(static_cast<std::uint64_t>(hw)));
  root.set("index_entries", json::Value::number(std::uint64_t{1} << 14));
  root.set("storage_bytes", json::Value::number(std::uint64_t{64} << 20));
  root.set("payload_bytes", json::Value::number(std::uint64_t{256}));
  root.set("ops_per_thread", json::Value::number(static_cast<std::uint64_t>(ops_per_thread)));
  json::Value rows = json::Value::array();
  for (const auto& cl : cells) {
    json::Value o = json::Value::object();
    o.set("threads", json::Value::number(cl.threads));
    o.set("hit_pct", json::Value::number(cl.hit_pct));
    o.set("load_pct", json::Value::number(cl.load_pct));
    o.set("shards", json::Value::number(static_cast<std::uint64_t>(cl.shards)));
    o.set("seconds", json::Value::number(cl.seconds));
    o.set("ops", json::Value::number(cl.ops));
    o.set("hits", json::Value::number(cl.hits));
    o.set("ops_per_sec", json::Value::number(cl.ops_per_sec));
    o.set("hits_per_sec", json::Value::number(cl.hits_per_sec));
    o.set("shard_lock_acquisitions", json::Value::number(cl.lock_acquisitions));
    o.set("shard_lock_contended", json::Value::number(cl.lock_contended));
    rows.push(std::move(o));
  }
  root.set("rows", std::move(rows));
  json::Value gate = json::Value::object();
  gate.set("required_speedup_8v1", json::Value::number(4.0));
  gate.set("measured_speedup_8v1", json::Value::number(speedup));
  gate.set("enforced", json::Value::boolean(enforce));
  if (!enforce) {
    gate.set("skipped_reason",
             json::Value::str("hardware_concurrency " + std::to_string(hw) +
                              " < 8: scaling not measurable on this machine"));
  }
  gate.set("ok", json::Value::boolean(gate_ok));
  root.set("gate", std::move(gate));

  std::ofstream out(out_path);
  out << root.dump(/*indent=*/2) << "\n";
  out.close();
  std::fprintf(stderr, "concurrent: 8v1 hit-throughput speedup %.2fx (gate %s) -> %s\n",
               speedup, enforce ? (gate_ok ? "ok" : "FAILED") : "skipped", out_path);
  return gate_ok ? 0 : 1;
}

}  // namespace

// Custom main: default --benchmark_out so a bare run from the repo root
// drops BENCH_cache_hotpath.json in place (explicit flags still win).
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--concurrent") == 0) {
      const char* out = "BENCH_cache_concurrent.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') out = argv[i + 1];
      return run_concurrent(out);
    }
  }
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_cache_hotpath.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// micro_hotpath — the perf-regression harness for CLaMPI's cache core.
//
// Guards the per-operation costs the paper's crossover analysis lives on
// (Sec. III, Fig. 7): index lookup hit/miss, the cuckoo insertion search,
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
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "clampi/cache.h"
#include "clampi/cuckoo_index.h"
#include "clampi/storage.h"
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

// --- index: insertion search -----------------------------------------------

// Steady state at high load: erase one resident entry, insert a fresh
// key. Many inserts find all p candidate slots taken and move occupants.
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
    // Recycle the id with a fresh key (searches may still fail at this
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
// full, so a fresh key's search examines its bound of slots, scores
// their entries and evicts the lowest-scoring one, whose slot ends the
// insertion path. Storage is ample (2^17 x 256 B regions fill half of
// it), so no access turns into a capacity one. The counters report the
// occupants moved per access and the share of accesses that were
// conflicting. The rest are direct: their search reached one of the
// slots still free when the fill loop below stopped, so the conflicting
// share grows with the run length.
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
  // fill up through direct inserts until nearly every search fails.
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

}  // namespace

// Custom main: default --benchmark_out so a bare run from the repo root
// drops BENCH_cache_hotpath.json in place (explicit flags still win).
int main(int argc, char** argv) {
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

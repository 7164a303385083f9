#include "chaos/generator.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace clampi::chaos {

namespace {

/// A reusable (disp, size-cap) slot on one target. Gets and puts draw
/// from a small per-target pool so keys repeat — without repetition the
/// cache would never see a hit.
struct KeySlot {
  std::uint64_t disp = 0;
  std::uint64_t max_bytes = 0;
};

bool overlaps(std::uint64_t lo, std::uint64_t hi,
              const std::vector<std::pair<std::uint64_t, std::uint64_t>>& regions) {
  for (const auto& [rlo, rhi] : regions) {
    if (lo < rhi && rlo < hi) return true;
  }
  return false;
}

}  // namespace

Schedule generate(std::uint64_t seed) {
  util::Xoshiro256 rng(seed ^ 0xc7a05f0225eedull);
  Schedule s;
  s.seed = seed;
  s.nranks = 2 + static_cast<int>(rng.bounded(5));  // 2..6
  s.window_bytes = std::uint64_t{1024} << rng.bounded(3);
  switch (rng.bounded(3)) {
    case 0: s.mode = Mode::kTransparent; break;
    case 1: s.mode = Mode::kAlwaysCache; break;
    default: s.mode = Mode::kUserDefined; break;
  }
  // Deliberately small structures: eviction, conflict and capacity paths
  // must fire within a couple hundred steps.
  s.index_entries = std::uint64_t{32} << rng.bounded(3);
  s.storage_bytes = std::uint64_t{2048} << rng.bounded(3);
  s.adaptive = rng.bounded(4) == 0;
  s.adapt_interval = 32 + rng.bounded(97);
  s.max_retries = static_cast<int>(rng.bounded(4));
  if (rng.bounded(3) == 0) s.epoch_retry_budget_us = 50.0 + rng.uniform() * 500.0;
  s.health_failure_threshold =
      rng.bounded(2) == 0 ? 0 : 2 + static_cast<int>(rng.bounded(3));
  s.degraded_reads = rng.bounded(2) == 0;
  if (s.degraded_reads && rng.bounded(4) != 0) {
    s.degraded_max_staleness_us = 2e4 + rng.uniform() * 2e5;  // else unbounded
  }
  s.verify_every_n = rng.bounded(3) == 0 ? 1 + rng.bounded(4) : 0;
  s.scrub_entries_per_epoch = rng.bounded(3) == 0 ? 4 + rng.bounded(12) : 0;
  s.shadow_verify_every_n = rng.bounded(4) == 0 ? 1 + rng.bounded(8) : 0;
  s.breaker_failure_threshold =
      rng.bounded(4) == 0 ? 3 + static_cast<int>(rng.bounded(5)) : 0;

  // --- fault plan ---
  fault::Plan& plan = s.plan;
  plan.seed = util::SplitMix64(seed).next();
  plan.topology.ranks_per_node = 1;  // matches the runner's aries model
  const int nservers = s.nranks - 1;
  if (rng.bounded(3) == 0) plan.fail_everywhere(0.01 + rng.uniform() * 0.08);
  if (rng.bounded(3) == 0) {
    plan.spike_prob = 0.05 + rng.uniform() * 0.2;
    plan.spike_factor = 1.5 + rng.uniform() * 8.0;
    plan.spike_addend_us = rng.uniform() * 20.0;
  }
  if (rng.bounded(3) == 0) {
    const int r = 1 + static_cast<int>(rng.bounded(nservers));
    const double from = rng.uniform() * 3e4;
    plan.degrade_rank(r, 2.0 + rng.uniform() * 8.0, from,
                      from + 1e4 + rng.uniform() * 4e4);
  }
  if (rng.bounded(3) == 0) {
    const int r = 1 + static_cast<int>(rng.bounded(nservers));
    const double death = 5e3 + rng.uniform() * 4e4;
    plan.kill_rank(r, death);
    if (rng.bounded(2) == 0) plan.revive_rank(r, death + 5e3 + rng.uniform() * 3e4);
  }
  if (rng.bounded(4) == 0) {
    plan.fail_target(1 + static_cast<int>(rng.bounded(nservers)),
                     0.05 + rng.uniform() * 0.2);
  }
  if (rng.bounded(4) == 0) {
    plan.corrupt_storage(1e-4 + rng.uniform() * 2e-3);
    // Oracle soundness: every found access must re-checksum (and heal)
    // before serving, or injected rot would reach the user buffer.
    s.verify_every_n = 1;
  }
  bool stale = false;
  if (rng.bounded(5) == 0) {
    stale = true;
    plan.stale_puts(0.3 + rng.uniform() * 0.5);
    // Oracle soundness: every full hit is healed against the origin
    // window, and nothing may make the healing fetch fail (a skipped
    // shadow sample would let a stale hit escape unverified).
    s.shadow_verify_every_n = 1;
    plan.fail_prob = {};
    plan.target_fail_prob.clear();
    plan.death_us.clear();
    plan.revive_us.clear();
  }

  // --- workload program ---
  std::vector<std::vector<KeySlot>> keys(static_cast<std::size_t>(s.nranks));
  for (int t = 1; t < s.nranks; ++t) {
    if (stale) {
      // Disjoint 128-byte slots: keys that overlapped in address space
      // could serve a *stale prefix* as a partial hit, which shadow-verify
      // (full hits only) never covers. Pinned sizes (below) then make
      // every repeat access a full hit.
      const std::uint64_t nkeys =
          std::min<std::uint64_t>((s.window_bytes - 64) / 128, 8 + rng.bounded(5));
      for (std::uint64_t k = 0; k < nkeys; ++k) {
        keys[static_cast<std::size_t>(t)].push_back({k * 128, 16 + rng.bounded(113)});
      }
    } else {
      const std::uint64_t nkeys = 4 + rng.bounded(9);
      for (std::uint64_t k = 0; k < nkeys; ++k) {
        constexpr std::uint64_t kAlign = 16;
        const std::uint64_t disp = rng.bounded((s.window_bytes - 64) / kAlign) * kAlign;
        const std::uint64_t cap = std::min<std::uint64_t>(512, s.window_bytes - disp);
        keys[static_cast<std::size_t>(t)].push_back({disp, 16 + rng.bounded(cap - 15)});
      }
    }
  }
  // Regions with a get still in flight, per target. A put overlapping one
  // would race the PENDING entry (see the header); such draws degrade to
  // compute steps so the step count stays a pure function of the seed.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> inflight(
      static_cast<std::size_t>(s.nranks));
  const auto clear_all = [&inflight] {
    for (auto& v : inflight) v.clear();
  };
  const std::size_t nsteps = 40 + rng.bounded(161);
  s.steps.reserve(nsteps);
  for (std::size_t i = 0; i < nsteps; ++i) {
    const std::uint64_t roll = rng.bounded(100);
    const int t = 1 + static_cast<int>(rng.bounded(nservers));
    auto& pool = keys[static_cast<std::size_t>(t)];
    const KeySlot& key = pool[rng.bounded(pool.size())];
    Step st;
    if (roll < 52) {
      st.kind = Step::Kind::kGet;
      st.target = t;
      st.disp = key.disp;
      // Stale-put schedules pin each key's size: a partial hit could
      // otherwise serve a stale prefix that shadow-verify never covers.
      st.bytes = stale ? key.max_bytes : 1 + rng.bounded(key.max_bytes);
      inflight[static_cast<std::size_t>(t)].push_back({st.disp, st.disp + st.bytes});
    } else if (roll < 67) {
      const std::uint64_t bytes = 1 + rng.bounded(key.max_bytes);
      if (overlaps(key.disp, key.disp + bytes,
                   inflight[static_cast<std::size_t>(t)])) {
        st.kind = Step::Kind::kCompute;
        st.us = 100.0;
      } else {
        st.kind = Step::Kind::kPut;
        st.target = t;
        st.disp = key.disp;
        st.bytes = bytes;
      }
    } else if (roll < 77) {
      st.kind = Step::Kind::kFlushTarget;
      st.target = t;
      if (s.mode == Mode::kTransparent) {
        clear_all();  // a transparent per-target flush closes the whole epoch
      } else {
        inflight[static_cast<std::size_t>(t)].clear();
      }
    } else if (roll < 85) {
      st.kind = Step::Kind::kFlushAll;
      clear_all();
    } else if (roll < 93 || s.mode != Mode::kUserDefined) {
      st.kind = Step::Kind::kCompute;
      st.us = 100.0 + rng.uniform() * 3000.0;
    } else {
      st.kind = Step::Kind::kInvalidate;
      clear_all();
    }
    s.steps.push_back(st);
  }
  // Discarded draw (it once picked a shard count): keeping it leaves the
  // straggler and crash draws below, and so every seed's schedule, unchanged.
  (void)rng.bounded(3);
  // Straggler epochs, also drawn after the step stream: sustained slowness
  // multiplies latency and never fails an op, so only timing shifts — the
  // oracle's correctness checks apply unchanged.
  if (rng.bounded(4) == 0) {
    const int r = 1 + static_cast<int>(rng.bounded(nservers));
    const double from = rng.uniform() * 3e4;
    plan.slow_rank(r, 4.0 + rng.uniform() * 26.0, from,
                   from + 1e4 + rng.uniform() * 4e4);
  }
  // Crash-restart epochs (docs/DURABILITY.md), drawn after everything above
  // so the step stream is unchanged for a given seed. Soundness couplings
  // (the runner's crash-boundary handling relies on all three):
  //  - kAlwaysCache is excluded: the boundary can only drop cache state via
  //    epoch closure (transparent) or invalidate (user-defined), and
  //    always-cache mode has neither — its pre-crash hits would be compared
  //    against the wiped shadow.
  //  - stale schedules are excluded: they cleared every death-like fault
  //    above, and a crash is a death with a memory wipe attached.
  //  - transient failures, deaths and partitions are cleared: any of them
  //    could fail the boundary flush_all, leaving pre-crash cache entries
  //    committed while the oracle zeroes its shadow. The crash outage
  //    itself supplies the unreachable-rank coverage those faults gave.
  if (!stale && s.mode != Mode::kAlwaysCache && rng.bounded(4) == 0) {
    const int r = 1 + static_cast<int>(rng.bounded(nservers));
    const double at = 5e3 + rng.uniform() * 3e4;
    plan.crash_rank(r, at, at + 2e3 + rng.uniform() * 2e4);
    // The persistence faults ride along so repro artifacts round-trip
    // them; no kv journal exists in a chaos run, so they change nothing
    // here.
    if (rng.bounded(2) == 0) plan.torn_writes(0.5 + rng.uniform() * 0.5);
    if (rng.bounded(3) == 0) plan.corrupt_journal(1e-4 + rng.uniform() * 1e-3);
    plan.fail_prob = {};
    plan.target_fail_prob.clear();
    plan.death_us.clear();
    plan.revive_us.clear();
    plan.partitions.clear();
  }
  return s;
}

}  // namespace clampi::chaos

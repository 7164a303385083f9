// chaos runner + oracle end-to-end: generated schedules run clean, the
// Outcome counters are internally consistent, and — the mutation check —
// a planted cache-semantics bug is flagged by the oracle immediately.
// This is the in-tree slice of what CI's chaos job runs at scale
// (docs/CHAOS.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "chaos/generator.h"
#include "chaos/oracle.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"

namespace clampi::chaos {
namespace {

TEST(ChaosOracle, GeneratedSchedulesRunClean) {
  std::uint64_t gets = 0, hits = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Schedule s = generate(seed);
    const Outcome out = run(s);
    EXPECT_TRUE(out.completed) << "seed " << seed;
    EXPECT_TRUE(out.oracle_ok) << "seed " << seed << ": "
                               << (out.violations.empty()
                                       ? "(no violation recorded)"
                                       : out.violations.front());
    gets += out.gets;
    hits += out.full_hits;
  }
  // The sweep must exercise the cache, not just direct accesses.
  EXPECT_GT(gets, 500u);
  EXPECT_GT(hits, 50u);
}

TEST(ChaosOracle, OutcomeCountersAreConsistent) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Schedule s = generate(seed);
    const Outcome out = run(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_TRUE(out.oracle_ok);
    EXPECT_EQ(out.steps_run, s.steps.size());
    // Every get either resolved through the cache pipeline or faulted.
    EXPECT_LE(out.full_hits + out.degraded_serves, out.gets);
    EXPECT_LE(out.faults, out.gets + out.puts + out.flushes + 1);
    // The stats identity the oracle enforces at every step, re-checked
    // once more on the final snapshot.
    const Stats& st = out.stats;
    EXPECT_EQ(st.total_gets,
              st.hits_full + st.hits_pending + st.hits_partial + st.direct +
                  st.conflicting + st.capacity + st.failing);
  }
}

TEST(ChaosOracle, ReplayIsDeterministic) {
  // Same schedule, same verdict and same counters — the property replay
  // artifacts and shrinking both stand on.
  for (std::uint64_t seed : {3ull, 17ull, 33ull}) {
    const Schedule s = generate(seed);
    const Outcome a = run(s);
    const Outcome b = run(s);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(a.oracle_ok, b.oracle_ok);
    EXPECT_EQ(a.gets, b.gets);
    EXPECT_EQ(a.full_hits, b.full_hits);
    EXPECT_EQ(a.degraded_serves, b.degraded_serves);
    EXPECT_EQ(a.faults, b.faults);
    EXPECT_EQ(a.net_ops, b.net_ops);
    EXPECT_EQ(a.violations, b.violations);
  }
}

TEST(ChaosOracle, EveryCounterIsCheckedForMonotonicity) {
  // visited_slots and kv_hints_queued sit outside the classification
  // identities; a step that lowers either must still be reported.
  for (const auto member : {&Stats::visited_slots, &Stats::kv_hints_queued}) {
    Oracle oracle(generate(1));
    Stats st{};
    st.*member = 5;
    oracle.check_stats(st);
    ASSERT_TRUE(oracle.ok());
    st.*member = 4;
    oracle.check_stats(st);
    ASSERT_FALSE(oracle.ok());
    EXPECT_NE(oracle.violations().front().find("went backwards"), std::string::npos)
        << oracle.violations().front();
  }
}

TEST(ChaosOracle, PlantedBugIsCaught) {
  // The mutation switch corrupts byte 0 of every full-hit serve. Any
  // schedule that produces at least one non-degraded full hit must fail.
  Options opt;
  opt.plant_bug = true;
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 20 && !caught; ++seed) {
    const Schedule s = generate(seed);
    const Outcome clean = run(s);
    if (!clean.oracle_ok || clean.full_hits == 0) continue;  // needs a hit
    const Outcome mutated = run(s, opt);
    EXPECT_FALSE(mutated.oracle_ok) << "seed " << seed;
    ASSERT_FALSE(mutated.violations.empty());
    caught = true;
  }
  EXPECT_TRUE(caught) << "no seed in 1..20 produced a full hit";
}

}  // namespace
}  // namespace clampi::chaos

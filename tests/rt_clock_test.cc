// Tests for the per-rank virtual clock (time accounting is the
// measurement instrument of every benchmark, so it gets its own suite).
#include <gtest/gtest.h>

#include "rt/clock.h"
#include "util/error.h"

namespace {

using clampi::rmasim::TimePolicy;
using clampi::rmasim::VirtualClock;

TEST(VirtualClock, StartsAtZero) {
  VirtualClock c(TimePolicy::kModeled);
  EXPECT_DOUBLE_EQ(c.now_us(), 0.0);
}

TEST(VirtualClock, AdvanceAccumulates) {
  VirtualClock c(TimePolicy::kModeled);
  c.advance_us(1.5);
  c.advance_us(2.5);
  EXPECT_DOUBLE_EQ(c.now_us(), 4.0);
}

TEST(VirtualClock, AdvanceToOnlyMovesForward) {
  VirtualClock c(TimePolicy::kModeled);
  c.advance_us(10.0);
  c.advance_to_us(5.0);  // in the past: no-op
  EXPECT_DOUBLE_EQ(c.now_us(), 10.0);
  c.advance_to_us(15.0);
  EXPECT_DOUBLE_EQ(c.now_us(), 15.0);
}

TEST(VirtualClock, ModeledEnterExitIsFree) {
  VirtualClock c(TimePolicy::kModeled);
  c.start_measurement();
  volatile double x = 1.0;
  for (int i = 0; i < 200000; ++i) x = x * 1.0000001 + 0.1;
  c.enter_runtime();
  c.exit_runtime();
  EXPECT_DOUBLE_EQ(c.now_us(), 0.0);  // burned real CPU, charged nothing
}

TEST(VirtualClock, MeasuredPolicyChargesUserTime) {
  VirtualClock c(TimePolicy::kMeasured);
  c.start_measurement();
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.1;
  c.enter_runtime();  // accrues the loop above
  const double t1 = c.now_us();
  EXPECT_GT(t1, 50.0);  // a multi-million-iteration loop is >> 50us
  c.exit_runtime();
}

TEST(VirtualClock, NestedRuntimeSectionsAccrueOnce) {
  VirtualClock c(TimePolicy::kMeasured);
  c.start_measurement();
  c.enter_runtime();
  const double t0 = c.now_us();
  // Nested enter/exit (collectives call primitives): inner pairs must not
  // re-anchor or double-charge.
  c.enter_runtime();
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.1;
  c.exit_runtime();
  c.exit_runtime();
  // Work inside the runtime section is never charged as user time.
  EXPECT_DOUBLE_EQ(c.now_us(), t0);
}

TEST(VirtualClock, NegativeAdvanceAborts) {
  VirtualClock c(TimePolicy::kModeled);
  EXPECT_DEATH(c.advance_us(-1.0), "backwards");
}

}  // namespace

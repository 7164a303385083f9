// Failure-injection tests for the runtime: misuse that must be caught
// loudly (the simulator is a measurement instrument — silent corruption
// would invalidate every result built on it).
#include <gtest/gtest.h>

#include <memory>

#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;
using rmasim::Window;

Engine::Config ecfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(1.0, 0.0);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

TEST(ErrorPaths, MismatchedCollectivesDetected) {
  Engine e(ecfg(2));
  EXPECT_THROW(e.run([](Process& p) {
    if (p.rank() == 0) {
      p.barrier();
    } else {
      double v = 0, r = 0;
      p.allreduce_f64(&v, &r, 1, rmasim::ReduceOp::kSum);
    }
  }),
               util::ContractError);
}

TEST(ErrorPaths, UnlockWithoutLock) {
  Engine e(ecfg(2));
  EXPECT_THROW(e.run([](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(64, &base);
    p.unlock(0, w);
  }),
               util::ContractError);
}

TEST(ErrorPaths, UnlockOutOfRangeTargetThrows) {
  Engine e(ecfg(2));
  EXPECT_THROW(e.run([](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(64, &base);
    if (p.rank() == 0) {
      char buf[8];
      p.get(buf, sizeof(buf), 1, 0, w);
      p.flush(1, w);
      p.unlock(7, w);  // must be rejected before it touches per-target state
    }
    p.barrier();
  }),
               util::ContractError);
}

TEST(ErrorPaths, CrashQueriesRejectOutOfRangeRank) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    if (p.rank() != 0) return;
    for (const int r : {-1, 2, 9}) {
      EXPECT_THROW(p.crash_recovering(r), util::ContractError) << "rank " << r;
      EXPECT_THROW(p.crash_wipes_applied(r), util::ContractError) << "rank " << r;
    }
    EXPECT_FALSE(p.crash_recovering(1));
    EXPECT_EQ(p.crash_wipes_applied(1), 0);
  });
}

TEST(ErrorPaths, NegativeComputeRejected) {
  Engine e(ecfg(1));
  EXPECT_THROW(e.run([](Process& p) { p.compute_us(-5.0); }), util::ContractError);
}

TEST(ErrorPaths, InvalidWindowHandle) {
  Engine e(ecfg(1));
  EXPECT_THROW(e.run([](Process& p) {
    char c;
    p.get(&c, 1, 0, 0, Window{42});
  }),
               util::ContractError);
}

TEST(ErrorPaths, RunIsSingleShot) {
  Engine e(ecfg(1));
  e.run([](Process&) {});
  EXPECT_THROW(e.run([](Process&) {}), util::ContractError);
}

TEST(ErrorPaths, ExclusiveLockDeadlockAcrossRanksDetected) {
  // Both ranks grab the lock on target 0 and then block in a barrier that
  // can never complete while... actually: rank 1 holds the exclusive lock
  // and exits without unlocking; rank 0 then blocks forever acquiring it.
  // The scheduler must detect the deadlock instead of hanging.
  Engine e(ecfg(2));
  EXPECT_THROW(e.run([](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(64, &base);
    if (p.rank() == 1) {
      p.lock(rmasim::LockType::kExclusive, 0, w);
      // exits holding the lock
    } else {
      p.compute_us(5.0);  // let rank 1 (virtual time 0) take it first
      p.lock(rmasim::LockType::kExclusive, 0, w);
    }
  }),
               util::ContractError);
}

TEST(ErrorPaths, YieldIsSafeNoOpWhenAlone) {
  Engine e(ecfg(1));
  e.run([](Process& p) {
    p.yield();
    p.yield();
    SUCCEED();
  });
}

TEST(ErrorPaths, EngineRejectsBadConfig) {
  Engine::Config cfg;  // no model
  cfg.nranks = 0;
  EXPECT_THROW(Engine e(cfg), util::ContractError);
}

}  // namespace

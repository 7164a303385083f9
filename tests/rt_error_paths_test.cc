// Failure-injection tests for the runtime: misuse that must be caught
// loudly (the simulator is a measurement instrument — silent corruption
// would invalidate every result built on it).
#include <gtest/gtest.h>

#include <functional>
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
  const std::function<void(Process&)> uses[] = {
      [](Process& p) {
        char c;
        p.get(&c, 1, 0, 0, Window{42});
      },
      [](Process& p) { p.unlock_all(Window{42}); },
  };
  for (const auto& use : uses) {
    Engine e(ecfg(1));
    EXPECT_THROW(e.run(use), util::ContractError);
  }
}

TEST(ErrorPaths, RunIsSingleShot) {
  Engine e(ecfg(1));
  e.run([](Process&) {});
  EXPECT_THROW(e.run([](Process&) {}), util::ContractError);
}

TEST(ErrorPaths, EngineRejectsBadConfig) {
  Engine::Config cfg;  // no model
  cfg.nranks = 0;
  EXPECT_THROW(Engine e(cfg), util::ContractError);
}

}  // namespace

// Tests for the fault-injection subsystem at the engine level: plans,
// injector verdicts, zero-overhead-when-off, rank death, degraded epochs
// and the interaction with NIC injection serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;
using rmasim::Window;

Engine::Config ecfg(int nranks, std::shared_ptr<fault::Injector> inj = nullptr,
                    bool serialize = false) {
  Engine::Config c;
  c.nranks = nranks;
  c.model = std::make_shared<net::FlatModel>(10.0, 0.0);  // 10us per transfer
  c.time_policy = rmasim::TimePolicy::kModeled;
  c.serialize_injection = serialize;
  c.injector = std::move(inj);
  return c;
}

// ---------------------------------------------------------------------------
// Plan / Injector unit behaviour
// ---------------------------------------------------------------------------

TEST(FaultPlan, TrivialAndHelpers) {
  fault::Plan p;
  EXPECT_TRUE(p.trivial());
  p.fail_everywhere(0.1);
  EXPECT_FALSE(p.trivial());
  EXPECT_DOUBLE_EQ(p.fail_prob[static_cast<std::size_t>(net::Distance::kSelf)], 0.0);

  fault::Plan q;
  q.kill_rank(3, 100.0);
  EXPECT_FALSE(q.trivial());
  ASSERT_EQ(q.death_us.size(), 4u);
  EXPECT_LT(q.death_us[0], 0.0);  // other ranks never die
  EXPECT_DOUBLE_EQ(q.death_us[3], 100.0);

  fault::Plan r;
  r.degrade_rank(1, 4.0, 10.0, 50.0);
  EXPECT_FALSE(r.trivial());
}

TEST(FaultPlan, InjectorRejectsMalformedPlans) {
  fault::Plan p;
  p.fail_prob[1] = 1.5;
  EXPECT_THROW(fault::Injector{p}, util::ContractError);

  fault::Plan q;
  q.degrade_rank(0, 0.5, 0.0, 10.0);  // "degraded" epochs must slow down
  EXPECT_THROW(fault::Injector{q}, util::ContractError);
}

TEST(FaultPlan, ReviveAndTargetFailHelpers) {
  fault::Plan p;
  p.kill_rank(2, 100.0).revive_rank(2, 500.0);
  EXPECT_FALSE(p.trivial());
  ASSERT_EQ(p.revive_us.size(), 3u);
  EXPECT_LT(p.revive_us[0], 0.0);  // other ranks have no revival instant
  EXPECT_DOUBLE_EQ(p.revive_us[2], 500.0);

  fault::Plan q;
  q.fail_target(1, 0.25);
  EXPECT_FALSE(q.trivial());  // per-target failures alone make it non-trivial
  ASSERT_EQ(q.target_fail_prob.size(), 2u);
  EXPECT_DOUBLE_EQ(q.target_fail_prob[0], 0.0);
  EXPECT_DOUBLE_EQ(q.target_fail_prob[1], 0.25);
}

TEST(FaultPlan, InjectorRejectsMalformedRevivals) {
  // Revival without a death instant is meaningless.
  fault::Plan p;
  p.revive_rank(1, 500.0);
  EXPECT_THROW(fault::Injector{p}, util::ContractError);

  // Revival must come strictly after the death.
  fault::Plan q;
  q.kill_rank(1, 500.0).revive_rank(1, 500.0);
  EXPECT_THROW(fault::Injector{q}, util::ContractError);

  fault::Plan r;
  r.fail_target(1, 1.5);
  EXPECT_THROW(fault::Injector{r}, util::ContractError);

  fault::Plan ok;
  ok.kill_rank(1, 500.0).revive_rank(1, 500.1);
  EXPECT_NO_THROW(fault::Injector{ok});
}

TEST(FaultInjector, DeadIsFalseAfterRevival) {
  fault::Plan p;
  p.kill_rank(1, 100.0).revive_rank(1, 300.0);
  fault::Injector inj(p);
  inj.prepare(3);
  EXPECT_FALSE(inj.dead(1, 50.0));
  EXPECT_TRUE(inj.dead(1, 200.0));
  EXPECT_FALSE(inj.dead(1, 300.0));  // alive again from the revival instant
  EXPECT_FALSE(inj.dead(1, 1e9));
  EXPECT_FALSE(inj.dead(0, 1e9));
}

TEST(FaultInjector, TargetFailProbIsPerTarget) {
  fault::Plan p;
  p.fail_target(1, 1.0);  // every op against rank 1 fails; rank 2 is clean
  fault::Injector inj(p);
  inj.prepare(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.on_op(fault::OpKind::kGet, 0, 1, 64, 0.0).fail);
    EXPECT_FALSE(inj.on_op(fault::OpKind::kGet, 0, 2, 64, 0.0).fail);
  }
}

TEST(FaultInjector, DeterministicAcrossInstances) {
  fault::Plan p;
  p.fail_everywhere(0.3);
  p.spike_prob = 0.2;
  p.spike_factor = 3.0;
  fault::Injector a(p);
  fault::Injector b(p);
  a.prepare(4);
  b.prepare(4);
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    const auto va = a.on_op(fault::OpKind::kGet, 0, 1, 64, 0.0);
    const auto vb = b.on_op(fault::OpKind::kGet, 0, 1, 64, 0.0);
    EXPECT_EQ(va.fail, vb.fail);
    EXPECT_EQ(va.latency_factor, vb.latency_factor);
    failures += va.fail ? 1 : 0;
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 200);
}

TEST(FaultInjector, SeedChangesSchedule) {
  fault::Plan p;
  p.fail_everywhere(0.3);
  fault::Plan q = p;
  q.seed ^= 0xdeadbeefull;
  fault::Injector a(p);
  fault::Injector b(q);
  int differs = 0;
  for (int i = 0; i < 200; ++i) {
    const auto va = a.on_op(fault::OpKind::kGet, 0, 1, 64, 0.0);
    const auto vb = b.on_op(fault::OpKind::kGet, 0, 1, 64, 0.0);
    differs += va.fail != vb.fail;
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultInjector, PerturbIsExactIdentityWhenUnperturbed) {
  fault::Injector::Verdict v;  // factor 1.0, addend 0.0
  const double x = 123.456789e-3;
  EXPECT_EQ(fault::Injector::perturb(v, x), x);  // bitwise, not approximate
}

// ---------------------------------------------------------------------------
// Engine integration
// ---------------------------------------------------------------------------

double run_workload(const Engine::Config& cfg, std::vector<double>* per_rank = nullptr) {
  Engine e(cfg);
  e.run([](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(4096, &base);
    char buf[256];
    const int n = p.nranks();
    for (int i = 0; i < 16; ++i) {
      const int tgt = (p.rank() + 1 + i) % n;
      p.get(buf, 64, tgt, static_cast<std::size_t>(i) * 64, w);
    }
    p.flush_all(w);
    for (int i = 0; i < 4; ++i) p.put(buf, 128, (p.rank() + 1) % n, 0, w);
    p.flush((p.rank() + 1) % n, w);
    p.barrier();
    p.win_free(w);
  });
  if (per_rank != nullptr) {
    for (int r = 0; r < cfg.nranks; ++r) per_rank->push_back(e.final_time_us(r));
  }
  return e.max_final_time_us();
}

TEST(FaultEngine, AllZeroPlanIsBitIdenticalToNoInjector) {
  std::vector<double> without;
  std::vector<double> with_zero;
  run_workload(ecfg(4), &without);
  run_workload(ecfg(4, std::make_shared<fault::Injector>(fault::Plan{})), &with_zero);
  ASSERT_EQ(without.size(), with_zero.size());
  for (std::size_t r = 0; r < without.size(); ++r) {
    EXPECT_EQ(without[r], with_zero[r]) << "rank " << r;  // exact, not NEAR
  }
}

TEST(FaultEngine, LatencySpikesSlowTransfersDeterministically) {
  // spike_prob = 1: every transfer pays factor*xfer + addend.
  fault::Plan p;
  p.spike_prob = 1.0;
  p.spike_factor = 3.0;
  p.spike_addend_us = 5.0;
  Engine e(ecfg(2, std::make_shared<fault::Injector>(p)));
  auto dt = std::make_shared<double>(0.0);
  e.run([dt](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(1024, &base);
    if (p.rank() == 0) {
      char buf[64];
      const double t0 = p.now_us();
      p.get(buf, 64, 1, 0, w);
      p.flush(1, w);
      *dt = p.now_us() - t0;
    }
    p.barrier();
    p.win_free(w);
  });
  // FlatModel: 10us transfer -> 3*10 + 5 = 35us (plus negligible issue).
  EXPECT_GE(*dt, 35.0);
  EXPECT_LT(*dt, 36.0);
}

TEST(FaultEngine, TransientFailureThrowsRecoverableError) {
  fault::Plan p;
  p.fail_everywhere(1.0);
  Engine e(ecfg(2, std::make_shared<fault::Injector>(p)));
  auto caught = std::make_shared<int>(0);
  e.run([caught](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(1024, &base);
    if (p.rank() == 0) {
      char buf[64];
      try {
        p.get(buf, 64, 1, 0, w);
      } catch (const fault::OpFailedError& err) {
        EXPECT_TRUE(err.recoverable());
        EXPECT_EQ(err.failure(), fault::FailureKind::kTransient);
        EXPECT_EQ(err.op().kind, fault::OpKind::kGet);
        EXPECT_EQ(err.op().origin, 0);
        EXPECT_EQ(err.op().target, 1);
        EXPECT_EQ(err.op().bytes, 64u);
        ++*caught;
      }
      p.flush(1, w);  // nothing pending: completes instantly
    }
    p.barrier();
    p.win_free(w);
  });
  EXPECT_EQ(*caught, 1);
}

TEST(FaultEngine, DeadRankFailsOpsAndFlushes) {
  fault::Plan p;
  p.kill_rank(1, 0.0);  // dead from the start
  Engine e(ecfg(3, std::make_shared<fault::Injector>(p)));
  auto outcome = std::make_shared<std::vector<int>>();
  e.run([outcome](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(1024, &base);
    if (p.rank() == 0) {
      char buf[64];
      // Op against the dead rank fails permanently.
      try {
        p.get(buf, 64, 1, 0, w);
        outcome->push_back(-1);
      } catch (const fault::OpFailedError& err) {
        EXPECT_FALSE(err.recoverable());
        EXPECT_EQ(err.failure(), fault::FailureKind::kRankDead);
        outcome->push_back(1);
      }
      // Ops against a live rank still work.
      p.get(buf, 64, 2, 0, w);
      p.flush(2, w);
      outcome->push_back(2);
    }
    p.barrier();
    p.win_free(w);
  });
  ASSERT_EQ(outcome->size(), 2u);
  EXPECT_EQ((*outcome)[0], 1);
  EXPECT_EQ((*outcome)[1], 2);
}

TEST(FaultEngine, DeathAfterInstantFailsPendingFlush) {
  // Rank 1 dies at t = 50us (after window allocation, which itself costs
  // virtual time); the get issued while it is alive succeeds, but the
  // flush (which happens after the death instant) cannot complete it.
  fault::Plan p;
  p.kill_rank(1, 50.0);
  Engine e(ecfg(2, std::make_shared<fault::Injector>(p)));
  auto flush_failed = std::make_shared<int>(0);
  e.run([flush_failed](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(1024, &base);
    if (p.rank() == 0) {
      char buf[64];
      ASSERT_LT(p.now_us(), 50.0);  // rank 1 must still be alive here
      p.get(buf, 64, 1, 0, w);      // issued before the death instant
      p.compute_us(100.0);          // cross t = 50us
      try {
        p.flush(1, w);
      } catch (const fault::OpFailedError& err) {
        EXPECT_EQ(err.failure(), fault::FailureKind::kRankDead);
        EXPECT_EQ(err.op().kind, fault::OpKind::kFlush);
        ++*flush_failed;
      }
      // Pending state was consumed: a repeat flush completes trivially.
      p.flush(1, w);
      // flush_all with nothing pending is also clean.
      p.flush_all(w);
    }
    p.barrier();
    p.win_free(w);
  });
  EXPECT_EQ(*flush_failed, 1);
}

TEST(FaultEngine, DegradedEpochSlowsOnlyItsWindow) {
  // Rank 1 is 4x slower in [0us, 100us); after the epoch it recovers.
  fault::Plan p;
  p.degrade_rank(1, 4.0, 0.0, 100.0);
  Engine e(ecfg(2, std::make_shared<fault::Injector>(p)));
  auto during = std::make_shared<double>(0.0);
  auto after = std::make_shared<double>(0.0);
  e.run([during, after](Process& p) {
    void* base = nullptr;
    const Window w = p.win_allocate(1024, &base);
    if (p.rank() == 0) {
      char buf[64];
      double t0 = p.now_us();
      p.get(buf, 64, 1, 0, w);
      p.flush(1, w);
      *during = p.now_us() - t0;
      p.compute_us(200.0);  // leave the degraded window
      t0 = p.now_us();
      p.get(buf, 64, 1, 0, w);
      p.flush(1, w);
      *after = p.now_us() - t0;
    }
    p.barrier();
    p.win_free(w);
  });
  EXPECT_GE(*during, 40.0);  // 4 * 10us
  EXPECT_LT(*during, 41.0);
  EXPECT_GE(*after, 10.0);
  EXPECT_LT(*after, 11.0);
}

// Satellite: serialize_injection combined with fault injection — a
// many-to-one incast against a degraded target queues behind its NIC,
// with each queued transfer also paying the degradation factor.
TEST(FaultEngine, SerializedIncastAgainstDegradedTarget) {
  const int kRanks = 5;  // 4 origins -> rank 0
  const auto run_incast = [&](double factor) {
    fault::Plan p;
    if (factor > 1.0) p.degrade_rank(0, factor, 0.0, fault::kForever);
    Engine e(ecfg(kRanks, std::make_shared<fault::Injector>(p), /*serialize=*/true));
    auto maxt = std::make_shared<double>(0.0);
    e.run([maxt](Process& p) {
      void* base = nullptr;
      const Window w = p.win_allocate(4096, &base);
      if (p.rank() != 0) {
        char buf[64];
        p.get(buf, 64, 0, 0, w);
        p.flush(0, w);
      }
      p.barrier();
      if (p.rank() == 0) *maxt = p.now_us();
      p.win_free(w);
    });
    return *maxt;
  };
  const double clean = run_incast(1.0);
  const double degraded = run_incast(4.0);
  // Clean serialized incast: 4 transfers x 10us queue on rank 0's NIC.
  EXPECT_GE(clean, 40.0);
  // Degradation multiplies every queued transfer's service time.
  EXPECT_GE(degraded, 160.0);
  // The two runs differ only in the incast phase: 4 x 40us vs 4 x 10us
  // of serialized service (setup/teardown costs are identical).
  EXPECT_GE(degraded - clean, 115.0);
}

TEST(FaultEngine, IdenticalSeedsIdenticalRuns) {
  fault::Plan p;
  p.fail_everywhere(0.2);
  p.spike_prob = 0.3;
  p.spike_factor = 2.0;

  const auto run_once = [&] {
    Engine e(ecfg(4, std::make_shared<fault::Injector>(p)));
    auto failures = std::make_shared<std::vector<int>>(4, 0);
    e.run([failures](Process& p) {
      void* base = nullptr;
      const Window w = p.win_allocate(4096, &base);
      char buf[64];
      for (int i = 0; i < 32; ++i) {
        try {
          p.get(buf, 64, (p.rank() + 1) % p.nranks(), 0, w);
        } catch (const fault::OpFailedError&) {
          ++(*failures)[static_cast<std::size_t>(p.rank())];
        }
      }
      p.flush_all(w);
      p.barrier();
      p.win_free(w);
    });
    std::vector<double> times;
    for (int r = 0; r < 4; ++r) times.push_back(e.final_time_us(r));
    return std::make_pair(*failures, times);
  };

  const auto [fail_a, time_a] = run_once();
  const auto [fail_b, time_b] = run_once();
  EXPECT_EQ(fail_a, fail_b);
  for (std::size_t r = 0; r < time_a.size(); ++r) {
    EXPECT_EQ(time_a[r], time_b[r]) << "rank " << r;
  }
  int total = 0;
  for (const int f : fail_a) total += f;
  EXPECT_GT(total, 0);  // the plan actually injected something
}

// ---------------------------------------------------------------------------
// The one-sided op contract: every data op under every failure cause
// ---------------------------------------------------------------------------

// For each (op, fault) cell: the FailureKind thrown, the op_observer's
// OpDesc, the virtual-clock charge, that a failed op moves no bytes, and
// that a flush after it finds nothing pending. A success charges the issue
// overhead at issue and the transfer at flush.
TEST(FaultEngine, OneSidedOpContract) {
  constexpr double kXfer = 10.0;
  constexpr double kIssue = 0.5;
  constexpr std::size_t kWin = 256;
  constexpr double kOpAt = 300.0;  // after the crash epoch below restarts

  struct OpCase {
    const char* name;
    fault::OpKind kind;
    std::size_t disp;
    std::size_t bytes;  // payload the OpDesc reports
    bool fetches;       // a success writes `out`
    bool writes;        // a success writes the target window
    void (*issue)(Process&, Window, std::uint8_t* out, const std::uint8_t* src);
  };
  const OpCase ops[] = {
      {"get", fault::OpKind::kGet, 8, 64, true, false,
       [](Process& p, Window w, std::uint8_t* out, const std::uint8_t*) {
         p.get(out, 64, 1, 8, w);
       }},
      {"put", fault::OpKind::kPut, 8, 64, false, true,
       [](Process& p, Window w, std::uint8_t*, const std::uint8_t* src) {
         p.put(src, 64, 1, 8, w);
       }},
  };

  struct FaultCase {
    const char* name;
    fault::Plan plan;
    bool fails;
    fault::FailureKind kind;
  };
  const FaultCase faults[] = {
      {"success", fault::Plan{}, false, fault::FailureKind::kTransient},
      {"transient", fault::Plan{}.fail_everywhere(1.0), true,
       fault::FailureKind::kTransient},
      {"dead", fault::Plan{}.kill_rank(1, 0.0), true, fault::FailureKind::kRankDead},
      {"partitioned", fault::Plan{}.partition_pair(0, 1, 0.0), true,
       fault::FailureKind::kPartitioned},
      // Rank 1 declared explicit recovery and never begins it: after its
      // restart every op against it fast-fails.
      {"recovering", fault::Plan{}.crash_rank(1, 100.0, 200.0), true,
       fault::FailureKind::kRecovering},
  };

  for (const OpCase& op : ops) {
    for (const FaultCase& fc : faults) {
      SCOPED_TRACE(std::string(op.name) + " / " + fc.name);
      struct Seen {
        fault::OpDesc desc;
        bool failed;
      };
      auto seen = std::make_shared<std::vector<Seen>>();
      Engine::Config c = ecfg(2, std::make_shared<fault::Injector>(fc.plan));
      c.model = std::make_shared<net::FlatModel>(kXfer, 0.0, kIssue);
      c.op_observer = [seen](const fault::OpDesc& d, bool failed) {
        seen->push_back({d, failed});
      };
      Engine e(c);
      e.run([&](Process& p) {
        void* base = nullptr;
        const Window w = p.win_allocate(kWin, &base);
        if (p.rank() == 1) {
          p.declare_crash_recovery();
          auto* mem = static_cast<std::uint8_t*>(base);
          for (std::size_t i = 0; i < kWin; ++i) mem[i] = static_cast<std::uint8_t>(i * 7 + 3);
        }
        p.barrier();
        if (p.rank() == 0) {
          std::vector<std::uint8_t> out(64, 0xee);
          std::vector<std::uint8_t> src(64);
          for (std::size_t i = 0; i < src.size(); ++i) src[i] = static_cast<std::uint8_t>(i + 1);
          const auto* win1 = reinterpret_cast<const std::uint8_t*>(p.win_raw(w, 1));
          const std::vector<std::uint8_t> win_before(win1, win1 + kWin);
          const std::vector<std::uint8_t> out_before = out;
          p.compute_us(kOpAt - p.now_us());
          const double t0 = p.now_us();
          bool threw = false;
          try {
            op.issue(p, w, out.data(), src.data());
          } catch (const fault::OpFailedError& err) {
            threw = true;
            EXPECT_EQ(err.failure(), fc.kind);
            EXPECT_EQ(err.op().kind, op.kind);
            EXPECT_DOUBLE_EQ(err.op().time_us, t0 + kIssue);
          }
          EXPECT_EQ(threw, fc.fails);
          EXPECT_DOUBLE_EQ(p.now_us() - t0, kIssue);
          EXPECT_EQ(p.pending_completion_us(1, w) > 0.0, !fc.fails);

          ASSERT_EQ(seen->size(), 1u);
          const Seen& s = seen->front();
          EXPECT_EQ(s.failed, fc.fails);
          EXPECT_EQ(s.desc.kind, op.kind);
          EXPECT_EQ(s.desc.origin, 0);
          EXPECT_EQ(s.desc.target, 1);
          EXPECT_EQ(s.desc.disp, op.disp);
          EXPECT_EQ(s.desc.bytes, op.bytes);
          // A failure is stamped after the issue charge, a success before.
          EXPECT_DOUBLE_EQ(s.desc.time_us, fc.fails ? t0 + kIssue : t0);

          const std::vector<std::uint8_t> win_after(win1, win1 + kWin);
          if (fc.fails) {
            EXPECT_EQ(out, out_before);
            EXPECT_EQ(win_after, win_before);
          } else {
            EXPECT_EQ(out != out_before, op.fetches);
            EXPECT_EQ(win_after != win_before, op.writes);
          }

          p.flush(1, w);  // never throws: a failed op leaves nothing pending
          EXPECT_DOUBLE_EQ(p.now_us() - t0, fc.fails ? kIssue : kXfer);
          EXPECT_EQ(seen->size(), 1u);  // the flush reported nothing
        }
        p.barrier();
        p.win_free(w);
      });
    }
  }
}

}  // namespace

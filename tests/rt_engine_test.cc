// Tests for rmasim, the simulated MPI-3 RMA runtime substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "netmodel/hierarchy.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;
using rmasim::ReduceOp;
using rmasim::TimePolicy;
using rmasim::Window;

Engine::Config flat_cfg(int nranks, double alpha = 2.0, double beta = 0.001) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(alpha, beta);
  cfg.time_policy = TimePolicy::kModeled;
  return cfg;
}

TEST(Engine, RunsEveryRankExactlyOnce) {
  Engine e(flat_cfg(8));
  std::vector<std::atomic<int>> hits(8);
  e.run([&](Process& p) { hits[p.rank()]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Engine, SingleRankWorks) {
  Engine e(flat_cfg(1));
  e.run([](Process& p) {
    EXPECT_EQ(p.rank(), 0);
    EXPECT_EQ(p.nranks(), 1);
    p.barrier();  // trivially completes
  });
}

TEST(Engine, RequiresModel) {
  Engine::Config cfg;
  cfg.nranks = 2;
  EXPECT_THROW(Engine e(cfg), util::ContractError);
}

TEST(Engine, ComputeAdvancesVirtualTime) {
  Engine e(flat_cfg(2));
  e.run([](Process& p) {
    const double t0 = p.now_us();
    p.compute_us(123.5);
    EXPECT_DOUBLE_EQ(p.now_us() - t0, 123.5);
  });
  EXPECT_DOUBLE_EQ(e.final_time_us(0), 123.5);
}

TEST(Engine, ExceptionsPropagateToRun) {
  Engine e(flat_cfg(4));
  EXPECT_THROW(
      e.run([](Process& p) {
        if (p.rank() == 2) throw std::runtime_error("boom");
        p.barrier();  // other ranks must be unwound, not deadlock
      }),
      std::runtime_error);
}

TEST(Engine, DeadlockIsDetected) {
  Engine e(flat_cfg(3));
  EXPECT_THROW(
      e.run([](Process& p) {
        if (p.rank() != 0) p.barrier();  // rank 0 never arrives
      }),
      util::ContractError);
}

TEST(Window, AllocateExposesZeroedMemoryEverywhere) {
  Engine e(flat_cfg(4));
  e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(256, &base);
    ASSERT_NE(base, nullptr);
    for (int t = 0; t < p.nranks(); ++t) {
      EXPECT_EQ(p.win_size(w, t), 256u);
      ASSERT_NE(p.win_raw(w, t), nullptr);
    }
    auto* bytes = static_cast<unsigned char*>(base);
    for (int i = 0; i < 256; ++i) EXPECT_EQ(bytes[i], 0);
    p.win_free(w);
  });
}

TEST(Window, GetReadsRemoteData) {
  Engine e(flat_cfg(4));
  e.run([](Process& p) {
    std::vector<std::uint32_t> mine(64);
    std::iota(mine.begin(), mine.end(), 1000u * p.rank());
    Window w = p.win_create(mine.data(), mine.size() * sizeof(std::uint32_t));
    p.barrier();
    p.lock_all(w);
    const int peer = (p.rank() + 1) % p.nranks();
    std::vector<std::uint32_t> got(64);
    p.get(got.data(), got.size() * sizeof(std::uint32_t), peer, 0, w);
    p.flush(peer, w);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(got[i], 1000u * peer + i);
    p.unlock_all(w);
    p.barrier();
    p.win_free(w);
  });
}

TEST(Window, GetWithDisplacement) {
  Engine e(flat_cfg(2));
  e.run([](Process& p) {
    std::vector<std::uint8_t> mine(128);
    for (int i = 0; i < 128; ++i) mine[i] = static_cast<std::uint8_t>(i ^ p.rank());
    Window w = p.win_create(mine.data(), mine.size());
    p.barrier();
    std::uint8_t got[16];
    p.get(got, 16, 1 - p.rank(), 100, w);
    p.flush_all(w);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(got[i], static_cast<std::uint8_t>((100 + i) ^ (1 - p.rank())));
    }
    p.barrier();
    p.win_free(w);
  });
}

TEST(Window, PutWritesRemoteData) {
  Engine e(flat_cfg(2));
  e.run([](Process& p) {
    std::vector<std::uint64_t> mine(8, 0);
    Window w = p.win_create(mine.data(), mine.size() * sizeof(std::uint64_t));
    p.barrier();
    if (p.rank() == 0) {
      std::uint64_t v = 0xabcdef;
      p.put(&v, sizeof(v), 1, 3 * sizeof(std::uint64_t), w);
      p.flush(1, w);
    }
    p.barrier();
    if (p.rank() == 1) {
      EXPECT_EQ(mine[3], 0xabcdefull);
    }
    p.win_free(w);
  });
}

TEST(Window, OutOfBoundsAccessThrows) {
  Engine e(flat_cfg(2));
  EXPECT_THROW(e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(64, &base);
    char buf[32];
    p.get(buf, 32, 1 - p.rank(), 40, w);  // 40+32 > 64
  }),
               util::ContractError);
}

TEST(Timing, FlushWaitsForModeledTransfer) {
  // alpha=2us, beta=0.001us/B: a 1000-byte get completes 3us after issue.
  Engine e(flat_cfg(2, 2.0, 0.001));
  e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(4096, &base);
    char buf[1000];
    const double t0 = p.now_us();
    p.get(buf, 1000, 1 - p.rank(), 0, w);
    p.flush(1 - p.rank(), w);
    EXPECT_NEAR(p.now_us() - t0, 3.0, 1e-9);
    p.win_free(w);
  });
}

TEST(Timing, ComputeOverlapsWithTransfer) {
  // The essence of Fig. 8: compute issued between get and flush hides the
  // transfer.
  Engine e(flat_cfg(2, 10.0, 0.0));
  e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(64, &base);
    char buf[8];
    const double t0 = p.now_us();
    p.get(buf, 8, 1 - p.rank(), 0, w);
    p.compute_us(10.0);  // as long as the transfer
    p.flush(1 - p.rank(), w);
    // Total should be ~10us (fully overlapped), not 20us.
    EXPECT_NEAR(p.now_us() - t0, 10.0, 1e-9);
    p.win_free(w);
  });
}

TEST(Timing, FlushOnlyWaitsForItsTarget) {
  Engine e(flat_cfg(4, 50.0, 0.0));
  e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(64, &base);
    if (p.rank() == 0) {
      char buf[8];
      p.get(buf, 8, 1, 0, w);  // completes at 50us
      p.compute_us(60.0);
      char buf2[8];
      p.get(buf2, 8, 2, 0, w);  // completes at ~110us
      const double before = p.now_us();
      p.flush(1, w);  // already complete; no wait
      EXPECT_NEAR(p.now_us(), before, 1e-9);
      p.flush(2, w);  // waits ~50
      EXPECT_GT(p.now_us(), before + 40.0);
    }
    p.win_free(w);
  });
}

TEST(Timing, BarrierSynchronizesClocks) {
  Engine e(flat_cfg(3, 1.0, 0.0));
  e.run([](Process& p) {
    p.compute_us(p.rank() * 100.0);  // rank 2 is the straggler at 200us
    p.barrier();
    EXPECT_GE(p.now_us(), 200.0);
  });
  // All ranks end at the same post-barrier time.
  EXPECT_DOUBLE_EQ(e.final_time_us(0), e.final_time_us(1));
  EXPECT_DOUBLE_EQ(e.final_time_us(1), e.final_time_us(2));
}

TEST(Collectives, AllreduceSumMaxMin) {
  Engine e(flat_cfg(4));
  e.run([](Process& p) {
    const double v = 1.0 + p.rank();  // 1..4
    double sum = 0, mx = 0, mn = 0;
    p.allreduce_f64(&v, &sum, 1, ReduceOp::kSum);
    p.allreduce_f64(&v, &mx, 1, ReduceOp::kMax);
    p.allreduce_f64(&v, &mn, 1, ReduceOp::kMin);
    EXPECT_DOUBLE_EQ(sum, 10.0);
    EXPECT_DOUBLE_EQ(mx, 4.0);
    EXPECT_DOUBLE_EQ(mn, 1.0);
  });
}

TEST(Windows, MultipleWindowsAreIndependent) {
  Engine e(flat_cfg(2));
  e.run([](Process& p) {
    std::vector<std::uint8_t> a(32, static_cast<std::uint8_t>(p.rank() + 1));
    std::vector<std::uint8_t> b(32, static_cast<std::uint8_t>(p.rank() + 100));
    Window wa = p.win_create(a.data(), a.size());
    Window wb = p.win_create(b.data(), b.size());
    p.barrier();
    std::uint8_t ga = 0, gb = 0;
    p.get(&ga, 1, 1 - p.rank(), 0, wa);
    p.get(&gb, 1, 1 - p.rank(), 0, wb);
    p.flush_all(wa);
    p.flush_all(wb);
    EXPECT_EQ(ga, (1 - p.rank()) + 1);
    EXPECT_EQ(gb, (1 - p.rank()) + 100);
    p.barrier();
    p.win_free(wb);
    p.win_free(wa);
  });
}

TEST(Windows, UseAfterFreeThrows) {
  Engine e(flat_cfg(2));
  EXPECT_THROW(e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(64, &base);
    p.win_free(w);
    char c;
    p.get(&c, 1, 0, 0, w);
  }),
               util::ContractError);
}

TEST(Determinism, ModeledRunsAreBitIdentical) {
  auto run_once = [] {
    Engine e(flat_cfg(6, 1.5, 0.002));
    e.run([](Process& p) {
      void* base = nullptr;
      Window w = p.win_allocate(1024, &base);
      char buf[64];
      for (int i = 0; i < 50; ++i) {
        p.get(buf, 1 + (i * 7) % 60, (p.rank() + 1 + i) % p.nranks(), i, w);
        if (i % 5 == 0) p.flush_all(w);
        if (i % 11 == 0) p.barrier();
      }
      p.flush_all(w);
      p.barrier();
      p.win_free(w);
    });
    return e.max_final_time_us();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(MeasuredPolicy, UserComputeIsCharged) {
  Engine::Config cfg = flat_cfg(1);
  cfg.time_policy = TimePolicy::kMeasured;
  Engine e(cfg);
  e.run([](Process& p) {
    // Burn some real CPU in "user code"; the virtual clock must advance.
    volatile double x = 1.0;
    for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 0.5;
    EXPECT_GT(p.now_us(), 100.0);  // several ms of work measured
  });
}

// --- Concurrent ranks while every window is read-only ---

// Counts the ranks inside visit() at once and keeps the high-water mark.
struct Overlap {
  std::atomic<int> inside{0};
  std::atomic<int> high{0};

  /// Stay inside until `want` ranks have been inside together, or until
  /// `limit` has passed.
  void visit(int want, std::chrono::milliseconds limit) {
    const int now = ++inside;
    int h = high.load();
    while (now > h && !high.compare_exchange_weak(h, now)) {
    }
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (high.load() < want && std::chrono::steady_clock::now() < deadline) {
    }
    --inside;
  }
};

constexpr std::chrono::milliseconds kOverlapLimit{5000};
constexpr std::chrono::milliseconds kDwell{20};

TEST(Concurrency, ReadOnlyWindowsRunRanksOnTheirOwnCpus) {
  const int nranks = 4;
  const int batons = std::min(nranks, rmasim::usable_cpus());
  Overlap ov;
  Engine e(flat_cfg(nranks));
  e.run([&](Process& p) {
    const std::vector<std::uint32_t> mine(16, 100u + static_cast<std::uint32_t>(p.rank()));
    const Window w = p.win_create(mine.data(), mine.size() * sizeof(std::uint32_t));
    ov.visit(batons, kOverlapLimit);
    p.lock_all(w);
    std::uint32_t got = 0;
    const int peer = (p.rank() + 1) % p.nranks();
    p.get(&got, sizeof(got), peer, 4, w);
    p.unlock_all(w);
    EXPECT_EQ(got, 100u + static_cast<std::uint32_t>(peer));
    p.barrier();
    p.win_free(w);
  });
  EXPECT_EQ(ov.high.load(), batons);
}

TEST(Concurrency, WritesToReadOnlyWindowThrow) {
  Engine e(flat_cfg(2));
  e.run([](Process& p) {
    const std::int64_t mine[2] = {5, 6};
    const Window w = p.win_create(mine, sizeof(mine));
    const std::int64_t one = 1;
    std::int64_t out = 0;
    if (p.rank() == 0) {
      EXPECT_THROW(p.put(&one, sizeof(one), 1, 0, w), util::ContractError);
      // Reads still work, and nothing was written.
      p.lock_all(w);
      p.get(&out, sizeof(out), 1, sizeof(std::int64_t), w);
      p.unlock_all(w);
      EXPECT_EQ(out, 6);
    }
    p.barrier();
    p.win_free(w);
  });
}

TEST(Concurrency, MembersMustAgreeOnReadOnly) {
  Engine e(flat_cfg(2));
  EXPECT_THROW(
      e.run([](Process& p) {
        std::uint64_t mine = 0;
        if (p.rank() == 0) {
          p.win_create(static_cast<const void*>(&mine), sizeof(mine));
        } else {
          p.win_create(&mine, sizeof(mine));
        }
      }),
      util::ContractError);
}

TEST(Concurrency, RankExitDuringReadOnlyBarrierAborts) {
  Engine e(flat_cfg(4));
  EXPECT_THROW(
      e.run([](Process& p) {
        const std::uint64_t mine = 1;
        p.win_create(&mine, sizeof(mine));
        if (p.rank() == 0) return;  // exits while the others wait
        p.barrier();
      }),
      util::ContractError);
}

TEST(Concurrency, WritableWindowRestoresSingleBaton) {
  const int nranks = 4;
  const int batons = std::min(nranks, rmasim::usable_cpus());
  Overlap before, during, after;
  Engine e(flat_cfg(nranks));
  e.run([&](Process& p) {
    const std::uint64_t ro = 1;
    const Window wr = p.win_create(&ro, sizeof(ro));
    before.visit(batons, kOverlapLimit);
    void* base = nullptr;
    const Window ww = p.win_allocate(64, &base);
    during.visit(nranks + 1, kDwell);  // unreachable: dwell the full time
    p.win_free(ww);
    after.visit(batons, kOverlapLimit);
    p.barrier();
    p.win_free(wr);
  });
  EXPECT_EQ(before.high.load(), batons);
  EXPECT_EQ(during.high.load(), 1);
  EXPECT_EQ(after.high.load(), batons);
}

TEST(Concurrency, MeasuredRanksNeverOutnumberCpus) {
  const int cpus = rmasim::usable_cpus();
  Engine::Config cfg = flat_cfg(cpus + 2);
  cfg.time_policy = TimePolicy::kMeasured;
  Overlap ov;
  Engine e(cfg);
  e.run([&](Process& p) {
    const std::uint64_t mine = 1;
    const Window w = p.win_create(&mine, sizeof(mine));
    ov.visit(cpus, kOverlapLimit);
    p.barrier();
    p.win_free(w);
  });
  EXPECT_EQ(ov.high.load(), cpus);
}

TEST(ManyRanks, ScalesTo128Threads) {
  Engine e(flat_cfg(128, 1.0, 0.0));
  e.run([](Process& p) {
    const double one = 1.0;
    double total = 0.0;
    p.allreduce_f64(&one, &total, 1, ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(total, 128.0);
    p.barrier();
  });
}

}  // namespace

// Tests for the extended MPI-3 RMA surface: one-sided atomics
// (accumulate / get_accumulate / fetch_and_op / compare_and_swap),
// flush_local, and PSCW generalized active-target synchronization.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::AccumulateOp;
using rmasim::AccumulateType;
using rmasim::Engine;
using rmasim::Process;
using rmasim::Window;

Engine::Config ecfg(int nranks, double alpha = 2.0) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(alpha, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

TEST(Atomics, AccumulateSumFromAllRanks) {
  Engine e(ecfg(8));
  e.run([](Process& p) {
    std::vector<std::int64_t> mine(4, 0);
    Window w = p.win_create(mine.data(), mine.size() * sizeof(std::int64_t));
    p.fence(w);
    // Everyone adds (rank+1) to every element of rank 0's window.
    const std::int64_t v[4] = {p.rank() + 1, p.rank() + 1, p.rank() + 1, p.rank() + 1};
    p.accumulate(v, 4, AccumulateType::kInt64, AccumulateOp::kSum, 0, 0, w);
    p.fence(w);
    if (p.rank() == 0) {
      for (const auto x : mine) EXPECT_EQ(x, 36);  // 1+2+...+8
    }
    p.win_free(w);
  });
}

TEST(Atomics, AccumulateMaxMinReplace) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    std::vector<double> mine(3, 5.0);
    Window w = p.win_create(mine.data(), mine.size() * sizeof(double));
    p.fence(w);
    if (p.rank() == 1) {
      const double big = 9.0, small = 1.0, exact = 7.5;
      p.accumulate(&big, 1, AccumulateType::kDouble, AccumulateOp::kMax, 0, 0, w);
      p.accumulate(&small, 1, AccumulateType::kDouble, AccumulateOp::kMin, 0, 8, w);
      p.accumulate(&exact, 1, AccumulateType::kDouble, AccumulateOp::kReplace, 0, 16, w);
      p.flush(0, w);
    }
    p.fence(w);
    if (p.rank() == 0) {
      EXPECT_DOUBLE_EQ(mine[0], 9.0);
      EXPECT_DOUBLE_EQ(mine[1], 1.0);
      EXPECT_DOUBLE_EQ(mine[2], 7.5);
    }
    p.win_free(w);
  });
}

TEST(Atomics, FetchAndOpReturnsOldValue) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    std::uint64_t counter = 0;
    Window w = p.win_create(&counter, sizeof(counter));
    p.fence(w);
    // A classic one-sided ticket counter on rank 0.
    const std::uint64_t one = 1;
    std::uint64_t ticket = 0;
    p.fetch_and_op(&one, &ticket, AccumulateType::kUInt64, AccumulateOp::kSum, 0, 0, w);
    p.flush(0, w);
    EXPECT_LT(ticket, 4u);  // old values 0..3, each exactly once
    std::uint64_t sum = 0;
    p.allreduce_u64(&ticket, &sum, 1, rmasim::ReduceOp::kSum);
    EXPECT_EQ(sum, 0u + 1 + 2 + 3);
    p.fence(w);
    if (p.rank() == 0) {
      EXPECT_EQ(counter, 4u);
    }
    p.win_free(w);
  });
}

TEST(Atomics, GetAccumulateNoOpIsAtomicRead) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::int32_t mine[2] = {static_cast<std::int32_t>(100 + p.rank()), 7};
    Window w = p.win_create(mine, sizeof(mine));
    p.fence(w);
    std::int32_t got[2] = {0, 0};
    p.get_accumulate(nullptr, got, 2, AccumulateType::kInt32, AccumulateOp::kNoOp,
                     1 - p.rank(), 0, w);
    p.flush(1 - p.rank(), w);
    EXPECT_EQ(got[0], 100 + (1 - p.rank()));
    EXPECT_EQ(got[1], 7);
    p.fence(w);
    p.win_free(w);
  });
}

TEST(Atomics, CompareAndSwapOnlyOneWinner) {
  Engine e(ecfg(8));
  e.run([](Process& p) {
    std::int64_t lock_word = -1;
    Window w = p.win_create(&lock_word, sizeof(lock_word));
    p.fence(w);
    const std::int64_t expected = -1;
    const std::int64_t desired = p.rank();
    std::int64_t old = 0;
    p.compare_and_swap(&desired, &expected, &old, AccumulateType::kInt64, 0, 0, w);
    p.flush(0, w);
    const std::uint64_t won = old == -1 ? 1 : 0;
    std::uint64_t winners = 0;
    p.allreduce_u64(&won, &winners, 1, rmasim::ReduceOp::kSum);
    EXPECT_EQ(winners, 1u);  // exactly one rank saw the initial value
    p.fence(w);
    if (p.rank() == 0) {
      EXPECT_GE(lock_word, 0);
    }
    p.win_free(w);
  });
}

TEST(Atomics, CompareAndSwapRejectsDouble) {
  Engine e(ecfg(1));
  EXPECT_THROW(e.run([](Process& p) {
    double x = 0;
    Window w = p.win_create(&x, sizeof(x));
    double d = 1, ex = 0, r = 0;
    p.compare_and_swap(&d, &ex, &r, AccumulateType::kDouble, 0, 0, w);
  }),
               util::ContractError);
}

TEST(Atomics, AccumulateOutOfBoundsThrows) {
  Engine e(ecfg(2));
  EXPECT_THROW(e.run([](Process& p) {
    std::int32_t x = 0;
    Window w = p.win_create(&x, sizeof(x));
    p.barrier();
    std::int32_t v[4] = {1, 2, 3, 4};
    p.accumulate(v, 4, AccumulateType::kInt32, AccumulateOp::kSum, 1 - p.rank(), 0, w);
  }),
               util::ContractError);
}

TEST(FlushLocal, DoesNotWaitForTheTransfer) {
  Engine e(ecfg(2, /*alpha=*/100.0));
  e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(256, &base);
    char buf[64];
    const double t0 = p.now_us();
    p.get(buf, 64, 1 - p.rank(), 0, w);
    p.flush_local(1 - p.rank(), w);
    EXPECT_LT(p.now_us() - t0, 10.0);  // transfer takes 100us; we did not wait
    p.flush(1 - p.rank(), w);
    EXPECT_GE(p.now_us() - t0, 100.0);  // the real flush does
    p.win_free(w);
  });
}

TEST(Pscw, BasicExposureCycle) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::vector<std::uint32_t> mine(16, 1000u + p.rank());
    Window w = p.win_create(mine.data(), mine.size() * sizeof(std::uint32_t));
    p.barrier();
    if (p.rank() == 0) {
      p.post({1}, w);  // expose to rank 1
      p.wait(w);       // until rank 1 completed
    } else {
      p.start({0}, w);
      std::uint32_t got = 0;
      p.get(&got, sizeof(got), 0, 0, w);
      p.complete(w);  // completes the get
      EXPECT_EQ(got, 1000u);
    }
    p.barrier();
    p.win_free(w);
  });
}

TEST(Pscw, ManyOriginsOneTarget) {
  Engine e(ecfg(6));
  e.run([](Process& p) {
    std::vector<std::uint64_t> mine(8);
    std::iota(mine.begin(), mine.end(), 100u * p.rank());
    Window w = p.win_create(mine.data(), mine.size() * sizeof(std::uint64_t));
    p.barrier();
    if (p.rank() == 0) {
      p.post({1, 2, 3, 4, 5}, w);
      p.wait(w);
    } else {
      p.start({0}, w);
      std::uint64_t got = 0;
      p.get(&got, sizeof(got), 0, static_cast<std::size_t>(p.rank()) * 8, w);
      p.complete(w);
      EXPECT_EQ(got, static_cast<std::uint64_t>(p.rank()));
    }
    p.barrier();
    p.win_free(w);
  });
}

TEST(Pscw, StartBlocksUntilPost) {
  Engine e(ecfg(2, /*alpha=*/1.0));
  e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(64, &base);
    if (p.rank() == 0) {
      p.compute_us(500.0);  // delay the post
      p.post({1}, w);
      p.wait(w);
    } else {
      p.start({0}, w);  // must block ~500us of virtual time
      EXPECT_GE(p.now_us(), 500.0);
      p.complete(w);
    }
    p.barrier();
    p.win_free(w);
  });
}

TEST(Pscw, RepeatedEpochs) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::uint32_t value = 0;
    Window w = p.win_create(&value, sizeof(value));
    p.barrier();
    for (std::uint32_t round = 1; round <= 5; ++round) {
      if (p.rank() == 0) {
        value = round * 11;
        p.post({1}, w);
        p.wait(w);
      } else {
        p.start({0}, w);
        std::uint32_t got = 0;
        p.get(&got, sizeof(got), 0, 0, w);
        p.complete(w);
        EXPECT_EQ(got, round * 11);
      }
      p.barrier();
    }
    p.win_free(w);
  });
}

TEST(Pscw, CompleteWithoutStartThrows) {
  Engine e(ecfg(1));
  EXPECT_THROW(e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(64, &base);
    p.complete(w);
  }),
               util::ContractError);
}

TEST(Pscw, WaitWithoutPostThrows) {
  Engine e(ecfg(1));
  EXPECT_THROW(e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(64, &base);
    p.wait(w);
  }),
               util::ContractError);
}

TEST(Pscw, DoublePostThrows) {
  Engine e(ecfg(2));
  EXPECT_THROW(e.run([](Process& p) {
    void* base = nullptr;
    Window w = p.win_allocate(64, &base);
    if (p.rank() == 0) {
      p.post({1}, w);
      p.post({1}, w);
    } else {
      p.start({0}, w);
      p.complete(w);
      p.start({0}, w);
      p.complete(w);
    }
  }),
               util::ContractError);
}

TEST(AccumulateTypeSize, MatchesCTypes) {
  EXPECT_EQ(rmasim::accumulate_type_size(AccumulateType::kInt32), 4u);
  EXPECT_EQ(rmasim::accumulate_type_size(AccumulateType::kInt64), 8u);
  EXPECT_EQ(rmasim::accumulate_type_size(AccumulateType::kUInt64), 8u);
  EXPECT_EQ(rmasim::accumulate_type_size(AccumulateType::kDouble), 8u);
}

}  // namespace

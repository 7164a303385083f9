// Tests for sub-communicators: comm_split, comm-scoped collectives,
// windows over sub-communicators (including CLaMPI caching on them).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "clampi/clampi.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Comm;
using rmasim::Engine;
using rmasim::kCommWorld;
using rmasim::Process;
using rmasim::ReduceOp;
using rmasim::Window;

Engine::Config ecfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

TEST(Comm, WorldBasics) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    EXPECT_EQ(p.comm_rank(kCommWorld), p.rank());
    EXPECT_EQ(p.comm_size(kCommWorld), 4);
    EXPECT_TRUE(p.comm_member(kCommWorld));
    EXPECT_EQ(p.comm_world_rank(kCommWorld, 2), 2);
  });
}

TEST(Comm, SplitEvenOdd) {
  Engine e(ecfg(6));
  e.run([](Process& p) {
    const Comm c = p.comm_split(kCommWorld, p.rank() % 2, /*key=*/p.rank());
    EXPECT_EQ(p.comm_size(c), 3);
    EXPECT_EQ(p.comm_rank(c), p.rank() / 2);
    EXPECT_EQ(p.comm_world_rank(c, p.comm_rank(c)), p.rank());
    EXPECT_TRUE(p.comm_member(c));
  });
}

TEST(Comm, SplitKeyControlsOrdering) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    // One color; keys reverse the rank order.
    const Comm c = p.comm_split(kCommWorld, 0, /*key=*/-p.rank());
    EXPECT_EQ(p.comm_size(c), 4);
    EXPECT_EQ(p.comm_rank(c), 3 - p.rank());
  });
}

TEST(Comm, CollectivesScopedToSubcomm) {
  Engine e(ecfg(8));
  e.run([](Process& p) {
    const Comm c = p.comm_split(kCommWorld, p.rank() % 2, p.rank());
    const double v = 1.0 + p.rank();
    double sum = 0.0;
    p.allreduce_f64(&v, &sum, 1, ReduceOp::kSum, c);
    // evens: 1+3+5+7=16; odds: 2+4+6+8=20.
    EXPECT_DOUBLE_EQ(sum, p.rank() % 2 == 0 ? 16.0 : 20.0);

    const std::uint32_t mine = 100u + p.rank();
    std::vector<std::uint32_t> all(4);
    p.allgather(&mine, all.data(), sizeof(mine), c);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(all[i], 100u + (p.rank() % 2) + 2u * i);
    }
    p.barrier(c);
    p.barrier();  // world barrier still works after sub-comm traffic
  });
}

TEST(Comm, ConcurrentCollectivesOnDisjointComms) {
  // Both halves run their own barriers/reductions an unequal number of
  // times — legal because the communicators are disjoint.
  Engine e(ecfg(4));
  e.run([](Process& p) {
    const Comm c = p.comm_split(kCommWorld, p.rank() / 2, p.rank());
    const int reps = p.rank() / 2 == 0 ? 5 : 2;
    std::uint64_t one = 1, total = 0;
    for (int i = 0; i < reps; ++i) {
      p.allreduce_u64(&one, &total, 1, ReduceOp::kSum, c);
      EXPECT_EQ(total, 2u);
      p.barrier(c);
    }
    p.barrier();
  });
}

TEST(Comm, WindowOverSubcommUsesLocalRanks) {
  Engine e(ecfg(6));
  e.run([](Process& p) {
    const Comm c = p.comm_split(kCommWorld, p.rank() % 2, p.rank());
    std::vector<std::uint32_t> mine(8, 1000u * p.rank());
    const Window w = p.win_create(mine.data(), mine.size() * sizeof(std::uint32_t), c);
    EXPECT_EQ(p.win_comm(w).id, c.id);
    p.barrier(c);
    // Local rank l in c corresponds to world rank (color + 2l).
    const int peer_local = (p.comm_rank(c) + 1) % 3;
    const int peer_world = (p.rank() % 2) + 2 * peer_local;
    std::uint32_t got = 0;
    p.get(&got, sizeof(got), peer_local, 0, w);
    p.flush(peer_local, w);
    EXPECT_EQ(got, 1000u * peer_world);
    // Targets beyond the sub-communicator size are rejected.
    EXPECT_THROW(p.get(&got, sizeof(got), 3, 0, w), util::ContractError);
    p.barrier(c);
    p.win_free(w);
    p.barrier();
  });
}

TEST(Comm, FenceOverSubcomm) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    const Comm c = p.comm_split(kCommWorld, p.rank() % 2, p.rank());
    std::uint64_t val = 7u + p.rank();
    const Window w = p.win_create(&val, sizeof(val), c);
    p.fence(w);
    std::uint64_t got = 0;
    p.get(&got, sizeof(got), 1 - p.comm_rank(c), 0, w);
    p.fence(w);
    const int peer_world = (p.rank() % 2) + 2 * (1 - p.comm_rank(c));
    EXPECT_EQ(got, 7u + static_cast<std::uint64_t>(peer_world));
    p.win_free(w);
    p.barrier();
  });
}

TEST(Comm, AtomicsOverSubcomm) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    const Comm c = p.comm_split(kCommWorld, p.rank() % 2, p.rank());
    std::int64_t counter = 0;
    const Window w = p.win_create(&counter, sizeof(counter), c);
    p.fence(w);
    const std::int64_t one = 1;
    p.accumulate(&one, 1, rmasim::AccumulateType::kInt64, rmasim::AccumulateOp::kSum,
                 /*target=*/0, 0, w);
    p.fence(w);
    if (p.comm_rank(c) == 0) {  // both halves have 2 members
      EXPECT_EQ(counter, 2);
    }
    p.win_free(w);
    p.barrier();
  });
}

TEST(Comm, ClampiWindowOverSubcomm) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    const Comm c = p.comm_split(kCommWorld, p.rank() / 2, p.rank());
    std::vector<std::uint8_t> mine(256);
    for (int i = 0; i < 256; ++i) {
      mine[i] = static_cast<std::uint8_t>(i * 3 + p.rank());
    }
    const Window w = p.win_create(mine.data(), mine.size(), c);
    Config cfg;
    cfg.mode = Mode::kAlwaysCache;
    cfg.index_entries = 64;
    cfg.storage_bytes = 64 * 1024;
    CachedWindow win(p, w, cfg);
    p.barrier(c);
    win.lock_all();
    const int peer_local = 1 - p.comm_rank(c);
    const int peer_world = (p.rank() / 2) * 2 + peer_local;
    std::uint8_t buf[32];
    win.get(buf, 32, peer_local, 16);
    win.flush_all();
    win.get(buf, 32, peer_local, 16);
    EXPECT_EQ(win.last_access(), AccessType::kHit);
    for (int i = 0; i < 32; ++i) {
      ASSERT_EQ(buf[i], static_cast<std::uint8_t>((16 + i) * 3 + peer_world));
    }
    win.unlock_all();
    p.barrier(c);
    win.free_window();
    p.barrier();
  });
}

TEST(Comm, RecursiveSplit) {
  Engine e(ecfg(8));
  e.run([](Process& p) {
    const Comm half = p.comm_split(kCommWorld, p.rank() / 4, p.rank());
    const Comm quarter = p.comm_split(half, p.comm_rank(half) / 2, p.rank());
    EXPECT_EQ(p.comm_size(quarter), 2);
    std::uint64_t one = 1, total = 0;
    p.allreduce_u64(&one, &total, 1, ReduceOp::kSum, quarter);
    EXPECT_EQ(total, 2u);
    p.barrier();
  });
}

TEST(Comm, NonMemberAccessRejected) {
  Engine e(ecfg(4));
  EXPECT_THROW(e.run([](Process& p) {
    const Comm c = p.comm_split(kCommWorld, p.rank() % 2, p.rank());
    // Every rank got its own comm; rank 0's handle is the even comm (the
    // first created). Odd ranks asking for their rank within it must fail.
    const Comm even_comm{1};  // ids are deterministic: first split comm
    if (p.rank() % 2 == 1 && c.id != even_comm.id) {
      p.comm_rank(even_comm);  // not a member -> throws
    } else {
      throw util::ContractError("expected path");
    }
  }),
               util::ContractError);
}

TEST(Comm, SplitIsDeterministic) {
  auto ids = [] {
    Engine e(ecfg(6));
    auto out = std::make_shared<std::vector<int>>(6, -1);
    e.run([out](Process& p) {
      const Comm c = p.comm_split(kCommWorld, p.rank() % 3, -p.rank());
      (*out)[static_cast<std::size_t>(p.rank())] = c.id * 100 + p.comm_rank(c);
    });
    return *out;
  };
  EXPECT_EQ(ids(), ids());
}

}  // namespace

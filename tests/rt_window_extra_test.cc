// Additional runtime-surface tests: datatype'd window reads via
// get_blocks composition, zero-size windows, heterogeneous window sizes,
// many windows, and measured-scale configuration.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "datatype/datatype.h"
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
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

TEST(WindowExtra, HeterogeneousSizesPerRank) {
  Engine e(ecfg(4));
  e.run([](Process& p) {
    // Rank r exposes (r+1) * 64 bytes.
    std::vector<std::uint8_t> mine(static_cast<std::size_t>(p.rank() + 1) * 64,
                                   static_cast<std::uint8_t>(p.rank()));
    const Window w = p.win_create(mine.data(), mine.size());
    p.barrier();
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(p.win_size(w, t), static_cast<std::size_t>(t + 1) * 64);
    }
    // Reading the last byte of rank 3's window works; one past throws.
    std::uint8_t b = 0;
    p.get(&b, 1, 3, 255, w);
    p.flush(3, w);
    EXPECT_EQ(b, 3);
    EXPECT_THROW(p.get(&b, 1, 0, 64, w), util::ContractError);
    p.barrier();
    p.win_free(w);
  });
}

TEST(WindowExtra, ZeroSizeContribution) {
  // MPI allows zero-size window contributions (common for asymmetric
  // server/client layouts).
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::vector<std::uint8_t> mine(p.rank() == 0 ? 128 : 0, 0x77);
    const Window w = p.win_create(mine.empty() ? nullptr : mine.data(), mine.size());
    p.barrier();
    if (p.rank() == 1) {
      std::uint8_t b = 0;
      p.get(&b, 1, 0, 100, w);
      p.flush(0, w);
      EXPECT_EQ(b, 0x77);
      EXPECT_THROW(p.get(&b, 1, 1, 0, w), util::ContractError);  // size 0
    }
    p.barrier();
    p.win_free(w);
  });
}

TEST(WindowExtra, ManyLiveWindows) {
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::vector<std::vector<std::uint32_t>> mem(20);
    std::vector<Window> wins;
    for (std::uint32_t i = 0; i < 20; ++i) {
      mem[i].assign(8, 1000 * i + p.rank());
      wins.push_back(p.win_create(mem[i].data(), mem[i].size() * sizeof(std::uint32_t)));
    }
    p.barrier();
    for (std::uint32_t i = 0; i < 20; ++i) {
      std::uint32_t got = 0;
      p.get(&got, sizeof(got), 1 - p.rank(), 0, wins[i]);
      p.flush_all(wins[i]);
      EXPECT_EQ(got, 1000 * i + static_cast<std::uint32_t>(1 - p.rank()));
    }
    p.barrier();
    for (auto& w : wins) p.win_free(w);
  });
}

TEST(WindowExtra, DatatypeGetBlocksRoundTrip) {
  // Compose the datatype layer with get_blocks the way CachedWindow's
  // typed path does, and verify against pack() of the raw memory.
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::vector<std::uint8_t> mine(512);
    std::iota(mine.begin(), mine.end(), static_cast<std::uint8_t>(p.rank()));
    const Window w = p.win_create(mine.data(), mine.size());
    p.barrier();
    const auto t = dt::Datatype::indexed({2, 1, 3}, {0, 5, 9}, dt::Datatype::contiguous(4));
    const auto blocks = t.flatten(3);
    std::vector<rmasim::Process::Block> rb;
    for (const auto& b : blocks) rb.push_back({b.offset, b.size});
    std::vector<std::uint8_t> got(t.size_of(3));
    p.get_blocks(got.data(), 1 - p.rank(), 32, rb.data(), rb.size(), w);
    p.flush_all(w);

    std::vector<std::uint8_t> want(t.size_of(3));
    // pack from the peer's memory image (deterministic pattern).
    std::vector<std::uint8_t> peer_mem(512);
    std::iota(peer_mem.begin(), peer_mem.end(), static_cast<std::uint8_t>(1 - p.rank()));
    t.pack(peer_mem.data() + 32, 3, want.data());
    EXPECT_EQ(got, want);
    p.barrier();
    p.win_free(w);
  });
}

TEST(WindowExtra, PutGetDisjointRegionsSameEpoch) {
  // MPI allows puts and gets in one epoch when they target disjoint
  // regions; verify both complete and land correctly.
  Engine e(ecfg(2));
  e.run([](Process& p) {
    std::vector<std::uint32_t> mem(16, 7u + p.rank());
    const Window w = p.win_create(mem.data(), mem.size() * sizeof(std::uint32_t));
    p.barrier();
    if (p.rank() == 0) {
      const std::uint32_t v = 42;
      std::uint32_t got = 0;
      p.put(&v, sizeof(v), 1, 0, w);                      // word 0
      p.get(&got, sizeof(got), 1, 8 * sizeof(std::uint32_t), w);  // word 8
      p.flush(1, w);
      EXPECT_EQ(got, 8u);
    }
    p.barrier();
    if (p.rank() == 1) {
      EXPECT_EQ(mem[0], 42u);
      EXPECT_EQ(mem[8], 8u);
    }
    p.barrier();
    p.win_free(w);
  });
}

}  // namespace

// The "native" baseline: a block-based, direct-mapped software cache.
//
// The paper compares CLaMPI against the ad-hoc caching system shipped
// with the reference UPC Barnes-Hut implementation (Sec. IV-B): a
// block-based software cache with direct mapping, whose conflict rate is
// strictly tied to the available memory size. This is a faithful
// reimplementation of that scheme on top of the rmasim window API.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rt/engine.h"
#include "util/error.h"

namespace clampi::bh {

class NativeBlockCache {
 public:
  struct Stats {
    std::uint64_t gets = 0;
    std::uint64_t block_hits = 0;
    std::uint64_t block_misses = 0;
    std::uint64_t invalidations = 0;
  };

  /// `mem_bytes` of cache split into `block_bytes` direct-mapped lines.
  NativeBlockCache(rmasim::Process& p, rmasim::Window win, std::size_t mem_bytes,
                   std::size_t block_bytes);

  /// Read `bytes` at (target, disp), filling missing blocks from the
  /// network at block granularity.
  void get(void* origin, std::size_t bytes, int target, std::size_t disp);

  void invalidate();

  const Stats& stats() const { return stats_; }

 private:
  struct Tag {
    std::int32_t target = -1;  // -1: empty line
    std::uint64_t block = 0;
  };

  std::size_t line_of(int target, std::uint64_t block) const;

  rmasim::Process* p_;
  rmasim::Window win_;
  std::size_t block_;
  std::vector<Tag> tags_;
  std::vector<std::byte> data_;
  Stats stats_;
};

}  // namespace clampi::bh

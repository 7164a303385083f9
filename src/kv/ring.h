// Consistent-hash ring: key -> replica list of server ranks (docs/KV.md).
//
// Each server contributes `vnodes` points on a 64-bit circle; a key is
// placed at its own point and owned by the first server point clockwise
// from it. Replicas are the next distinct servers walking further
// clockwise, so losing a server only remaps the slices it contributed —
// clients route around a dead primary by falling through the replica list
// without any global reshuffle.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace clampi::kv {

class Ring {
 public:
  /// Servers are window-comm ranks [0, nservers).
  Ring(int nservers, int vnodes, std::uint64_t seed);

  /// First `count` distinct servers clockwise from the key's point.
  /// `count` must be in [1, nservers]; out must hold `count` ints.
  void replicas(std::uint64_t key, int count, int* out) const;

 private:
  std::size_t first_point(std::uint64_t key) const;

  int nservers_;
  std::uint64_t seed_;
  std::vector<std::pair<std::uint64_t, int>> points_;  // sorted (position, server)
};

}  // namespace clampi::kv

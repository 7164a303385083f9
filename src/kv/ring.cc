#include "kv/ring.h"

#include <algorithm>

#include "util/error.h"
#include "util/skew.h"

namespace clampi::kv {

Ring::Ring(int nservers, int vnodes, std::uint64_t seed)
    : nservers_(nservers), seed_(seed) {
  CLAMPI_REQUIRE(nservers >= 1, "Ring: nservers must be >= 1");
  CLAMPI_REQUIRE(vnodes >= 1, "Ring: vnodes must be >= 1");
  points_.reserve(static_cast<std::size_t>(nservers) * static_cast<std::size_t>(vnodes));
  for (int s = 0; s < nservers; ++s) {
    for (int v = 0; v < vnodes; ++v) {
      const std::uint64_t pos = util::mix64(
          seed ^ (static_cast<std::uint64_t>(s) * 0x100000001b3ull + static_cast<std::uint64_t>(v)));
      points_.emplace_back(pos, s);
    }
  }
  std::sort(points_.begin(), points_.end());
  // Astronomically unlikely, but two coincident points would make replica
  // order ambiguous across ranks — reject outright rather than tie-break.
  for (std::size_t i = 1; i < points_.size(); ++i) {
    CLAMPI_REQUIRE(points_[i].first != points_[i - 1].first,
                   "Ring: coincident vnode points; change the seed");
  }
}

std::size_t Ring::first_point(std::uint64_t key) const {
  const std::uint64_t pos = util::mix64(key ^ seed_ ^ 0x72696e67ull);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), pos,
      [](const std::pair<std::uint64_t, int>& p, std::uint64_t v) { return p.first < v; });
  return it == points_.end() ? 0 : static_cast<std::size_t>(it - points_.begin());
}


void Ring::replicas(std::uint64_t key, int count, int* out) const {
  CLAMPI_REQUIRE(count >= 1 && count <= nservers_,
                 "Ring: replica count outside [1, nservers]");
  std::size_t i = first_point(key);
  int found = 0;
  for (std::size_t step = 0; step < points_.size() && found < count; ++step) {
    const int s = points_[(i + step) % points_.size()].second;
    bool seen = false;
    for (int j = 0; j < found; ++j) seen = seen || out[j] == s;
    if (!seen) out[found++] = s;
  }
  CLAMPI_ASSERT(found == count, "Ring: walk failed to find enough distinct servers");
}

}  // namespace clampi::kv

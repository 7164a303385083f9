#include "graph/lcc.h"

#include <algorithm>
#include <cstring>

namespace clampi::graph {

DistributedLcc::DistributedLcc(rmasim::Process& p, std::shared_ptr<const Csr> graph,
                               const LccConfig& cfg)
    : p_(&p), g_(std::move(graph)), cfg_(cfg) {
  const auto n = g_->num_vertices();
  marks_.assign(n / 64 + 1, 0);  // bits 0..n; bit n is the never-set sentinel
  const auto nr = static_cast<std::size_t>(p.nranks());
  range_first_.resize(nr + 1);
  for (std::size_t r = 0; r <= nr; ++r) {
    range_first_[r] = static_cast<Vertex>(n * r / nr);
  }
  first_ = range_first_[static_cast<std::size_t>(p.rank())];
  last_ = range_first_[static_cast<std::size_t>(p.rank()) + 1];

  // Read-only window over this rank's adjacency slice of the immutable
  // shared CSR: nothing writes it, so the ranks may solve concurrently.
  const std::uint64_t lo = g_->offsets[first_];
  const std::uint64_t hi = g_->offsets[last_];
  win_ = p.win_create(g_->adj.data() + lo, (hi - lo) * sizeof(Vertex));

  if (cfg_.backend == LccBackend::kClampi) {
    cached_.emplace(p, win_, cfg_.clampi_cfg);
    cached_->lock_all();
  } else {
    p.lock_all(win_);
  }
}

int DistributedLcc::owner_of(Vertex v) const {
  const auto it = std::upper_bound(range_first_.begin(), range_first_.end(), v);
  return static_cast<int>(it - range_first_.begin()) - 1;
}

const Vertex* DistributedLcc::fetch_adjacency(Vertex u, Vertex* dst) {
  const int owner = owner_of(u);
  if (owner == p_->rank()) {
    ++current_.local_reads;
    return g_->neighbors(u);
  }
  if (cfg_.skip_dead_ranks && cached_.has_value() && !cfg_.clampi_cfg.degraded_reads) {
    // Typed health query: with no degraded-read policy to fall back on, a
    // down owner is dropped up front instead of paying a fast-fail throw.
    if (!cached_->target_status(owner).usable) {
      ++current_.dropped_gets;
      return nullptr;
    }
  }
  ++current_.remote_gets;
  const std::size_t bytes = g_->degree(u) * sizeof(Vertex);
  const std::size_t disp =
      (g_->offsets[u] - g_->offsets[range_first_[static_cast<std::size_t>(owner)]]) *
      sizeof(Vertex);
  try {
    if (cached_.has_value()) {
      cached_->get(dst, bytes, owner, disp);
      cached_->flush(owner);
    } else {
      p_->get(dst, bytes, owner, disp, win_);
      p_->flush(owner, win_);
    }
  } catch (const fault::OpFailedError&) {
    if (!cfg_.skip_dead_ranks) throw;
    ++current_.dropped_gets;
    return nullptr;
  }
  return dst;
}

DistributedLcc::Report DistributedLcc::run() {
  current_ = Report{};
  current_.owned_vertices = last_ - first_;
  lcc_.assign(last_ - first_, 0.0);

  const auto n = static_cast<Vertex>(g_->num_vertices());
  // One buffer that fits every fetched list, sized (and zeroed) once.
  std::uint64_t max_degree = 0;
  for (Vertex u = 0; u < n; ++u) max_degree = std::max(max_degree, g_->degree(u));
  std::vector<Vertex> scratch(max_degree);

  p_->barrier();
  const double t0 = p_->now_us();
  for (Vertex v = first_; v < last_; ++v) {
    const auto deg = g_->degree(v);
    if (deg < 2) continue;
    const Vertex* nv = g_->neighbors(v);
    for (std::uint64_t k = 0; k < deg; ++k) {
      marks_[nv[k] >> 6] |= std::uint64_t{1} << (nv[k] & 63);
    }

    // Natural fetch-then-consume loop: each neighbour's adjacency list is
    // needed by the count that follows it, so every remote get is
    // completed before use (the paper treats gets as blocking; CLaMPI
    // hits skip the round trip entirely).
    std::size_t closed = 0;
    for (std::uint64_t k = 0; k < deg; ++k) {
      const Vertex u = nv[k];
      const double c0 = p_->now_us();
      const Vertex* list = fetch_adjacency(u, scratch.data());
      current_.comm_us += p_->now_us() - c0;
      if (list == nullptr) continue;  // owner down, get dropped
      closed += marked_count(marks_.data(), n, list, g_->degree(u));
    }
    for (std::uint64_t k = 0; k < deg; ++k) marks_[nv[k] >> 6] = 0;
    const double coeff = static_cast<double>(closed) /
                         (static_cast<double>(deg) * static_cast<double>(deg - 1));
    lcc_[v - first_] = coeff;
    current_.lcc_sum += coeff;
  }
  current_.compute_us = p_->now_us() - t0;
  p_->barrier();
  return current_;
}

}  // namespace clampi::graph

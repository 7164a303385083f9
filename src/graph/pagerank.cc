#include "graph/pagerank.h"

#include <algorithm>

namespace clampi::graph {

std::vector<double> pagerank_reference(const Csr& g, double damping, int iterations) {
  const std::size_t n = g.num_vertices();
  std::vector<double> pr(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  std::vector<double> next(n);
  for (int it = 0; it < iterations; ++it) {
    for (Vertex v = 0; v < n; ++v) {
      double acc = 0.0;
      for (std::uint64_t k = 0; k < g.degree(v); ++k) {
        const Vertex u = g.neighbors(v)[k];
        acc += pr[u] / static_cast<double>(g.degree(u));
      }
      next[v] = (1.0 - damping) / static_cast<double>(n) + damping * acc;
    }
    pr.swap(next);
  }
  return pr;
}

DistributedPagerank::DistributedPagerank(rmasim::Process& p,
                                         std::shared_ptr<const Csr> graph,
                                         const PagerankConfig& cfg)
    : p_(&p), g_(std::move(graph)), cfg_(cfg) {
  const auto n = g_->num_vertices();
  const auto nr = static_cast<std::size_t>(p.nranks());
  range_first_.resize(nr + 1);
  for (std::size_t r = 0; r <= nr; ++r) {
    range_first_[r] = static_cast<Vertex>(n * r / nr);
  }
  first_ = range_first_[static_cast<std::size_t>(p.rank())];
  last_ = range_first_[static_cast<std::size_t>(p.rank()) + 1];

  void* base = nullptr;
  win_ = p.win_allocate((last_ - first_) * sizeof(double), &base);
  win_scores_ = static_cast<double*>(base);
  next_.assign(last_ - first_, 0.0);

  const double init = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  for (Vertex v = first_; v < last_; ++v) win_scores_[v - first_] = init;

  if (cfg_.backend == PrBackend::kClampi) {
    clampi::Config ccfg = cfg_.clampi_cfg;
    ccfg.mode = Mode::kUserDefined;  // BSP iterations: Listing 1's shape
    cached_.emplace(p, win_, ccfg);
    cached_->lock_all();
  } else {
    p.lock_all(win_);
  }
  p.barrier();
}

int DistributedPagerank::owner_of(Vertex v) const {
  const auto it = std::upper_bound(range_first_.begin(), range_first_.end(), v);
  return static_cast<int>(it - range_first_.begin()) - 1;
}

const double* DistributedPagerank::local_scores() const { return win_scores_; }

double DistributedPagerank::fetch_score(Vertex u) {
  const int owner = owner_of(u);
  if (owner == p_->rank()) {
    ++current_.local_reads;
    return win_scores_[u - first_];
  }
  if (cfg_.skip_dead_ranks && cached_.has_value() && !cfg_.clampi_cfg.degraded_reads) {
    // Typed health query: with no degraded-read policy to fall back on, a
    // down owner is dropped up front instead of paying a fast-fail throw.
    if (!cached_->target_status(owner).usable) {
      ++current_.dropped_gets;
      return 0.0;
    }
  }
  ++current_.remote_gets;
  const std::size_t disp =
      (u - range_first_[static_cast<std::size_t>(owner)]) * sizeof(double);
  double score = 0.0;
  const double c0 = p_->now_us();
  try {
    if (cached_.has_value()) {
      cached_->get(&score, sizeof(score), owner, disp);
      cached_->flush(owner);
    } else {
      p_->get(&score, sizeof(score), owner, disp, win_);
      p_->flush(owner, win_);
    }
  } catch (const fault::OpFailedError&) {
    if (!cfg_.skip_dead_ranks) throw;
    ++current_.dropped_gets;
    current_.comm_us += p_->now_us() - c0;
    return 0.0;  // the dead owner's mass leaks out of the ranking
  }
  current_.comm_us += p_->now_us() - c0;
  return score;
}

DistributedPagerank::Report DistributedPagerank::run() {
  current_ = Report{};
  const auto n = g_->num_vertices();
  const double base_rank = (1.0 - cfg_.damping) / static_cast<double>(n);

  p_->barrier();
  const double t0 = p_->now_us();
  for (int it = 0; it < cfg_.iterations; ++it) {
    // --- read-only phase: pull neighbour scores ---
    for (Vertex v = first_; v < last_; ++v) {
      double acc = 0.0;
      for (std::uint64_t k = 0; k < g_->degree(v); ++k) {
        const Vertex u = g_->neighbors(v)[k];
        acc += fetch_score(u) / static_cast<double>(g_->degree(u));
      }
      next_[v - first_] = base_rank + cfg_.damping * acc;
    }
    // --- write phase: publish the new scores, invalidate the cache ---
    if (cached_.has_value()) clampi_invalidate(*cached_);
    p_->barrier();  // everyone finished reading the old scores
    std::copy(next_.begin(), next_.end(), win_scores_);
    p_->barrier();  // new scores visible before the next iteration reads
  }
  current_.total_us = p_->now_us() - t0;
  return current_;
}

}  // namespace clampi::graph

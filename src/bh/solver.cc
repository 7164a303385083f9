#include "bh/solver.h"

#include <algorithm>
#include <cstring>

namespace clampi::bh {

namespace {

// 21-bit 3D Morton interleave (the usual bit-smearing construction).
std::uint64_t spread3(std::uint64_t x) {
  x &= 0x1fffff;
  x = (x | (x << 32)) & 0x1f00000000ffffull;
  x = (x | (x << 16)) & 0x1f0000ff0000ffull;
  x = (x | (x << 8)) & 0x100f00f00f00f00full;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}

std::uint64_t morton_of(const Vec3& p) {
  const auto q = [](double v) {
    const double clamped = std::min(1.0, std::max(-1.0, v));
    return static_cast<std::uint64_t>((clamped + 1.0) * 0.5 * 2097151.0);
  };
  return spread3(q(p.x)) | (spread3(q(p.y)) << 1) | (spread3(q(p.z)) << 2);
}

}  // namespace

SharedBodies::SharedBodies(std::size_t n, std::uint64_t seed) {
  pos.resize(n);
  vel.assign(n, Vec3{});
  mass.assign(n, n > 0 ? 1.0 / static_cast<double>(n) : 0.0);
  util::Xoshiro256 rng(seed);
  for (auto& p : pos) {
    p = Vec3{rng.uniform() * 2.0 - 1.0, rng.uniform() * 2.0 - 1.0,
             rng.uniform() * 2.0 - 1.0};
  }
  // Morton-sort so contiguous ownership slices are spatial clusters, as in
  // the paper's Global-Trees substrate (spatially partitioned bodies).
  // Each rank's traversals then touch a bounded distinct node set: the
  // shared top of the tree plus its own neighbourhood.
  std::sort(pos.begin(), pos.end(),
            [](const Vec3& a, const Vec3& b) { return morton_of(a) < morton_of(b); });
}

void assign_payload_slots(std::size_t tree_nodes, int nranks, std::size_t slots_per_rank,
                          std::vector<std::uint32_t>& out) {
  out.resize(tree_nodes);
  const auto nr = static_cast<std::size_t>(nranks);
  // Hash probing per owner: deterministic, collision-free, and spatially
  // uncorrelated with the traversal order (like heap-allocated nodes).
  std::vector<std::vector<bool>> taken(nr);
  for (auto& t : taken) t.assign(slots_per_rank, false);
  for (std::size_t i = 0; i < tree_nodes; ++i) {
    const std::size_t owner = i % nr;
    std::uint64_t h = i;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    std::size_t slot = static_cast<std::size_t>(h % slots_per_rank);
    while (taken[owner][slot]) slot = (slot + 1) % slots_per_rank;
    taken[owner][slot] = true;
    out[i] = static_cast<std::uint32_t>(slot);
  }
}

DistributedBarnesHut::DistributedBarnesHut(rmasim::Process& p,
                                           std::shared_ptr<SharedBodies> shared,
                                           const SolverConfig& cfg)
    : p_(&p), shared_(std::move(shared)), cfg_(cfg) {
  const auto n = shared_->pos.size();
  const auto nr = static_cast<std::size_t>(p.nranks());
  first_ = n * static_cast<std::size_t>(p.rank()) / nr;
  last_ = n * (static_cast<std::size_t>(p.rank()) + 1) / nr;

  // Payload window: holds the payloads of nodes owned by this rank (node
  // i lives on rank i mod P at slot i / P). An octree over N distinct
  // bodies has < 2N nodes in practice; 3N/P + 1k slots give headroom,
  // checked every step.
  payload_slots_ = (3 * n) / nr + 1024;
  void* base = nullptr;
  win_ = p.win_allocate(payload_slots_ * sizeof(NodePayload), &base);
  win_base_ = static_cast<std::byte*>(base);

  if (cfg_.backend == CacheBackend::kClampi) {
    cached_.emplace(p, win_, cfg_.clampi_cfg);
    cached_->lock_all();
  } else if (cfg_.backend == CacheBackend::kNative) {
    native_.emplace(p, win_, cfg_.native_mem_bytes, kNativeBlockBytes);
    p.lock_all(win_);
  } else {
    p.lock_all(win_);
  }
}

DistributedBarnesHut::~DistributedBarnesHut() = default;

const clampi::Stats* DistributedBarnesHut::clampi_stats() const {
  return cached_.has_value() ? &cached_->stats() : nullptr;
}

const NativeBlockCache::Stats* DistributedBarnesHut::native_stats() const {
  return native_.has_value() ? &native_->stats() : nullptr;
}

std::size_t DistributedBarnesHut::clampi_index_entries() const {
  return cached_.has_value() ? cached_->index_entries() : 0;
}

std::size_t DistributedBarnesHut::clampi_storage_bytes() const {
  return cached_.has_value() ? cached_->storage_bytes() : 0;
}

void DistributedBarnesHut::publish_payloads() {
  const auto& tree = shared_->tree;
  CLAMPI_REQUIRE(tree.size() <= payload_slots_ * static_cast<std::size_t>(p_->nranks()),
                 "payload window undersized for this tree");
  CLAMPI_ASSERT(shared_->payload_slot.size() == tree.size(),
                "payload slot map out of date");
  const auto me = static_cast<std::size_t>(p_->rank());
  const auto nr = static_cast<std::size_t>(p_->nranks());
  auto* slots = reinterpret_cast<NodePayload*>(win_base_);
  for (std::size_t i = me; i < tree.size(); i += nr) {
    slots[shared_->payload_slot[i]] = tree.payloads()[i];
  }
}

NodePayload DistributedBarnesHut::fetch_payload(std::int32_t node) {
  const auto nr = static_cast<std::size_t>(p_->nranks());
  const auto idx = static_cast<std::size_t>(node);
  const int owner = static_cast<int>(idx % nr);
  const std::size_t disp = shared_->payload_slot[idx] * sizeof(NodePayload);

  if (owner == p_->rank()) {
    ++current_.local_reads;
    NodePayload out;
    std::memcpy(&out, win_base_ + disp, sizeof(out));
    p_->charge_local_copy(sizeof(out));
    return out;
  }

  if (cfg_.skip_dead_ranks && cfg_.backend == CacheBackend::kClampi &&
      !cfg_.clampi_cfg.degraded_reads) {
    // Typed health query: with no degraded-read policy to fall back on, a
    // down owner is dropped up front instead of paying a fast-fail throw.
    if (!cached_->target_status(owner).usable) {
      ++current_.dropped_gets;
      return NodePayload{};  // zero mass: the traversal skips this cell
    }
  }
  ++current_.remote_gets;
  if (cfg_.track_access_histogram) {
    ++access_counts_[(static_cast<std::uint64_t>(owner) << 48) | disp];
  }
  NodePayload out;
  try {
    switch (cfg_.backend) {
      case CacheBackend::kClampi:
        cached_->get(&out, sizeof(out), owner, disp);
        cached_->flush(owner);  // data-dependent traversal: consume immediately
        break;
      case CacheBackend::kNative:
        native_->get(&out, sizeof(out), owner, disp);
        break;
      case CacheBackend::kNone:
        p_->get(&out, sizeof(out), owner, disp, win_);
        p_->flush(owner, win_);
        break;
    }
  } catch (const fault::OpFailedError&) {
    if (!cfg_.skip_dead_ranks) throw;
    ++current_.dropped_gets;
    return NodePayload{};  // zero mass: the dead owner's cells drop out
  }
  return out;
}

Vec3 DistributedBarnesHut::traverse(std::int32_t body) {
  const auto& tree = shared_->tree;
  CLAMPI_ASSERT(!tree.empty(),
                "force phase on an empty tree — all ranks must be handed the SAME "
                "SharedBodies instance (created before Engine::run)");
  const Vec3 bp = shared_->pos[static_cast<std::size_t>(body)];
  const double eps2 = kSoftening * kSoftening;
  Vec3 acc{};

  stack_.clear();
  stack_.push_back(Octree::kRoot);
  while (!stack_.empty()) {
    const std::int32_t ni = stack_.back();
    stack_.pop_back();
    const Octree::Node& n = tree.nodes()[static_cast<std::size_t>(ni)];
    if (n.count == 0) continue;
    if (n.is_leaf() && n.body == body) continue;  // self-interaction

    // Opening test needs the center of mass -> (possibly remote) payload.
    const NodePayload pl = fetch_payload(ni);
    if (pl.mass <= 0.0) continue;
    const Vec3 com{pl.comx, pl.comy, pl.comz};
    const Vec3 d = com - bp;
    const double dist2 = d.norm2() + eps2;
    const double s = 2.0 * n.half;  // cell edge

    if (n.is_leaf() || s * s < cfg_.theta * cfg_.theta * dist2) {
      const double inv = 1.0 / std::sqrt(dist2);
      acc += d * (pl.mass * inv * inv * inv);
      continue;
    }
    for (const std::int32_t c : n.child) {
      if (c >= 0) stack_.push_back(c);
    }
  }
  return acc;
}

Vec3 DistributedBarnesHut::accel_of(std::int32_t body) { return traverse(body); }

DistributedBarnesHut::StepReport DistributedBarnesHut::step() {
  auto& sh = *shared_;
  p_->barrier();
  if (p_->rank() == 0) {
    sh.tree.build(sh.pos, sh.mass);  // replicated topology, built once (shared)
    assign_payload_slots(sh.tree.size(), p_->nranks(), payload_slots_, sh.payload_slot);
  }
  p_->barrier();
  publish_payloads();
  p_->barrier();

  current_ = StepReport{};
  current_.tree_nodes = sh.tree.size();
  access_counts_.clear();

  const double t0 = p_->now_us();
  std::vector<Vec3> acc(last_ - first_);
  for (std::size_t b = first_; b < last_; ++b) {
    acc[b - first_] = traverse(static_cast<std::int32_t>(b));
  }
  if (cached_.has_value()) {
    // User-defined mode (Listing 1): the read-only phase ends here.
    clampi_invalidate(*cached_);
  }
  if (native_.has_value()) native_->invalidate();
  current_.force_us = p_->now_us() - t0;

  // Leapfrog update of the owned slice (writes are rank-disjoint and
  // ordered by the barriers).
  for (std::size_t b = first_; b < last_; ++b) {
    sh.vel[b] += acc[b - first_] * cfg_.dt;
    sh.pos[b] += sh.vel[b] * cfg_.dt;
  }
  p_->barrier();
  return current_;
}

Vec3 direct_accel(const SharedBodies& sh, std::int32_t body) {
  const auto b = static_cast<std::size_t>(body);
  const double eps2 = kSoftening * kSoftening;
  Vec3 acc{};
  for (std::size_t j = 0; j < sh.pos.size(); ++j) {
    if (j == b) continue;
    const Vec3 d = sh.pos[j] - sh.pos[b];
    const double dist2 = d.norm2() + eps2;
    const double inv = 1.0 / std::sqrt(dist2);
    acc += d * (sh.mass[j] * inv * inv * inv);
  }
  return acc;
}

}  // namespace clampi::bh

#include "kv/workload.h"

#include <algorithm>

#include "util/error.h"
#include "util/rng.h"
#include "util/skew.h"

namespace clampi::kv {

Driver::Driver(Store& store, const WorkloadConfig& cfg, int client_index,
               int nclients)
    : store_(&store), cfg_(cfg), me_(client_index), nclients_(nclients) {
  CLAMPI_REQUIRE(nclients >= 1, "kv workload: nclients must be >= 1");
  CLAMPI_REQUIRE(client_index >= 0 && client_index < nclients,
                 "kv workload: client_index outside [0, nclients)");
  CLAMPI_REQUIRE(cfg_.get_ratio >= 0.0 && cfg_.get_ratio <= 1.0,
                 "kv workload: get_ratio outside [0, 1]");
  CLAMPI_REQUIRE(cfg_.epoch_ops >= 1, "kv workload: epoch_ops must be >= 1");
  const std::uint32_t cap = store.config().layout.value_capacity;
  cfg_.put_len_max = std::min(cfg_.put_len_max, cap);
  cfg_.put_len_min = std::max<std::uint32_t>(1, std::min(cfg_.put_len_min, cfg_.put_len_max));
}

int Driver::writer_of(std::uint64_t key) const {
  return static_cast<int>(util::mix64(key ^ 0x77726974ull) %
                          static_cast<std::uint64_t>(nclients_));
}

bool Driver::validate_get(std::uint64_t key, const GetMeta& m,
                          const std::byte* value) {
  if (m.len > store_->config().layout.value_capacity) return false;
  if (!check_value(key, m.seq, m.len, value)) return false;
  if (writer_of(key) == me_) {
    // Exact check: we are the only writer, so the serving replica must
    // carry precisely the last seq we applied there (0 if we never wrote).
    // A degraded serve may be stale, but never newer than what we wrote.
    const auto it = own_seq_.find(key);
    const std::uint32_t expect =
        it == own_seq_.end() ? 0 : it->second[static_cast<std::size_t>(m.replica_pos)];
    if (store_->convergence_enabled()) {
      // Repairs advance replicas behind our back (a drained hint or an
      // anti-entropy write carries a seq we issued but never saw applied),
      // so the exact equality relaxes to bounds: never below what we
      // applied on that replica, never above what we last issued.
      const auto ns = next_seq_.find(key);
      const std::uint32_t issued = ns == next_seq_.end() ? 0 : ns->second;
      return m.seq >= (m.degraded ? 0 : expect) && m.seq <= issued;
    }
    return m.degraded ? m.seq <= expect : m.seq == expect;
  }
  if (!m.degraded) {
    // Foreign writer: epoch-bounded staleness allows lag, not regression —
    // the same replica must never serve an older seq than it already did.
    auto& seen = last_seen_[key];
    if (seen.first == m.server && m.seq < seen.second) return false;
    seen = {m.server, m.seq};
  }
  return true;
}

WorkloadReport Driver::run(rmasim::Process& p) {
  WorkloadReport r;
  util::Xoshiro256 rng(cfg_.seed ^
                       (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(me_ + 1)));
  util::ZipfSampler zipf(store_->config().nkeys, cfg_.zipf_s);
  const std::uint32_t cap = store_->config().layout.value_capacity;
  std::vector<std::byte> value(cap);
  std::vector<std::byte> scratch(cap);
  std::vector<double> lat;
  lat.reserve(static_cast<std::size_t>(cfg_.ops));

  CachedWindow& win = store_->window();
  win.lock_all();
  const double t0 = p.now_us();
  for (std::uint64_t op = 0; op < cfg_.ops; ++op) {
    if (op != 0 && op % cfg_.epoch_ops == 0) {
      if (cfg_.use_cache) {
        store_->invalidate_cache();  // Listing 1: epoch closes, drop the cache
      }
      // Epoch boundary doubles as the anti-entropy tick: spend the
      // configured key budget reconciling replicas with zero client traffic.
      if (store_->config().antientropy_keys_per_epoch > 0) {
        r.antientropy_repairs += store_->anti_entropy_step();
      }
    }
    std::uint64_t key = store_->key_at(zipf(rng));
    bool is_get = rng.uniform() < cfg_.get_ratio;
    if (!is_get) {
      // Puts stay inside this client's write partition; re-draw a few
      // times, degrade to a get when the skewed draw keeps missing it.
      bool found = writer_of(key) == me_;
      for (int tries = 0; !found && tries < 64; ++tries) {
        key = store_->key_at(zipf(rng));
        found = writer_of(key) == me_;
      }
      if (!found) is_get = true;
    }

    // Open-loop pacing: idle until the op's arrival when ahead of
    // schedule; when behind (overload) the op is simply issued late.
    double deadline_abs = -1.0;
    if (cfg_.op_arrival_period_us > 0.0) {
      const double arrival =
          t0 + static_cast<double>(op) * cfg_.op_arrival_period_us;
      if (p.now_us() < arrival) p.compute_us(arrival - p.now_us());
      if (store_->config().cache.op_deadline_us > 0.0) {
        deadline_abs = arrival + store_->config().cache.op_deadline_us;
      }
    }

    const double s0 = p.now_us();
    if (is_get) {
      ++r.gets;
      ++r.attempted;
      GetMeta m;
      const bool ok = cfg_.use_cache
                          ? store_->get(key, value.data(), &m, deadline_abs)
                          : store_->get_uncached(key, value.data(), &m);
      if (m.hedged) ++r.hedged_gets;
      if (m.hedge_won) ++r.hedge_wins;
      if (m.shed) ++r.ops_shed;
      if (m.deadline) ++r.deadline_misses;
      if (ok) {
        ++r.served;
        r.bucket_reads += static_cast<std::uint64_t>(m.bucket_reads);
        r.chain_follows += static_cast<std::uint64_t>(m.chain_follows);
        r.cached_hits += static_cast<std::uint64_t>(m.cached_hits);
        if (m.version_reread) ++r.version_rereads;
        if (m.degraded) ++r.degraded_serves;
        if (m.rerouted) ++r.rerouted;
        r.read_repairs += static_cast<std::uint64_t>(m.read_repairs);
        if (!validate_get(key, m, value.data())) ++r.mismatches;
      }
    } else {
      ++r.puts;
      ++r.attempted;
      const std::uint32_t seq = ++next_seq_[key];  // first put carries seq 1
      const std::uint32_t len =
          cfg_.put_len_min +
          static_cast<std::uint32_t>(rng.bounded(cfg_.put_len_max - cfg_.put_len_min + 1));
      fill_value(key, seq, len, scratch.data());
      PutMeta pm;
      if (store_->put(key, seq, scratch.data(), len, &pm, cfg_.use_cache)) {
        ++r.served;
        auto& applied = own_seq_[key];  // value-initialized: all replicas at 0
        for (int pos = 0; pos < kMaxReplicas; ++pos) {
          if ((pm.applied_mask >> pos) & 1u) applied[static_cast<std::size_t>(pos)] = seq;
        }
      }
      r.put_replicas_applied += static_cast<std::uint64_t>(pm.applied);
      r.put_replicas_skipped += static_cast<std::uint64_t>(pm.skipped);
      r.put_replicas_hinted += static_cast<std::uint64_t>(pm.hinted);
    }
    lat.push_back(p.now_us() - s0);
  }
  r.elapsed_us = p.now_us() - t0;
  win.unlock_all();

  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    r.p50_us = lat[lat.size() / 2];
    r.p99_us = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
    r.max_us = lat.back();
  }
  return r;
}

}  // namespace clampi::kv

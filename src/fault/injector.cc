#include "fault/injector.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace clampi::fault {

namespace {

constexpr std::uint64_t kSaltFail = 0xfa11ed00000001ull;
constexpr std::uint64_t kSaltSpike = 0x51eeee00000002ull;
constexpr std::uint64_t kSaltStale = 0x57a1e000000003ull;
constexpr std::uint64_t kSaltBitflip = 0xb17f11b0000004ull;
constexpr std::uint64_t kSaltTargetFail = 0x7a26e7fa0000005ull;
constexpr std::uint64_t kSaltTornWrite = 0x70a2222170000006ull;
constexpr std::uint64_t kSaltTornLen = 0x70a2223e10000007ull;
constexpr std::uint64_t kSaltJournalRot = 0x10a2a1207000008ull;

// Stateless mix of two words (SplitMix64 over a combined state); used to
// fold (seed, salt, origin, target, seq) into one uniform draw.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  util::SplitMix64 sm(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
  return sm.next();
}

}  // namespace

Injector::Injector(Plan plan) : plan_(std::move(plan)) {
  for (const double p : plan_.fail_prob) {
    CLAMPI_REQUIRE(p >= 0.0 && p <= 1.0, "fault plan: failure probability outside [0,1]");
  }
  CLAMPI_REQUIRE(plan_.spike_prob >= 0.0 && plan_.spike_prob <= 1.0,
                 "fault plan: spike probability outside [0,1]");
  CLAMPI_REQUIRE(plan_.spike_factor >= 0.0, "fault plan: negative spike factor");
  CLAMPI_REQUIRE(plan_.spike_addend_us >= 0.0, "fault plan: negative spike addend");
  for (const DegradedEpoch& e : plan_.degraded) {
    CLAMPI_REQUIRE(e.rank >= 0, "fault plan: degraded epoch without a rank");
    CLAMPI_REQUIRE(e.latency_factor >= 1.0,
                   "fault plan: degraded epochs slow transfers down (factor >= 1)");
  }
  for (const StragglerEpoch& e : plan_.stragglers) {
    CLAMPI_REQUIRE(e.rank >= 0, "fault plan: straggler epoch without a rank");
    CLAMPI_REQUIRE(e.factor >= 1.0,
                   "fault plan: straggler epochs slow transfers down (factor >= 1)");
  }
  CLAMPI_REQUIRE(plan_.storage_bitflip_prob >= 0.0 && plan_.storage_bitflip_prob <= 1.0,
                 "fault plan: storage bit-flip probability outside [0,1]");
  CLAMPI_REQUIRE(plan_.stale_put_prob >= 0.0 && plan_.stale_put_prob <= 1.0,
                 "fault plan: stale-put probability outside [0,1]");
  for (const double p : plan_.target_fail_prob) {
    CLAMPI_REQUIRE(p >= 0.0 && p <= 1.0,
                   "fault plan: per-target failure probability outside [0,1]");
  }
  for (const PartitionEpoch& e : plan_.partitions) {
    CLAMPI_REQUIRE(e.from >= 0 && e.to >= 0,
                   "fault plan: partition epoch with a negative rank");
    CLAMPI_REQUIRE(e.from != e.to,
                   "fault plan: a rank cannot be partitioned from itself");
  }
  for (std::size_t r = 0; r < plan_.revive_us.size(); ++r) {
    const double rv = plan_.revive_us[r];
    if (rv < 0.0) continue;
    CLAMPI_REQUIRE(r < plan_.death_us.size() && plan_.death_us[r] >= 0.0,
                   "fault plan: revival for a rank with no death instant");
    CLAMPI_REQUIRE(rv > plan_.death_us[r],
                   "fault plan: revival must come after the death instant");
  }
  for (const CrashEpoch& e : plan_.crashes) {
    CLAMPI_REQUIRE(e.rank >= 0, "fault plan: crash epoch without a rank");
    CLAMPI_REQUIRE(e.at_us >= 0.0, "fault plan: crash instant must be >= 0");
    CLAMPI_REQUIRE(e.restart_us > e.at_us,
                   "fault plan: crash restart must come after the crash instant");
    for (const CrashEpoch& o : plan_.crashes) {
      if (&o == &e || o.rank != e.rank) continue;
      CLAMPI_REQUIRE(o.restart_us <= e.at_us || o.at_us >= e.restart_us,
                     "fault plan: crash epochs of one rank must not overlap");
    }
  }
  CLAMPI_REQUIRE(plan_.torn_write_prob >= 0.0 && plan_.torn_write_prob <= 1.0,
                 "fault plan: torn-write probability outside [0,1]");
  CLAMPI_REQUIRE(plan_.journal_corrupt_prob >= 0.0 && plan_.journal_corrupt_prob <= 1.0,
                 "fault plan: journal-corrupt probability outside [0,1]");
}

Corruptor::Corruptor(std::uint64_t seed, double prob) : rng_(seed), prob_(prob) {
  advance();
}

void Corruptor::advance() {
  if (prob_ <= 0.0) {
    skip_ = ~std::uint64_t{0};  // never flips
    return;
  }
  if (prob_ >= 1.0) {
    skip_ = 0;  // flips every byte
    return;
  }
  // Geometric skip: the number of clean bytes before the next flipped one,
  // drawn as floor(log(u) / log(1-p)) with u uniform in (0, 1].
  const double u = (static_cast<double>(rng_.next() >> 11) + 1.0) * 0x1.0p-53;
  skip_ = static_cast<std::uint64_t>(std::log(u) / std::log(1.0 - prob_));
}

std::size_t Corruptor::apply(std::byte* data, std::size_t len) {
  std::size_t pos = 0;
  std::size_t flips = 0;
  while (skip_ < len - pos) {
    pos += skip_;
    data[pos] ^= std::byte{1} << (rng_.next() & 7);
    ++flips;
    ++pos;
    advance();
  }
  skip_ -= len - pos;
  return flips;
}

void Injector::prepare(int nranks) {
  if (nranks <= nranks_) return;
  nranks_ = nranks;
  seq_.assign(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks), 0);
}

std::uint64_t Injector::next_seq(int origin, int target) {
  const int needed = std::max(origin, target) + 1;
  if (needed > nranks_) prepare(needed);
  return seq_[static_cast<std::size_t>(origin) * static_cast<std::size_t>(nranks_) +
              static_cast<std::size_t>(target)]++;
}

double Injector::draw(std::uint64_t salt, int origin, int target, std::uint64_t seq) const {
  std::uint64_t h = mix(plan_.seed, salt);
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(target)));
  h = mix(h, seq);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Corruptor Injector::corruptor(int rank, std::uint64_t epoch) const {
  std::uint64_t h = mix(plan_.seed, kSaltBitflip);
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)));
  h = mix(h, epoch);
  return {h, plan_.storage_bitflip_prob};
}

bool Injector::stale_put_verdict(int origin, int target) const {
  const double p = plan_.stale_put_prob;
  if (p <= 0.0) return false;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(target));
  const std::uint64_t seq = stale_seq_[key]++;
  return draw(kSaltStale, origin, target, seq) < p;
}

bool Injector::dead(int rank, double now_us) const {
  // A crashed rank is silent for its whole outage interval; at restart
  // it is alive again (with wiped memory — the engine handles the wipe).
  for (const CrashEpoch& e : plan_.crashes) {
    if (e.rank == rank && now_us >= e.at_us && now_us < e.restart_us) return true;
  }
  if (rank < 0 || static_cast<std::size_t>(rank) >= plan_.death_us.size()) return false;
  const double d = plan_.death_us[static_cast<std::size_t>(rank)];
  if (d < 0.0 || now_us < d) return false;
  // A revived rank is alive again from its revival instant onward.
  if (static_cast<std::size_t>(rank) < plan_.revive_us.size()) {
    const double rv = plan_.revive_us[static_cast<std::size_t>(rank)];
    if (rv >= 0.0 && now_us >= rv) return false;
  }
  return true;
}

int Injector::restarts_due(int rank, double now_us) const {
  int n = 0;
  for (const CrashEpoch& e : plan_.crashes) {
    if (e.rank == rank && now_us >= e.restart_us) ++n;
  }
  return n;
}

bool Injector::torn_write(int rank, int crash_idx) const {
  if (plan_.torn_write_prob <= 0.0) return false;
  return draw(kSaltTornWrite, rank, crash_idx, 0) < plan_.torn_write_prob;
}

std::size_t Injector::torn_garbage_len(int rank, int crash_idx) const {
  // Small, non-zero: enough to look like a half-persisted record without
  // dwarfing the journal. Pure function of (seed, rank, crash_idx).
  std::uint64_t h = mix(plan_.seed, kSaltTornLen);
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(crash_idx)));
  return 8 + static_cast<std::size_t>(h % 56);
}

Corruptor Injector::journal_corruptor(int rank, int crash_idx) const {
  std::uint64_t h = mix(plan_.seed, kSaltJournalRot);
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)));
  h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(crash_idx)));
  return {h, plan_.journal_corrupt_prob};
}

bool Injector::partitioned(int origin, int target, double now_us) const {
  for (const PartitionEpoch& e : plan_.partitions) {
    if (e.from == origin && e.to == target && now_us >= e.from_us &&
        now_us < e.until_us) {
      return true;
    }
  }
  return false;
}

bool Injector::degraded(int rank, double now_us) const {
  return degrade_factor(rank, now_us) != 1.0;
}

double Injector::degrade_factor(int rank, double now_us) const {
  double f = 1.0;
  for (const DegradedEpoch& e : plan_.degraded) {
    if (e.rank == rank && now_us >= e.from_us && now_us < e.until_us) {
      f *= e.latency_factor;
    }
  }
  return f;
}

bool Injector::slow(int rank, double now_us) const {
  return slow_factor(rank, now_us) != 1.0;
}

double Injector::slow_factor(int rank, double now_us) const {
  double f = 1.0;
  for (const StragglerEpoch& e : plan_.stragglers) {
    if (e.rank == rank && now_us >= e.from_us && now_us < e.until_us) {
      f *= e.factor;
    }
  }
  return f;
}

Injector::Verdict Injector::on_op(OpKind op, int origin, int target, std::size_t bytes,
                                  double now_us) {
  (void)op;
  (void)bytes;
  const std::uint64_t seq = next_seq(origin, target);
  Verdict v;
  if (dead(target, now_us)) {
    v.fail = true;
    v.kind = FailureKind::kRankDead;
    return v;
  }
  if (partitioned(origin, target, now_us)) {
    v.fail = true;
    v.kind = FailureKind::kPartitioned;
    return v;
  }
  const auto tier = static_cast<std::size_t>(plan_.topology.distance(origin, target));
  const double p = plan_.fail_prob[tier];
  if (p > 0.0 && draw(kSaltFail, origin, target, seq) < p) {
    v.fail = true;
    v.kind = FailureKind::kTransient;
    return v;
  }
  // Per-target flaky-NIC failures, independent of the distance tiers.
  if (target >= 0 && static_cast<std::size_t>(target) < plan_.target_fail_prob.size()) {
    const double tp = plan_.target_fail_prob[static_cast<std::size_t>(target)];
    if (tp > 0.0 && draw(kSaltTargetFail, origin, target, seq) < tp) {
      v.fail = true;
      v.kind = FailureKind::kTransient;
      return v;
    }
  }
  if (plan_.spike_prob > 0.0 && draw(kSaltSpike, origin, target, seq) < plan_.spike_prob) {
    v.latency_factor *= plan_.spike_factor;
    v.latency_addend_us += plan_.spike_addend_us;
  }
  const double df = degrade_factor(target, now_us);
  if (df != 1.0) v.latency_factor *= df;
  const double sf = slow_factor(target, now_us);
  if (sf != 1.0) v.latency_factor *= sf;
  return v;
}

void Injector::reset() {
  std::fill(seq_.begin(), seq_.end(), 0);
  stale_seq_.clear();
}

}  // namespace clampi::fault

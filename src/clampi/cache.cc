#include "clampi/cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>

#include "clampi/checksum.h"
#include "util/align.h"
#include "util/rng.h"
#include "util/spin_mutex.h"

namespace clampi {

namespace {

class PhaseTimer {
 public:
  explicit PhaseTimer(bool enabled) : enabled_(enabled) {
    if (enabled_) last_ = phase_clock_ns();
  }
  void lap(double* accum) {
    if (!enabled_) return;
    const double now = phase_clock_ns();
    *accum += now - last_;
    last_ = now;
  }

 private:
  bool enabled_;
  double last_ = 0.0;
};

// Per-shard seed salt: Weyl increments of the golden-ratio constant give
// every shard independent index hash functions and sampling streams while
// shard 0 keeps the unsalted seeds — with cache_shards == 1 the single
// shard is seeded exactly like the pre-sharding cache.
constexpr std::uint64_t kShardSeedSalt = 0x9e3779b97f4a7c15ull;

// Address-index granularity: an entry is chained under the 256-byte block
// its displacement falls in.
constexpr unsigned kAddrBlockBits = 8;

}  // namespace

double phase_clock_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);  // vDSO: cheap enough to time phases
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

const char* to_string(AccessType t) {
  switch (t) {
    case AccessType::kHit: return "hit";
    case AccessType::kHitPending: return "hit_pending";
    case AccessType::kPartialHit: return "partial_hit";
    case AccessType::kDirect: return "direct";
    case AccessType::kConflicting: return "conflicting";
    case AccessType::kCapacity: return "capacity";
    case AccessType::kFailing: return "failing";
  }
  return "?";
}

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kTransparent: return "transparent";
    case Mode::kAlwaysCache: return "always_cache";
    case Mode::kUserDefined: return "user_defined";
  }
  return "?";
}

const char* to_string(ScoreKind s) {
  switch (s) {
    case ScoreKind::kFull: return "full";
    case ScoreKind::kTemporal: return "temporal";
    case ScoreKind::kPositional: return "positional";
  }
  return "?";
}

// One lock-striped partition: a full single-shard cache in miniature.
// alignas(64) + one heap allocation per shard keep the mutex and the hot
// members of different shards on different cache lines (no false sharing
// between concurrently-held locks).
struct alignas(64) CacheCore::Shard {
  mutable util::SpinMutex mu;
  /// False on a single-shard cache: the lock guards below become no-ops,
  /// so cache_shards = 1 keeps the pre-sharding lock-free hot path (and
  /// its single-threaded-only contract; see cache.h).
  const bool locking;
  EntryOps ops;  ///< per-shard index callbacks (stable address, see index)
  CuckooIndex<EntryOps> index;
  Storage storage;
  std::vector<Entry> entries;
  std::vector<std::uint32_t> free_ids;  ///< local ids (shard bits stripped)
  std::vector<std::uint32_t> path;      ///< scratch: cuckoo insertion path
  std::size_t live = 0;
  std::size_t pending = 0;
  std::uint64_t g = 0;   ///< |C_w.G| restricted to this shard's key stream
  double ags = 0.0;      ///< running average get size of this shard
  std::uint64_t verify_tick = 0;  ///< hit counter for verify_every_n sampling
  util::Xoshiro256 rng;           ///< eviction sampling
  CuckooIndex<EntryOps>::Counters counter_base;  ///< banked across resize()
  mutable Stats stats;  ///< per-shard counters, folded by sync_hot_counters()

  // Address index for put invalidation: a chained hash over (target,
  // disp >> kAddrBlockBits). Each live entry is linked (through
  // Entry::addr_next, local ids) into the chain of the block its key
  // starts in from creation until release_entry(), so chains hold only
  // live entries (audit() checks it). With no live entry
  // longer than addr_max_size, every entry overlapping a put starts in
  // one of the blocks covering (disp - addr_max_size, disp + bytes).
  std::vector<std::uint32_t> addr_heads;  ///< chain heads; power-of-two size
  unsigned addr_shift = 63;               ///< 64 - log2(addr_heads.size())
  std::size_t addr_max_size = 0;  ///< entry-size high-water mark since reset
  std::vector<std::uint32_t> addr_hits;  ///< scratch: invalidate_overlap matches

  Shard(std::size_t index_slots, std::size_t storage_capacity, const Config& cfg,
        std::uint64_t index_seed, std::uint64_t rng_seed, std::uint32_t shard_bits)
      : locking(cfg.cache_shards > 1),
        ops{this, shard_bits},
        index(index_slots, cfg.cuckoo_arity, cfg.max_insert_iters, index_seed, &ops),
        storage(storage_capacity),
        rng(rng_seed) {
    addr_reset();
  }

  std::size_t addr_bucket(std::int32_t target, std::uint64_t block) const {
    // Fibonacci hashing: consecutive blocks of one target spread evenly
    // over the top bits; the target term permutes them per target.
    const std::uint64_t h =
        (block * 0x9e3779b97f4a7c15ull) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(target)) *
         0xbf58476d1ce4e5b9ull);
    return static_cast<std::size_t>(h >> addr_shift);
  }
  std::size_t addr_bucket(Key k) const {
    return addr_bucket(k.target, k.disp >> kAddrBlockBits);
  }
  /// Empty every chain and size the heads to the current index (at least
  /// one chain per index slot, so chains stay about one entry long).
  void addr_reset() {
    const std::size_t n = std::bit_ceil(std::max<std::size_t>(index.nslots(), 2));
    addr_heads.assign(n, kNoEntry);
    addr_shift = 64 - static_cast<unsigned>(std::countr_zero(n));
    addr_max_size = 0;
  }
  void addr_link(std::uint32_t local) {
    Entry& e = entries[local];
    std::uint32_t& head = addr_heads[addr_bucket(e.key)];
    e.addr_next = head;
    head = local;
    addr_max_size = std::max(addr_max_size, e.size);
  }
  void addr_unlink(std::uint32_t local) {
    std::uint32_t* link = &addr_heads[addr_bucket(entries[local].key)];
    while (*link != local) {
      CLAMPI_ASSERT(*link != kNoEntry, "entry missing from its address chain");
      link = &entries[*link].addr_next;
    }
    *link = entries[local].addr_next;
  }

  /// Counting guard for the access/entry paths: a failed try_lock is the
  /// contention signal, and both counters are bumped under the lock so
  /// they never race.
  class AccessLock {
   public:
    explicit AccessLock(const Shard& s) : s_(s) {
      if (!s_.locking) return;
      const bool contended = !s_.mu.try_lock();
      if (contended) s_.mu.lock();
      ++s_.stats.shard_lock_acquisitions;
      if (contended) ++s_.stats.shard_lock_contended;
    }
    ~AccessLock() {
      if (s_.locking) s_.mu.unlock();
    }
    AccessLock(const AccessLock&) = delete;
    AccessLock& operator=(const AccessLock&) = delete;

   private:
    const Shard& s_;
  };

  /// Plain guard for maintenance walks and aggregate reads (not counted
  /// as hot-path acquisitions).
  class Lock {
   public:
    explicit Lock(const Shard& s) : s_(s) {
      if (s_.locking) s_.mu.lock();
    }
    ~Lock() {
      if (s_.locking) s_.mu.unlock();
    }
    Lock(const Lock&) = delete;
    Lock& operator=(const Lock&) = delete;

   private:
    const Shard& s_;
  };

  /// Every shard lock, acquired in ascending shard order (the repo-wide
  /// lock order for cross-shard operations) and released in reverse.
  class AllLock {
   public:
    explicit AllLock(const std::vector<std::unique_ptr<Shard>>& shards)
        : shards_(shards) {
      if (!shards_.front()->locking) return;
      for (const auto& sp : shards_) sp->mu.lock();
    }
    ~AllLock() {
      if (!shards_.front()->locking) return;
      for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
        (*it)->mu.unlock();
      }
    }
    AllLock(const AllLock&) = delete;
    AllLock& operator=(const AllLock&) = delete;

   private:
    const std::vector<std::unique_ptr<Shard>>& shards_;
  };
};

std::uint64_t CacheCore::EntryOps::hash_key(std::uint32_t id) const {
  // Cold path only (index erase / validate): the insertion walk reads the
  // occupant keys the index stores beside its slot words.
  return make_hkey(shard->entries[id >> shard_bits].key);
}

namespace {
// Validation must precede the shard constructors: a malformed config
// (cuckoo_arity = 0, index_entries = 0, non-power-of-two cache_shards)
// would trip their internals before the constructor body ran.
const Config& validated(const Config& cfg) {
  validate_config(cfg);
  return cfg;
}
}  // namespace

CacheCore::CacheCore(const Config& cfg) : cfg_(validated(cfg)) {
  const std::size_t n = cfg_.cache_shards;
  std::uint32_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  shard_bits_ = bits;
  shard_mask_ = static_cast<std::uint32_t>(n - 1);
  const std::size_t per_index = cfg_.index_entries / n;
  const std::size_t per_storage = cfg_.storage_bytes / n;
  shards_.reserve(n);
  for (std::size_t si = 0; si < n; ++si) {
    const std::uint64_t salt = static_cast<std::uint64_t>(si) * kShardSeedSalt;
    shards_.push_back(std::make_unique<Shard>(
        per_index, per_storage, cfg_, cfg_.seed ^ salt,
        (cfg_.seed ^ 0xa5a5a5a5a5a5a5a5ull) ^ salt, shard_bits_));
  }
  shard_tab_.reserve(n);
  for (const auto& sp : shards_) shard_tab_.push_back(sp.get());
}

CacheCore::~CacheCore() = default;

std::uint64_t CacheCore::make_hkey(Key k) {
  // SplitMix-style mix of (target, disp); exact matching is done on the
  // stored Key, so this only needs to spread well.
  std::uint64_t z = k.disp * 0x9e3779b97f4a7c15ull +
                    static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.target)) *
                        0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::size_t CacheCore::shard_of(Key key) const {
  return shard_of_hkey(make_hkey(key));
}

std::uint32_t CacheCore::alloc_entry(Shard& s, std::size_t shard_idx) {
  if (!s.free_ids.empty()) {
    const std::uint32_t local = s.free_ids.back();
    s.free_ids.pop_back();
    return encode_id(shard_idx, local);
  }
  s.entries.emplace_back();
  return encode_id(shard_idx, static_cast<std::uint32_t>(s.entries.size() - 1));
}

void CacheCore::release_entry(Shard& s, std::uint32_t id) {
  Entry& e = s.entries[local_of(id)];
  CLAMPI_ASSERT(!e.pending, "releasing a PENDING entry");
  s.addr_unlink(local_of(id));
  e.live = false;
  e.region = nullptr;
  s.free_ids.push_back(local_of(id));
}

void CacheCore::evict_entry(Shard& s, std::uint32_t id) {
  Entry& e = s.entries[local_of(id)];
  CLAMPI_ASSERT(e.live, "evicting a dead entry");
  CLAMPI_ASSERT(!e.pending, "evicting a PENDING entry");
  const bool erased = s.index.erase(id);
  CLAMPI_ASSERT(erased, "live entry missing from the index");
  s.storage.dealloc(e.region);
  --s.live;
  release_entry(s, id);
  ++s.stats.evictions;
}

double CacheCore::score_locked(const Shard& s, std::uint32_t id) const {
  const Entry& e = s.entries[local_of(id)];
  CLAMPI_ASSERT(e.live, "scoring a dead entry");
  const double rt =
      s.g == 0 ? 1.0 : static_cast<double>(e.last) / static_cast<double>(s.g);
  double rp = 1.0;
  if (s.ags > 0.0) {
    const double dc = static_cast<double>(s.storage.adjacent_free(e.region));
    rp = std::min(std::abs(s.ags - dc) / s.ags, 1.0);
  }
  switch (cfg_.score) {
    case ScoreKind::kFull: return rp * rt;
    case ScoreKind::kTemporal: return rt;
    case ScoreKind::kPositional: return rp;
  }
  return rp * rt;
}

double CacheCore::score(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  return score_locked(s, id);
}

bool CacheCore::capacity_eviction_round(Shard& s) {
  ++s.stats.eviction_rounds;
  const std::size_t n = s.index.nslots();
  const std::size_t start = s.rng.bounded(n);
  const auto sample = static_cast<std::size_t>(cfg_.sample_size);

  std::uint32_t best = kNoEntry;
  double best_score = std::numeric_limits<double>::infinity();
  std::size_t nonempty = 0;
  std::size_t scanned = 0;
  // Scan M slots; if they were all empty, keep scanning until the first
  // non-empty one (v_i = max(M, k_i), Sec. III-D).
  while (scanned < n) {
    const std::uint32_t id = s.index.entry_at((start + scanned) % n);
    ++scanned;
    ++s.stats.visited_slots;
    if (id != kNoEntry) {
      ++s.stats.visited_nonempty;
      ++nonempty;
      if (!s.entries[local_of(id)].pending) {
        const double sc = score_locked(s, id);
        if (sc < best_score) {
          best_score = sc;
          best = id;
        }
      }
    }
    if (scanned >= sample && nonempty >= 1) break;
  }
  if (best == kNoEntry) return false;  // nothing evictable (e.g. all pending)
  evict_entry(s, best);
  return true;
}

namespace {
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}
}  // namespace

bool CacheCore::insert_with_conflict_handling(Shard& s, std::uint64_t hkey,
                                              std::uint32_t id, bool& conflicted) {
  conflicted = false;
  if (s.index.insert(hkey, id, &s.path)) return true;
  conflicted = true;
  for (int attempt = 0; attempt < cfg_.max_conflict_evictions; ++attempt) {
    // Scoring a path candidate chases entry -> region -> neighbours, three
    // dependent misses. Issue each level for the whole path before the
    // next, so the misses of one level overlap instead of queueing behind
    // each other; the scoring loop below then runs on resident lines.
    // Prefetches change no state: the same victim wins as without them.
    for (const std::uint32_t cand : s.path) {
      const Entry* e = &s.entries[local_of(cand)];
      prefetch_read(e);
      prefetch_read(reinterpret_cast<const char*>(e) + offsetof(Entry, live));
    }
    for (const std::uint32_t cand : s.path) {
      const Entry& e = s.entries[local_of(cand)];
      if (e.live && !e.pending) prefetch_read(e.region);
    }
    for (const std::uint32_t cand : s.path) {
      const Entry& e = s.entries[local_of(cand)];
      if (!e.live || e.pending) continue;
      if (e.region->prev != nullptr) prefetch_read(e.region->prev);
      if (e.region->next != nullptr) prefetch_read(e.region->next);
    }
    // Victim: the lowest-scoring evictable entry on the insertion path
    // (first in path order on ties).
    std::uint32_t victim = kNoEntry;
    double victim_score = std::numeric_limits<double>::infinity();
    for (const std::uint32_t cand : s.path) {
      const Entry& e = s.entries[local_of(cand)];
      if (!e.live || e.pending) continue;
      const double sc = score_locked(s, cand);
      if (sc < victim_score) {
        victim_score = sc;
        victim = cand;
      }
    }
    if (victim == kNoEntry) return false;
    evict_entry(s, victim);
    if (s.index.insert(hkey, id, &s.path)) return true;
  }
  return false;
}

CacheCore::Result CacheCore::access(Key key, std::size_t bytes, std::uint64_t dtype_sig,
                                    PhaseBreakdown* phases) {
  return access_impl(key, bytes, dtype_sig, phases, nullptr);
}

CacheCore::Result CacheCore::access_read(Key key, std::size_t bytes, std::byte* dest,
                                         std::uint64_t dtype_sig) {
  return access_impl(key, bytes, dtype_sig, nullptr, dest);
}

CacheCore::Result CacheCore::access_impl(Key key, std::size_t bytes,
                                         std::uint64_t dtype_sig,
                                         PhaseBreakdown* phases, std::byte* dest) {
  CLAMPI_REQUIRE(bytes > 0, "zero-byte get_c");
  PhaseTimer timer(phases != nullptr && cfg_.collect_phase_timings);

  const std::uint64_t hkey = make_hkey(key);
  // Resolved with a real branch, not a select: on a single-shard cache
  // the pointer load must not wait out make_hkey's multiply chain (a cmov
  // would carry that data dependency into every member access below).
  std::size_t shard_idx = 0;
  Shard* sp = shard_tab_.front();
  if (shard_bits_ != 0) {
    shard_idx = static_cast<std::size_t>(hkey >> (64 - shard_bits_));
    sp = shard_tab_[shard_idx];
  }
  Shard& s = *sp;
  Shard::AccessLock lock(s);

  ++s.g;
  ++s.stats.total_gets;
  s.ags += (static_cast<double>(bytes) - s.ags) / static_cast<double>(s.g);

  int probes = 0;
  std::uint32_t found = s.index.lookup(
      hkey, [&](std::uint32_t id) { return s.entries[local_of(id)].key == key; },
      &probes);
  // Probe counting lives here, not in the index: this store lands next to
  // the stats stores access() performs anyway, keeping lookup() store-free.
  s.stats.index_probes += static_cast<std::uint64_t>(probes);
  if (phases != nullptr) timer.lap(&phases->lookup_ns);

  Result res;
  // --- integrity guard: sampled checksum verification on CACHED hits ---
  // Off the hot path unless configured (one predictable branch when
  // verify_every_n == 0). On a mismatch the entry is quarantined and the
  // access falls through to the miss path below, which re-fetches and
  // re-caches the data — the caller never sees the corrupt bytes.
  if (cfg_.verify_every_n != 0 && found != kNoEntry &&
      !s.entries[local_of(found)].pending) [[unlikely]] {
    if (++s.verify_tick >= cfg_.verify_every_n) {
      s.verify_tick = 0;
      ++s.stats.checksum_verifications;
      const Entry& e = s.entries[local_of(found)];
      if (entry_checksum(s, e) != e.csum) {
        ++s.stats.corruption_detected;
        ++s.stats.self_heals;
        evict_entry(s, found);  // quarantine; lock already held
        res.healed = true;
        found = kNoEntry;  // continue as a miss: transparent re-fetch
      }
    }
  }
  if (found != kNoEntry) {
    Entry& e = s.entries[local_of(found)];
    e.last = s.g;
    res.entry = found;
    if (bytes <= e.size) {
      // --- full hit ---
      res.cached_bytes = bytes;
      s.stats.bytes_from_cache += bytes;
      if (e.pending) {
        ++s.stats.hits_pending;
        res.type = AccessType::kHitPending;
        res.serve_now = false;
      } else {
        ++s.stats.hits_full;
        res.type = AccessType::kHit;
        res.serve_now = true;
        // access_read(): copy out while the lock pins the region — a
        // concurrent capacity eviction in this shard could otherwise free
        // or reuse it between unlock and the caller's memcpy.
        if (dest != nullptr) std::memcpy(dest, s.storage.data(e.region), bytes);
      }
      if (phases != nullptr) phases->type = res.type;
      return res;
    }
    // --- partial hit: prefix from cache, tail from the network ---
    ++s.stats.hits_partial;
    res.type = AccessType::kPartialHit;
    res.cached_bytes = e.size;
    res.serve_now = !e.pending;
    s.stats.bytes_from_cache += e.size;
    s.stats.bytes_from_network += bytes - e.size;
    if (dest != nullptr && res.serve_now && e.size > 0) {
      std::memcpy(dest, s.storage.data(e.region), e.size);
    }
    // Extend only if S_w has room (no evictions for extensions: keeps the
    // weak-caching overhead bound). Try in place first, then relocate.
    bool extended = s.storage.try_extend(e.region, bytes);
    if (!extended) {
      Storage::Region* moved = s.storage.alloc(bytes);
      if (moved != nullptr) {
        if (e.size > 0) {
          // Copy even when the entry is pending: an entry extended twice
          // within one epoch is pending *and* still holds its previously
          // cached prefix, which no copy-in will rewrite at flush.
          // (Found by chaos_fuzz seed 6: the prefix of a relocated
          // pending entry read back as zeros. For a miss-born pending
          // entry the copied bytes are garbage but harmless — its own
          // copy-in overwrites them at flush.)
          std::memcpy(s.storage.data(moved), s.storage.data(e.region), e.size);
        }
        s.storage.dealloc(e.region);
        e.region = moved;
        extended = true;
      }
    }
    if (extended) {
      res.prev_bytes = e.size;
      res.prev_sig = e.sig;
      res.prev_pending = e.pending;
      e.size = bytes;
      s.addr_max_size = std::max(s.addr_max_size, bytes);
      if (!e.pending) {
        e.pending = true;  // tail arrives at flush
        ++s.pending;
      }
      res.extended = true;
      // The (possibly different) requester layout now defines the entry's
      // contents; without extension the stored data and signature stay.
      e.sig = dtype_sig;
    }
    if (phases != nullptr) {
      timer.lap(&phases->insert_ns);
      phases->type = res.type;
    }
    return res;
  }

  // --- miss ---
  s.stats.bytes_from_network += bytes;
  const std::uint32_t id = alloc_entry(s, shard_idx);
  // Born PENDING so the eviction rounds below never consider the entry a
  // victim while it has no region yet.
  s.entries[local_of(id)] = Entry{key,      bytes,     nullptr,    s.g,
                                  /*pending=*/true, /*live=*/true, kNoEntry, dtype_sig,
                                  /*csum=*/0, /*stamp=*/0.0};
  s.addr_link(local_of(id));
  ++s.pending;
  const auto discard_new_entry = [&] {
    Entry& ne = s.entries[local_of(id)];
    ne.pending = false;
    --s.pending;
    ne.live = false;
    release_entry(s, id);
  };

  bool conflicted = false;
  if (!insert_with_conflict_handling(s, hkey, id, conflicted)) {
    discard_new_entry();
    ++s.stats.failing;
    ++s.stats.failed_index;
    res.type = AccessType::kFailing;
    res.entry = kNoEntry;
    if (phases != nullptr) {
      timer.lap(&phases->eviction_ns);
      phases->type = res.type;
    }
    return res;
  }
  if (phases != nullptr) {
    if (conflicted) {
      timer.lap(&phases->eviction_ns);
    } else {
      timer.lap(&phases->insert_ns);
    }
  }

  Storage::Region* region = s.storage.alloc(bytes);
  bool capacity_evicted = false;
  // Requests larger than all of this shard's S_w partition can never fit;
  // evicting for them would only throw away useful entries before failing
  // anyway.
  if (region == nullptr &&
      util::round_up(bytes, util::kCacheLineBytes) <= s.storage.capacity()) {
    // One sampled eviction round: constant per-access overhead ("weak
    // caching", Sec. III-D2). If space still cannot be made, fail.
    capacity_evicted = capacity_eviction_round(s);
    if (capacity_evicted) region = s.storage.alloc(bytes);
    if (phases != nullptr) timer.lap(&phases->eviction_ns);
  }
  if (region == nullptr) {
    const bool erased = s.index.erase(id);
    CLAMPI_ASSERT(erased, "fresh entry missing from the index");
    discard_new_entry();
    ++s.stats.failing;
    ++s.stats.failed_capacity;
    res.type = AccessType::kFailing;
    res.entry = kNoEntry;
    if (phases != nullptr) phases->type = res.type;
    return res;
  }

  Entry& e = s.entries[local_of(id)];
  e.region = region;  // pending already set at creation
  ++s.live;
  res.entry = id;
  res.inserted = true;
  if (conflicted) {
    ++s.stats.conflicting;
    res.type = AccessType::kConflicting;
  } else if (capacity_evicted) {
    ++s.stats.capacity;
    res.type = AccessType::kCapacity;
  } else {
    ++s.stats.direct;
    res.type = AccessType::kDirect;
  }
  if (phases != nullptr) {
    timer.lap(&phases->insert_ns);
    phases->type = res.type;
  }
  return res;
}

std::byte* CacheCore::entry_data(std::uint32_t id) {
  Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  Entry& e = s.entries[local_of(id)];
  CLAMPI_ASSERT(e.live, "entry_data on a dead entry");
  return s.storage.data(e.region);
}

const std::byte* CacheCore::entry_data(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  const Entry& e = s.entries[local_of(id)];
  CLAMPI_ASSERT(e.live, "entry_data on a dead entry");
  return s.storage.data(e.region);
}

std::size_t CacheCore::entry_bytes(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  CLAMPI_ASSERT(s.entries[local_of(id)].live, "entry_bytes on a dead entry");
  return s.entries[local_of(id)].size;
}

Key CacheCore::entry_key(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  CLAMPI_ASSERT(s.entries[local_of(id)].live, "entry_key on a dead entry");
  return s.entries[local_of(id)].key;
}

std::uint64_t CacheCore::entry_signature(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  CLAMPI_ASSERT(s.entries[local_of(id)].live, "entry_signature on a dead entry");
  return s.entries[local_of(id)].sig;
}

bool CacheCore::entry_pending(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  CLAMPI_ASSERT(s.entries[local_of(id)].live, "entry_pending on a dead entry");
  return s.entries[local_of(id)].pending;
}

void CacheCore::mark_cached(std::uint32_t id) {
  Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  Entry& e = s.entries[local_of(id)];
  CLAMPI_ASSERT(e.live, "mark_cached on a dead entry");
  if (e.pending) {
    e.pending = false;
    CLAMPI_ASSERT(s.pending > 0, "pending counter underflow");
    --s.pending;
  }
  // Seal the payload: the checksum is the entry's end-to-end integrity
  // witness from here until eviction (verified on sampled hits and by the
  // scrubber). Skipped entirely when no integrity feature will read it.
  if (integrity_on()) e.csum = entry_checksum(s, e);
}

void CacheCore::set_entry_stamp(std::uint32_t id, double us) {
  Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  CLAMPI_ASSERT(s.entries[local_of(id)].live, "set_entry_stamp on a dead entry");
  s.entries[local_of(id)].stamp = us;
}

double CacheCore::entry_stamp(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  CLAMPI_ASSERT(s.entries[local_of(id)].live, "entry_stamp on a dead entry");
  return s.entries[local_of(id)].stamp;
}

std::uint64_t CacheCore::entry_checksum(const Shard& s, const Entry& e) const {
  return checksum64(s.storage.data(e.region), e.size, cfg_.seed);
}

void CacheCore::quarantine(std::uint32_t id) {
  // Dropped through the regular eviction path: the index forgets the key,
  // the region returns to S_w, and the next get_c re-fetches from the
  // origin window. Cause-specific counters are the caller's business.
  Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  evict_entry(s, id);
}

std::size_t CacheCore::invalidate_overlap(int target, std::uint64_t disp,
                                          std::size_t bytes) {
  if (bytes == 0) return 0;  // nothing was written, so nothing is stale
  const std::uint64_t end = disp + bytes;
  std::size_t total = 0;
  bool counted = false;
  // One shard at a time: overlapping keys can hash anywhere, but no two
  // shard locks are ever held together on this path.
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = *shards_[si];
    Shard::Lock lock(s);
    if (!counted && shards_.size() > 1) {
      ++s.stats.cross_shard_ops;
      counted = true;
    }
    // An entry overlaps iff it starts before `end` and ends after `disp`;
    // being at most addr_max_size long, it starts after disp - max_size.
    const std::uint64_t lo = disp > s.addr_max_size ? disp - s.addr_max_size : 0;
    const std::uint64_t b_lo = lo >> kAddrBlockBits;
    const std::uint64_t b_hi = (end - 1) >> kAddrBlockBits;
    s.addr_hits.clear();
    // `block` filters a chain down to the entries starting in that block
    // (distinct blocks can share a chain); `any_block` takes them all.
    const auto collect = [&](std::size_t chain, std::uint64_t block, bool any_block) {
      for (std::uint32_t local = s.addr_heads[chain]; local != kNoEntry;
           local = s.entries[local].addr_next) {
        const Entry& e = s.entries[local];
        if (e.pending || e.key.target != target) continue;
        if (!any_block && (e.key.disp >> kAddrBlockBits) != block) continue;
        if (e.key.disp >= end || e.key.disp + e.size <= disp) continue;
        s.addr_hits.push_back(local);
      }
    };
    if (b_hi - b_lo >= s.addr_heads.size()) {
      // More blocks than chains: visiting every chain once is cheaper.
      for (std::size_t chain = 0; chain < s.addr_heads.size(); ++chain) {
        collect(chain, 0, true);
      }
    } else {
      for (std::uint64_t b = b_lo; b <= b_hi; ++b) collect(s.addr_bucket(target, b), b, false);
    }
    // Evict in ascending slot order, as a walk of the entry table would:
    // the free list, and so every entry id handed out later, depends on it.
    std::sort(s.addr_hits.begin(), s.addr_hits.end());
    for (const std::uint32_t local : s.addr_hits) evict_entry(s, encode_id(si, local));
    s.stats.put_invalidations += s.addr_hits.size();
    total += s.addr_hits.size();
  }
  return total;
}

bool CacheCore::entry_invariants_ok(const Shard& s, std::uint32_t id) const {
  const Entry& e = s.entries[local_of(id)];
  if (e.region == nullptr || e.region->free) return false;
  if (e.region->size < e.size) return false;
  const std::uint32_t found = s.index.lookup(
      make_hkey(e.key),
      [&](std::uint32_t cand) { return s.entries[local_of(cand)].key == e.key; });
  return found == id;
}

CacheCore::ScrubReport CacheCore::scrub(std::size_t max_entries) {
  ScrubReport rep;
  if (max_entries == 0) return rep;
  const std::size_t nshards = shards_.size();
  // The ring is the concatenation of the shards' entry tables; its length
  // bounds the slots visited per call exactly like the single-table walk
  // did, so a slice never loops over the same slot twice.
  std::size_t total_slots = 0;
  for (const auto& sp : shards_) {
    Shard::Lock lock(*sp);
    total_slots += sp->entries.size();
  }
  if (total_slots == 0) return rep;
  if (scrub_shard_ >= nshards) scrub_shard_ = 0;
  std::size_t visited = 0;
  bool counted_cross = false;
  std::size_t shards_entered = 0;
  while (visited < total_slots && rep.scanned < max_entries) {
    const std::size_t si = scrub_shard_;
    Shard& s = *shards_[si];
    Shard::Lock lock(s);
    ++shards_entered;
    if (shards_entered > 1 && !counted_cross) {
      ++s.stats.cross_shard_ops;  // the slice crossed a shard boundary
      counted_cross = true;
    }
    const std::size_t nslots = s.entries.size();
    if (nslots == 0) {
      scrub_shard_ = static_cast<std::uint32_t>((si + 1) % nshards);
      scrub_cursor_ = 0;
      continue;
    }
    if (scrub_cursor_ >= nslots) scrub_cursor_ = 0;  // table shrank (invalidate)
    std::size_t scanned_here = 0;
    while (visited < total_slots && rep.scanned < max_entries) {
      const std::uint32_t local = scrub_cursor_;
      ++visited;
      const Entry& e = s.entries[local];
      if (e.live && !e.pending) {
        ++rep.scanned;
        ++scanned_here;
        const std::uint32_t gid = encode_id(si, local);
        if (!entry_invariants_ok(s, gid)) {
          rep.invariants_ok = false;  // structural damage: report, don't touch
        } else if (integrity_on() && entry_checksum(s, e) != e.csum) {
          ++rep.corrupted;
          ++s.stats.scrub_corruptions;
          ++s.stats.corruption_detected;
          evict_entry(s, gid);  // quarantine; lock already held
        }
      }
      ++scrub_cursor_;
      if (scrub_cursor_ >= nslots) {
        scrub_cursor_ = 0;
        if (nshards > 1) {
          // End of this shard's table: the ring continues next shard.
          scrub_shard_ = static_cast<std::uint32_t>((si + 1) % nshards);
          break;
        }
      }
    }
    s.stats.scrub_entries_scanned += scanned_here;
  }
  return rep;
}

std::uint32_t CacheCore::find_cached(Key key) const {
  const std::uint64_t hkey = make_hkey(key);
  const Shard& s = *shard_tab_[shard_of_hkey(hkey)];
  Shard::AccessLock lock(s);
  const std::uint32_t found = s.index.lookup(
      hkey, [&](std::uint32_t id) { return s.entries[local_of(id)].key == key; });
  if (found == kNoEntry || s.entries[local_of(found)].pending) return kNoEntry;
  return found;
}

void CacheCore::drop_failed_locked(Shard& s, std::uint32_t id) {
  Entry& e = s.entries[local_of(id)];
  CLAMPI_ASSERT(e.live, "drop_failed on a dead entry");
  if (e.pending) {
    e.pending = false;
    CLAMPI_ASSERT(s.pending > 0, "pending counter underflow");
    --s.pending;
  }
  const bool erased = s.index.erase(id);
  CLAMPI_ASSERT(erased, "live entry missing from the index");
  s.storage.dealloc(e.region);
  --s.live;
  release_entry(s, id);
  // Not an eviction: the entry never held valid data.
}

void CacheCore::drop_failed(std::uint32_t id) {
  Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  drop_failed_locked(s, id);
}

void CacheCore::revert_extension(std::uint32_t id, std::size_t prev_bytes,
                                 std::uint64_t prev_sig, bool prev_pending) {
  Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  Entry& e = s.entries[local_of(id)];
  CLAMPI_ASSERT(e.live, "revert_extension on a dead entry");
  CLAMPI_ASSERT(e.pending, "revert_extension on a non-pending entry");
  CLAMPI_ASSERT(prev_bytes <= e.size, "revert_extension grows the entry");
  e.size = prev_bytes;
  e.sig = prev_sig;
  if (!prev_pending) {
    e.pending = false;
    CLAMPI_ASSERT(s.pending > 0, "pending counter underflow");
    --s.pending;
    // Re-seal: the checksum covers e.size bytes, which just shrank back.
    if (integrity_on()) e.csum = entry_checksum(s, e);
  }
  // The (possibly relocated) region stays larger than needed; the
  // allocator reclaims the slack at dealloc time.
}

std::size_t CacheCore::drop_pending(int target) {
  std::size_t total = 0;
  bool counted = false;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = *shards_[si];
    Shard::Lock lock(s);
    if (!counted && shards_.size() > 1) {
      ++s.stats.cross_shard_ops;
      counted = true;
    }
    for (std::uint32_t local = 0; local < s.entries.size(); ++local) {
      const Entry& e = s.entries[local];
      if (!e.live || !e.pending) continue;
      if (target >= 0 && e.key.target != target) continue;
      drop_failed_locked(s, encode_id(si, local));
      ++total;
    }
  }
  return total;
}

void CacheCore::invalidate() {
  Shard::AllLock all(shards_);
  std::size_t pending = 0;
  for (const auto& sp : shards_) pending += sp->pending;
  CLAMPI_REQUIRE(pending == 0,
                 "invalidate with PENDING entries outstanding (flush first)");
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    s.index.clear();
    s.storage.reset();
    s.entries.clear();
    s.free_ids.clear();
    s.addr_reset();
    s.live = 0;
    // s.g and s.ags deliberately persist: C_w.G counts gets over the
    // window's lifetime (Sec. III-A/III-D1).
  }
  ++shards_[0]->stats.invalidations;
  if (shards_.size() > 1) ++shards_[0]->stats.cross_shard_ops;
}

std::size_t CacheCore::invalidate_retaining(const std::vector<int>& keep_targets) {
  Shard::AllLock all(shards_);
  std::size_t pending = 0;
  for (const auto& sp : shards_) pending += sp->pending;
  CLAMPI_REQUIRE(pending == 0,
                 "invalidate_retaining with PENDING entries outstanding (flush first)");
  const auto retained = [&](std::int32_t t) {
    for (const int k : keep_targets) {
      if (k == t) return true;
    }
    return false;
  };
  std::size_t kept = 0;
  for (std::size_t si = 0; si < shards_.size(); ++si) {
    Shard& s = *shards_[si];
    for (std::uint32_t local = 0; local < s.entries.size(); ++local) {
      Entry& e = s.entries[local];
      if (!e.live) continue;
      if (retained(e.key.target)) {
        ++kept;
        continue;
      }
      // Dropped like evict_entry, but not counted as an eviction: this is
      // an invalidation, not capacity/conflict pressure.
      const bool erased = s.index.erase(encode_id(si, local));
      CLAMPI_ASSERT(erased, "live entry missing from the index");
      s.storage.dealloc(e.region);
      --s.live;
      release_entry(s, encode_id(si, local));
    }
  }
  ++shards_[0]->stats.invalidations;
  if (shards_.size() > 1) ++shards_[0]->stats.cross_shard_ops;
  return kept;
}

void CacheCore::sync_hot_counters() const {
  // Fold the live index/storage counters into each shard's stats block
  // (overwrite: base + live, both monotone), then fold every per-shard
  // counter into stats_ as a delta against the previous fold — direct
  // writes to stats_ through mutable_stats() survive untouched. Counters
  // only ever written that way sum to zero across shards and fold as
  // no-ops, so the fold simply covers every counter.
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    const auto& ic = s.index.counters();
    s.stats.index_tag_false_positives =
        s.counter_base.tag_false_positives + ic.tag_false_positives;
    s.stats.index_kick_steps = s.counter_base.kick_steps + ic.kick_steps;
    const auto& sc = s.storage.counters();  // monotonic across rebuild/reset
    s.stats.storage_fastbin_allocs = sc.fastbin_allocs;
    s.stats.storage_tree_allocs = sc.tree_allocs;
    s.stats.storage_pool_reuses = sc.pool_reuses;
  }
  for (const StatsField& f : kStatsFields) {
    std::uint64_t sum = 0;
    for (const auto& sp : shards_) sum += sp->stats.*f.member;
    stats_.*f.member += sum - shard_prev_.*f.member;
    shard_prev_.*f.member = sum;
  }
}

void CacheCore::resize(std::size_t index_entries, std::size_t storage_bytes) {
  Shard::AllLock all(shards_);
  std::size_t pending = 0;
  for (const auto& sp : shards_) pending += sp->pending;
  CLAMPI_REQUIRE(pending == 0,
                 "resize with PENDING entries outstanding (flush first)");
  const std::size_t n = shards_.size();
  // Round to the sharded partition grid (identity at n == 1); a shard
  // index can never be empty.
  std::size_t per_index = index_entries / n;
  if (per_index == 0) per_index = 1;
  std::size_t per_storage = storage_bytes / n;
  cfg_.index_entries = per_index * n;
  cfg_.storage_bytes = per_storage * n;
  for (std::size_t si = 0; si < n; ++si) {
    Shard& s = *shards_[si];
    // Bank the outgoing index's counters: the new CuckooIndex restarts at 0.
    const auto& ic = s.index.counters();
    s.counter_base.tag_false_positives += ic.tag_false_positives;
    s.counter_base.kick_steps += ic.kick_steps;
    const std::uint64_t salt = static_cast<std::uint64_t>(si) * kShardSeedSalt;
    s.index = CuckooIndex<EntryOps>(per_index, cfg_.cuckoo_arity,
                                    cfg_.max_insert_iters, cfg_.seed ^ salt, &s.ops);
    s.storage.rebuild(per_storage);
    s.entries.clear();
    s.free_ids.clear();
    s.addr_reset();  // after the new index: the heads are sized to it
    s.live = 0;
  }
  ++shards_[0]->stats.invalidations;
  ++shards_[0]->stats.adjustments;
  if (n > 1) ++shards_[0]->stats.cross_shard_ops;
}

std::size_t CacheCore::storage_bytes() const {
  std::size_t total = 0;
  for (const auto& sp : shards_) {
    Shard::Lock lock(*sp);
    total += sp->storage.capacity();
  }
  return total;
}

std::size_t CacheCore::free_bytes() const {
  std::size_t total = 0;
  for (const auto& sp : shards_) {
    Shard::Lock lock(*sp);
    total += sp->storage.free_bytes();
  }
  return total;
}

std::size_t CacheCore::cached_entries() const {
  std::size_t total = 0;
  for (const auto& sp : shards_) {
    Shard::Lock lock(*sp);
    total += sp->live;
  }
  return total;
}

std::size_t CacheCore::pending_entries() const {
  std::size_t total = 0;
  for (const auto& sp : shards_) {
    Shard::Lock lock(*sp);
    total += sp->pending;
  }
  return total;
}

std::uint64_t CacheCore::processed_gets() const {
  std::uint64_t total = 0;
  for (const auto& sp : shards_) {
    Shard::Lock lock(*sp);
    total += sp->g;
  }
  return total;
}

double CacheCore::average_get_size() const {
  if (shards_.size() == 1) {
    Shard::Lock lock(*shards_[0]);
    return shards_[0]->ags;
  }
  std::uint64_t total_g = 0;
  double weighted = 0.0;
  for (const auto& sp : shards_) {
    Shard::Lock lock(*sp);
    total_g += sp->g;
    weighted += static_cast<double>(sp->g) * sp->ags;
  }
  return total_g == 0 ? 0.0 : weighted / static_cast<double>(total_g);
}

std::size_t CacheCore::entry_slots() const {
  std::size_t largest = 0;
  for (const auto& sp : shards_) {
    Shard::Lock lock(*sp);
    largest = std::max(largest, sp->entries.size());
  }
  return largest << shard_bits_;
}

bool CacheCore::entry_live(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::Lock lock(s);
  const std::uint32_t local = local_of(id);
  // Ids are shard-encoded, so the iteration surface [0, entry_slots())
  // contains encodings past a smaller shard's table end.
  return local < s.entries.size() && s.entries[local].live;
}

bool CacheCore::entry_checksum_ok(std::uint32_t id) const {
  const Shard& s = shard_for(id);
  Shard::AccessLock lock(s);
  const Entry& e = s.entries[local_of(id)];
  if (!e.live || e.pending) return false;
  if (!integrity_on()) return true;
  return entry_checksum(s, e) == e.csum;
}

CacheCore::AuditReport CacheCore::audit() const {
  AuditReport rep;
  Shard::AllLock all(shards_);
  const std::size_t n = shards_.size();
  if (n > 1) ++shards_[0]->stats.cross_shard_ops;
  for (std::size_t si = 0; si < n; ++si) {
    const Shard& s = *shards_[si];
    const auto fail = [&rep, si](const char* what) {
      rep.ok = false;
      if (rep.detail.empty()) {
        rep.detail = "shard " + std::to_string(si) + ": " + what;
      }
    };
    if (!s.index.validate()) fail("cuckoo index internal invariants");
    if (!s.storage.validate()) fail("storage allocator internal invariants");
    // Partition invariants: every shard holds exactly 1/N of I_w and S_w.
    if (s.index.nslots() * n != cfg_.index_entries) {
      fail("index partition size != index_entries / cache_shards");
    }
    if (s.storage.capacity() !=
        util::round_up(cfg_.storage_bytes / n, util::kCacheLineBytes)) {
      fail("storage partition size != storage_bytes / cache_shards");
    }
    if (s.index.occupied() != s.live) fail("index occupancy != live entries");
    // Address index: walk every chain, counting each entry's appearances.
    // More links in total than entry slots means a cycle or a duplicate.
    std::vector<std::uint32_t> chained(s.entries.size(), 0);
    std::size_t links = 0;
    bool chains_sound = true;
    for (std::size_t chain = 0; chains_sound && chain < s.addr_heads.size(); ++chain) {
      for (std::uint32_t local = s.addr_heads[chain]; local != kNoEntry;
           local = s.entries[local].addr_next) {
        if (local >= s.entries.size() || ++links > s.entries.size()) {
          fail("address chain out of range or cyclic");
          chains_sound = false;
          break;
        }
        const Entry& e = s.entries[local];
        if (!e.live) fail("dead entry on an address chain");
        if (s.addr_bucket(e.key) != chain) fail("entry on the wrong address chain");
        ++chained[local];
      }
    }
    std::size_t live_here = 0;
    std::size_t pending_here = 0;
    for (std::uint32_t local = 0; local < s.entries.size(); ++local) {
      const Entry& e = s.entries[local];
      if (!e.live) continue;
      ++live_here;
      if (e.pending) ++pending_here;
      if (chained[local] != 1) fail("live entry not on its address chain exactly once");
      if (e.size > s.addr_max_size) fail("entry larger than the address max-size mark");
      if (e.region == nullptr || e.region->free) {
        fail("live entry with no (or freed) storage region");
        continue;
      }
      if (e.region->size < e.size) fail("entry payload larger than its region");
      // (A stale slot key is caught by the index's own validate() above.)
      const std::uint64_t hkey = make_hkey(e.key);
      if (shard_of_hkey(hkey) != si) fail("entry routed to the wrong shard");
      // The entry must be findable through its shard's index.
      const std::uint32_t gid = encode_id(si, local);
      const std::uint32_t found = s.index.lookup(
          hkey,
          [&](std::uint32_t cand) { return s.entries[local_of(cand)].key == e.key; });
      if (found != gid) fail("live entry not findable through the index");
    }
    rep.live += live_here;
    rep.pending += pending_here;
    if (live_here != s.live) fail("live-entry counter drift");
    if (pending_here != s.pending) fail("pending-entry counter drift");
    if (s.storage.allocated_regions() != s.live) {
      fail("allocated regions != live entries (leak or double-free)");
    }
    // Free-list cross-check: every slot is either live or on the free
    // list, free ids are unique, and none of them is live.
    if (live_here + s.free_ids.size() != s.entries.size()) {
      fail("live + free-list != entry slots");
    }
    std::vector<bool> on_free(s.entries.size(), false);
    for (const std::uint32_t local : s.free_ids) {
      if (local >= s.entries.size()) {
        fail("free-list id out of range");
        continue;
      }
      if (s.entries[local].live) fail("live entry on the free list");
      if (on_free[local]) fail("duplicate id on the free list");
      on_free[local] = true;
    }
  }
  return rep;
}

}  // namespace clampi

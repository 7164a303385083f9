#include "clampi/cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <ctime>
#include <limits>

#include "clampi/checksum.h"
#include "util/align.h"

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

namespace {
/// Slots an insert's breadth-first search examines before the miss counts
/// as conflicting (Sec. III-C1 bounds the insertion steps).
constexpr int kMaxInsertIters = 64;

// Validation must precede the member constructors: a malformed config
// (cuckoo_arity = 0, index_entries = 0) would trip the index's internals
// before the constructor body ran.
const Config& validated(const Config& cfg) {
  validate_config(cfg);
  return cfg;
}
}  // namespace

CacheCore::CacheCore(const Config& cfg)
    : cfg_(validated(cfg)),
      index_(cfg_.index_entries, cfg_.cuckoo_arity, kMaxInsertIters, cfg_.seed,
             &ops_),
      storage_(cfg_.storage_bytes),
      rng_(cfg_.seed ^ 0xa5a5a5a5a5a5a5a5ull) {
  addr_reset();
}

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

// Address index for put invalidation: a chained hash over (target,
// disp >> kAddrBlockBits). Each live entry is linked (through
// Entry::addr_next) into the chain of the block its key starts in from
// creation until release_entry(), so chains hold only live entries
// (audit() checks it). With no live entry longer than addr_max_size_,
// every entry overlapping a put starts in one of the blocks covering
// (disp - addr_max_size_, disp + bytes).
std::size_t CacheCore::addr_bucket(std::int32_t target, std::uint64_t block) const {
  // Fibonacci hashing: consecutive blocks of one target spread evenly
  // over the top bits; the target term permutes them per target.
  const std::uint64_t h =
      (block * 0x9e3779b97f4a7c15ull) ^
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(target)) *
       0xbf58476d1ce4e5b9ull);
  return static_cast<std::size_t>(h >> addr_shift_);
}

std::size_t CacheCore::addr_bucket(Key k) const {
  return addr_bucket(k.target, k.disp >> kAddrBlockBits);
}

/// Empty every chain and size the heads to the current index (at least
/// one chain per index slot, so chains stay about one entry long).
void CacheCore::addr_reset() {
  const std::size_t n = std::bit_ceil(std::max<std::size_t>(index_.nslots(), 2));
  addr_heads_.assign(n, kNoEntry);
  addr_shift_ = 64 - static_cast<unsigned>(std::countr_zero(n));
  addr_max_size_ = 0;
}

void CacheCore::addr_link(std::uint32_t id) {
  Entry& e = entries_[id];
  std::uint32_t& head = addr_heads_[addr_bucket(e.key)];
  e.addr_next = head;
  head = id;
  addr_max_size_ = std::max(addr_max_size_, e.size);
}

void CacheCore::addr_unlink(std::uint32_t id) {
  std::uint32_t* link = &addr_heads_[addr_bucket(entries_[id].key)];
  while (*link != id) {
    CLAMPI_ASSERT(*link != kNoEntry, "entry missing from its address chain");
    link = &entries_[*link].addr_next;
  }
  *link = entries_[id].addr_next;
}

std::uint32_t CacheCore::alloc_entry() {
  if (!free_ids_.empty()) {
    const std::uint32_t id = free_ids_.back();
    free_ids_.pop_back();
    return id;
  }
  entries_.emplace_back();
  return static_cast<std::uint32_t>(entries_.size() - 1);
}

void CacheCore::release_entry(std::uint32_t id) {
  Entry& e = entries_[id];
  CLAMPI_ASSERT(!e.pending, "releasing a PENDING entry");
  addr_unlink(id);
  e.live = false;
  e.region = nullptr;
  free_ids_.push_back(id);
}

void CacheCore::evict_entry(std::uint32_t id) {
  Entry& e = entries_[id];
  CLAMPI_ASSERT(e.live, "evicting a dead entry");
  CLAMPI_ASSERT(!e.pending, "evicting a PENDING entry");
  const bool erased = index_.erase(id);
  CLAMPI_ASSERT(erased, "live entry missing from the index");
  storage_.dealloc(e.region);
  --live_;
  release_entry(id);
  ++stats_.evictions;
}

double CacheCore::score(std::uint32_t id) const {
  const Entry& e = entries_[id];
  CLAMPI_ASSERT(e.live, "scoring a dead entry");
  const double rt =
      g_ == 0 ? 1.0 : static_cast<double>(e.last) / static_cast<double>(g_);
  double rp = 1.0;
  if (ags_ > 0.0) {
    const double dc = static_cast<double>(storage_.adjacent_free(e.region));
    rp = std::min(std::abs(ags_ - dc) / ags_, 1.0);
  }
  switch (cfg_.score) {
    case ScoreKind::kFull: return rp * rt;
    case ScoreKind::kTemporal: return rt;
    case ScoreKind::kPositional: return rp;
  }
  return rp * rt;
}

bool CacheCore::capacity_eviction_round() {
  ++stats_.eviction_rounds;
  const std::size_t n = index_.nslots();
  const std::size_t start = rng_.bounded(n);
  const auto sample = static_cast<std::size_t>(cfg_.sample_size);

  std::uint32_t best = kNoEntry;
  double best_score = std::numeric_limits<double>::infinity();
  std::size_t nonempty = 0;
  std::size_t scanned = 0;
  // Scan M slots; if they were all empty, keep scanning until the first
  // non-empty one (v_i = max(M, k_i), Sec. III-D).
  while (scanned < n) {
    const std::uint32_t id = index_.entry_at((start + scanned) % n);
    ++scanned;
    ++stats_.visited_slots;
    if (id != kNoEntry) {
      ++stats_.visited_nonempty;
      ++nonempty;
      if (!entries_[id].pending) {
        const double sc = score(id);
        if (sc < best_score) {
          best_score = sc;
          best = id;
        }
      }
    }
    if (scanned >= sample && nonempty >= 1) break;
  }
  if (best == kNoEntry) return false;  // nothing evictable (e.g. all pending)
  evict_entry(best);
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

bool CacheCore::insert_with_conflict_handling(std::uint64_t hkey, std::uint32_t id,
                                              bool& conflicted) {
  conflicted = false;
  if (index_.insert(hkey, id, &path_)) return true;
  conflicted = true;
  // Scoring a path candidate chases entry -> region -> neighbours, three
  // dependent misses. Issue each level for the whole path before the
  // next, so the misses of one level overlap instead of queueing behind
  // each other; the scoring below then runs on resident lines.
  // Prefetches change no state: the same victim wins as without them.
  for (const std::uint32_t cand : path_) {
    const Entry* e = &entries_[cand];
    prefetch_read(e);
    prefetch_read(reinterpret_cast<const char*>(e) + offsetof(Entry, live));
  }
  for (const std::uint32_t cand : path_) {
    const Entry& e = entries_[cand];
    if (e.live && !e.pending) prefetch_read(e.region);
  }
  for (const std::uint32_t cand : path_) {
    const Entry& e = entries_[cand];
    if (!e.live || e.pending) continue;
    if (e.region->prev != nullptr) prefetch_read(e.region->prev);
    if (e.region->next != nullptr) prefetch_read(e.region->next);
  }
  // Victim: the lowest-scoring evictable entry on the search path. Its
  // slot ends the insertion path, so one eviction always places the key.
  const std::size_t at = index_.pick_victim(path_, [&](std::uint32_t cand) {
    const Entry& e = entries_[cand];
    return e.live && !e.pending ? score(cand) : std::numeric_limits<double>::infinity();
  });
  if (at == path_.size()) return false;
  evict_entry(path_[at]);
  index_.place(hkey, id, at);
  return true;
}

CacheCore::Result CacheCore::access(Key key, std::size_t bytes, PhaseBreakdown* phases) {
  CLAMPI_REQUIRE(bytes > 0, "zero-byte get_c");
  PhaseTimer timer(phases != nullptr && cfg_.collect_phase_timings);

  const std::uint64_t hkey = make_hkey(key);
  ++g_;
  ++stats_.total_gets;
  ags_ += (static_cast<double>(bytes) - ags_) / static_cast<double>(g_);

  int probes = 0;
  std::uint32_t found = index_.lookup(
      hkey, [&](std::uint32_t id) { return entries_[id].key == key; }, &probes);
  // Probe counting lives here, not in the index: this store lands next to
  // the stats stores access() performs anyway, keeping lookup() store-free.
  stats_.index_probes += static_cast<std::uint64_t>(probes);
  if (phases != nullptr) timer.lap(&phases->lookup_ns);

  Result res;
  // --- integrity guard: sampled checksum verification on CACHED hits ---
  // Off the hot path unless configured (one predictable branch when
  // verify_every_n == 0). On a mismatch the entry is quarantined and the
  // access falls through to the miss path below, which re-fetches and
  // re-caches the data — the caller never sees the corrupt bytes.
  if (cfg_.verify_every_n != 0 && found != kNoEntry && !entries_[found].pending)
      [[unlikely]] {
    if (++verify_tick_ >= cfg_.verify_every_n) {
      verify_tick_ = 0;
      ++stats_.checksum_verifications;
      const Entry& e = entries_[found];
      if (entry_checksum(e) != e.csum) {
        ++stats_.corruption_detected;
        ++stats_.self_heals;
        evict_entry(found);  // quarantine
        res.healed = true;
        found = kNoEntry;  // continue as a miss: transparent re-fetch
      }
    }
  }
  if (found != kNoEntry) {
    Entry& e = entries_[found];
    e.last = g_;
    res.entry = found;
    if (bytes <= e.size) {
      // --- full hit ---
      res.cached_bytes = bytes;
      stats_.bytes_from_cache += bytes;
      if (e.pending) {
        ++stats_.hits_pending;
        res.type = AccessType::kHitPending;
        res.serve_now = false;
      } else {
        ++stats_.hits_full;
        res.type = AccessType::kHit;
        res.serve_now = true;
      }
      if (phases != nullptr) phases->type = res.type;
      return res;
    }
    // --- partial hit: prefix from cache, tail from the network ---
    ++stats_.hits_partial;
    res.type = AccessType::kPartialHit;
    res.cached_bytes = e.size;
    res.serve_now = !e.pending;
    stats_.bytes_from_cache += e.size;
    stats_.bytes_from_network += bytes - e.size;
    // Extend only if S_w has room (no evictions for extensions: keeps the
    // weak-caching overhead bound). Try in place first, then relocate.
    bool extended = storage_.try_extend(e.region, bytes);
    if (!extended) {
      Storage::Region* moved = storage_.alloc(bytes);
      if (moved != nullptr) {
        if (e.size > 0) {
          // Copy even when the entry is pending: an entry extended twice
          // within one epoch is pending *and* still holds its previously
          // cached prefix, which no copy-in will rewrite at flush.
          // (Found by chaos_fuzz seed 6: the prefix of a relocated
          // pending entry read back as zeros. For a miss-born pending
          // entry the copied bytes are garbage but harmless — its own
          // copy-in overwrites them at flush.)
          std::memcpy(storage_.data(moved), storage_.data(e.region), e.size);
        }
        storage_.dealloc(e.region);
        e.region = moved;
        extended = true;
      }
    }
    if (extended) {
      res.prev_bytes = e.size;
      res.prev_pending = e.pending;
      e.size = bytes;
      addr_max_size_ = std::max(addr_max_size_, bytes);
      if (!e.pending) {
        e.pending = true;  // tail arrives at flush
        ++pending_;
      }
      res.extended = true;
    }
    if (phases != nullptr) {
      timer.lap(&phases->insert_ns);
      phases->type = res.type;
    }
    return res;
  }

  // --- miss ---
  stats_.bytes_from_network += bytes;
  const std::uint32_t id = alloc_entry();
  // Born PENDING so the eviction rounds below never consider the entry a
  // victim while it has no region yet.
  entries_[id] = Entry{key,      bytes,     nullptr,    g_,
                       /*pending=*/true, /*live=*/true, kNoEntry,
                       /*csum=*/0, /*stamp=*/0.0};
  addr_link(id);
  ++pending_;
  const auto discard_new_entry = [&] {
    Entry& ne = entries_[id];
    ne.pending = false;
    --pending_;
    ne.live = false;
    release_entry(id);
  };

  bool conflicted = false;
  if (!insert_with_conflict_handling(hkey, id, conflicted)) {
    discard_new_entry();
    ++stats_.failing;
    ++stats_.failed_index;
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

  Storage::Region* region = storage_.alloc(bytes);
  bool capacity_evicted = false;
  // Requests larger than all of S_w can never fit; evicting for them
  // would only throw away useful entries before failing anyway.
  if (region == nullptr &&
      util::round_up(bytes, util::kCacheLineBytes) <= storage_.capacity()) {
    // One sampled eviction round: constant per-access overhead ("weak
    // caching", Sec. III-D2). If space still cannot be made, fail.
    capacity_evicted = capacity_eviction_round();
    if (capacity_evicted) region = storage_.alloc(bytes);
    if (phases != nullptr) timer.lap(&phases->eviction_ns);
  }
  if (region == nullptr) {
    const bool erased = index_.erase(id);
    CLAMPI_ASSERT(erased, "fresh entry missing from the index");
    discard_new_entry();
    ++stats_.failing;
    ++stats_.failed_capacity;
    res.type = AccessType::kFailing;
    res.entry = kNoEntry;
    if (phases != nullptr) phases->type = res.type;
    return res;
  }

  Entry& e = entries_[id];
  e.region = region;  // pending already set at creation
  ++live_;
  res.entry = id;
  res.inserted = true;
  if (conflicted) {
    ++stats_.conflicting;
    res.type = AccessType::kConflicting;
  } else if (capacity_evicted) {
    ++stats_.capacity;
    res.type = AccessType::kCapacity;
  } else {
    ++stats_.direct;
    res.type = AccessType::kDirect;
  }
  if (phases != nullptr) {
    timer.lap(&phases->insert_ns);
    phases->type = res.type;
  }
  return res;
}

std::byte* CacheCore::entry_data(std::uint32_t id) {
  const Entry& e = entries_[id];
  CLAMPI_ASSERT(e.live, "entry_data on a dead entry");
  return storage_.data(e.region);
}

const std::byte* CacheCore::entry_data(std::uint32_t id) const {
  const Entry& e = entries_[id];
  CLAMPI_ASSERT(e.live, "entry_data on a dead entry");
  return storage_.data(e.region);
}

std::size_t CacheCore::entry_bytes(std::uint32_t id) const {
  CLAMPI_ASSERT(entries_[id].live, "entry_bytes on a dead entry");
  return entries_[id].size;
}

Key CacheCore::entry_key(std::uint32_t id) const {
  CLAMPI_ASSERT(entries_[id].live, "entry_key on a dead entry");
  return entries_[id].key;
}

bool CacheCore::entry_pending(std::uint32_t id) const {
  CLAMPI_ASSERT(entries_[id].live, "entry_pending on a dead entry");
  return entries_[id].pending;
}

void CacheCore::mark_cached(std::uint32_t id) {
  Entry& e = entries_[id];
  CLAMPI_ASSERT(e.live, "mark_cached on a dead entry");
  if (e.pending) {
    e.pending = false;
    CLAMPI_ASSERT(pending_ > 0, "pending counter underflow");
    --pending_;
  }
  // Seal the payload: the checksum is the entry's end-to-end integrity
  // witness from here until eviction (verified on sampled hits and by the
  // scrubber). Skipped entirely when no integrity feature will read it.
  if (integrity_on()) e.csum = entry_checksum(e);
}

void CacheCore::set_entry_stamp(std::uint32_t id, double us) {
  CLAMPI_ASSERT(entries_[id].live, "set_entry_stamp on a dead entry");
  entries_[id].stamp = us;
}

double CacheCore::entry_stamp(std::uint32_t id) const {
  CLAMPI_ASSERT(entries_[id].live, "entry_stamp on a dead entry");
  return entries_[id].stamp;
}

std::uint64_t CacheCore::entry_checksum(const Entry& e) const {
  return checksum64(storage_.data(e.region), e.size, cfg_.seed);
}

void CacheCore::quarantine(std::uint32_t id) {
  // Dropped through the regular eviction path: the index forgets the key,
  // the region returns to S_w, and the next get_c re-fetches from the
  // origin window. Cause-specific counters are the caller's business.
  evict_entry(id);
}

std::size_t CacheCore::invalidate_overlap(int target, std::uint64_t disp,
                                          std::size_t bytes) {
  if (bytes == 0) return 0;  // nothing was written, so nothing is stale
  const std::uint64_t end = disp + bytes;
  // An entry overlaps iff it starts before `end` and ends after `disp`;
  // being at most addr_max_size_ long, it starts after disp - max_size.
  const std::uint64_t lo = disp > addr_max_size_ ? disp - addr_max_size_ : 0;
  const std::uint64_t b_lo = lo >> kAddrBlockBits;
  const std::uint64_t b_hi = (end - 1) >> kAddrBlockBits;
  addr_hits_.clear();
  // `block` filters a chain down to the entries starting in that block
  // (distinct blocks can share a chain); `any_block` takes them all.
  const auto collect = [&](std::size_t chain, std::uint64_t block, bool any_block) {
    for (std::uint32_t id = addr_heads_[chain]; id != kNoEntry; id = entries_[id].addr_next) {
      const Entry& e = entries_[id];
      if (e.pending || e.key.target != target) continue;
      if (!any_block && (e.key.disp >> kAddrBlockBits) != block) continue;
      if (e.key.disp >= end || e.key.disp + e.size <= disp) continue;
      addr_hits_.push_back(id);
    }
  };
  if (b_hi - b_lo >= addr_heads_.size()) {
    // More blocks than chains: visiting every chain once is cheaper.
    for (std::size_t chain = 0; chain < addr_heads_.size(); ++chain) {
      collect(chain, 0, true);
    }
  } else {
    for (std::uint64_t b = b_lo; b <= b_hi; ++b) collect(addr_bucket(target, b), b, false);
  }
  // Evict in ascending slot order, as a walk of the entry table would:
  // the free list, and so every entry id handed out later, depends on it.
  std::sort(addr_hits_.begin(), addr_hits_.end());
  for (const std::uint32_t id : addr_hits_) evict_entry(id);
  stats_.put_invalidations += addr_hits_.size();
  return addr_hits_.size();
}

bool CacheCore::entry_invariants_ok(std::uint32_t id) const {
  const Entry& e = entries_[id];
  if (e.region == nullptr || e.region->free) return false;
  if (e.region->size < e.size) return false;
  const std::uint32_t found = index_.lookup(
      make_hkey(e.key), [&](std::uint32_t cand) { return entries_[cand].key == e.key; });
  return found == id;
}

CacheCore::ScrubReport CacheCore::scrub(std::size_t max_entries) {
  ScrubReport rep;
  const std::size_t nslots = entries_.size();
  if (max_entries == 0 || nslots == 0) return rep;
  if (scrub_cursor_ >= nslots) scrub_cursor_ = 0;  // table shrank (invalidate)
  // One lap of the table at most: a slice never visits a slot twice.
  for (std::size_t visited = 0; visited < nslots && rep.scanned < max_entries; ++visited) {
    const std::uint32_t id = scrub_cursor_;
    if (++scrub_cursor_ >= nslots) scrub_cursor_ = 0;
    const Entry& e = entries_[id];
    if (!e.live || e.pending) continue;
    ++rep.scanned;
    if (!entry_invariants_ok(id)) {
      rep.invariants_ok = false;  // structural damage: report, don't touch
    } else if (integrity_on() && entry_checksum(e) != e.csum) {
      ++rep.corrupted;
      ++stats_.scrub_corruptions;
      ++stats_.corruption_detected;
      evict_entry(id);  // quarantine
    }
  }
  stats_.scrub_entries_scanned += rep.scanned;
  return rep;
}

std::uint32_t CacheCore::find_cached(Key key) const {
  const std::uint32_t found = index_.lookup(
      make_hkey(key), [&](std::uint32_t id) { return entries_[id].key == key; });
  if (found == kNoEntry || entries_[found].pending) return kNoEntry;
  return found;
}

void CacheCore::drop_failed(std::uint32_t id) {
  Entry& e = entries_[id];
  CLAMPI_ASSERT(e.live, "drop_failed on a dead entry");
  if (e.pending) {
    e.pending = false;
    CLAMPI_ASSERT(pending_ > 0, "pending counter underflow");
    --pending_;
  }
  const bool erased = index_.erase(id);
  CLAMPI_ASSERT(erased, "live entry missing from the index");
  storage_.dealloc(e.region);
  --live_;
  release_entry(id);
  // Not an eviction: the entry never held valid data.
}

void CacheCore::revert_extension(std::uint32_t id, std::size_t prev_bytes,
                                 bool prev_pending) {
  Entry& e = entries_[id];
  CLAMPI_ASSERT(e.live, "revert_extension on a dead entry");
  CLAMPI_ASSERT(e.pending, "revert_extension on a non-pending entry");
  CLAMPI_ASSERT(prev_bytes <= e.size, "revert_extension grows the entry");
  e.size = prev_bytes;
  if (!prev_pending) {
    e.pending = false;
    CLAMPI_ASSERT(pending_ > 0, "pending counter underflow");
    --pending_;
    // Re-seal: the checksum covers e.size bytes, which just shrank back.
    if (integrity_on()) e.csum = entry_checksum(e);
  }
  // The (possibly relocated) region stays larger than needed; the
  // allocator reclaims the slack at dealloc time.
}

std::size_t CacheCore::drop_pending(int target) {
  std::size_t total = 0;
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    if (!e.live || !e.pending) continue;
    if (target >= 0 && e.key.target != target) continue;
    drop_failed(id);
    ++total;
  }
  return total;
}

void CacheCore::invalidate() {
  CLAMPI_REQUIRE(pending_ == 0,
                 "invalidate with PENDING entries outstanding (flush first)");
  index_.clear();
  storage_.reset();
  entries_.clear();
  free_ids_.clear();
  addr_reset();
  live_ = 0;
  // g_ and ags_ deliberately persist: C_w.G counts gets over the window's
  // lifetime (Sec. III-A/III-D1).
  ++stats_.invalidations;
}

std::size_t CacheCore::invalidate_retaining(const std::vector<int>& keep_targets) {
  CLAMPI_REQUIRE(pending_ == 0,
                 "invalidate_retaining with PENDING entries outstanding (flush first)");
  const auto retained = [&](std::int32_t t) {
    for (const int k : keep_targets) {
      if (k == t) return true;
    }
    return false;
  };
  std::size_t kept = 0;
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    Entry& e = entries_[id];
    if (!e.live) continue;
    if (retained(e.key.target)) {
      ++kept;
      continue;
    }
    // Dropped like evict_entry, but not counted as an eviction: this is
    // an invalidation, not capacity/conflict pressure.
    const bool erased = index_.erase(id);
    CLAMPI_ASSERT(erased, "live entry missing from the index");
    storage_.dealloc(e.region);
    --live_;
    release_entry(id);
  }
  ++stats_.invalidations;
  return kept;
}

void CacheCore::sync_hot_counters() const {
  const auto& ic = index_.counters();
  stats_.index_tag_false_positives = counter_base_.tag_false_positives + ic.tag_false_positives;
  stats_.index_kick_steps = counter_base_.kick_steps + ic.kick_steps;
  const auto& sc = storage_.counters();  // monotonic across rebuild/reset
  stats_.storage_fastbin_allocs = sc.fastbin_allocs;
  stats_.storage_tree_allocs = sc.tree_allocs;
  stats_.storage_pool_reuses = sc.pool_reuses;
}

void CacheCore::resize(std::size_t index_entries, std::size_t storage_bytes) {
  CLAMPI_REQUIRE(pending_ == 0, "resize with PENDING entries outstanding (flush first)");
  if (index_entries == 0) index_entries = 1;  // an index can never be empty
  cfg_.index_entries = index_entries;
  cfg_.storage_bytes = storage_bytes;
  // Bank the outgoing index's counters: the new CuckooIndex restarts at 0.
  const auto& ic = index_.counters();
  counter_base_.tag_false_positives += ic.tag_false_positives;
  counter_base_.kick_steps += ic.kick_steps;
  index_ = CuckooIndex<EntryOps>(index_entries, cfg_.cuckoo_arity, kMaxInsertIters,
                                 cfg_.seed, &ops_);
  storage_.rebuild(storage_bytes);
  entries_.clear();
  free_ids_.clear();
  addr_reset();  // after the new index: the heads are sized to it
  live_ = 0;
  ++stats_.invalidations;
  ++stats_.adjustments;
}

bool CacheCore::entry_checksum_ok(std::uint32_t id) const {
  const Entry& e = entries_[id];
  if (!e.live || e.pending) return false;
  if (!integrity_on()) return true;
  return entry_checksum(e) == e.csum;
}

CacheCore::AuditReport CacheCore::audit() const {
  AuditReport rep;
  const auto fail = [&rep](const char* what) {
    rep.ok = false;
    if (rep.detail.empty()) rep.detail = what;
  };
  if (!index_.validate()) fail("cuckoo index internal invariants");
  if (!storage_.validate()) fail("storage allocator internal invariants");
  if (index_.occupied() != live_) fail("index occupancy != live entries");
  // Address index: walk every chain, counting each entry's appearances.
  // More links in total than entry slots means a cycle or a duplicate.
  std::vector<std::uint32_t> chained(entries_.size(), 0);
  std::size_t links = 0;
  bool chains_sound = true;
  for (std::size_t chain = 0; chains_sound && chain < addr_heads_.size(); ++chain) {
    for (std::uint32_t id = addr_heads_[chain]; id != kNoEntry; id = entries_[id].addr_next) {
      if (id >= entries_.size() || ++links > entries_.size()) {
        fail("address chain out of range or cyclic");
        chains_sound = false;
        break;
      }
      const Entry& e = entries_[id];
      if (!e.live) fail("dead entry on an address chain");
      if (addr_bucket(e.key) != chain) fail("entry on the wrong address chain");
      ++chained[id];
    }
  }
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    if (!e.live) continue;
    ++rep.live;
    if (e.pending) ++rep.pending;
    if (chained[id] != 1) fail("live entry not on its address chain exactly once");
    if (e.size > addr_max_size_) fail("entry larger than the address max-size mark");
    if (e.region == nullptr || e.region->free) {
      fail("live entry with no (or freed) storage region");
      continue;
    }
    if (e.region->size < e.size) fail("entry payload larger than its region");
    // (A stale slot key is caught by the index's own validate() above.)
    const std::uint32_t found = index_.lookup(
        make_hkey(e.key), [&](std::uint32_t cand) { return entries_[cand].key == e.key; });
    if (found != id) fail("live entry not findable through the index");
  }
  if (rep.live != live_) fail("live-entry counter drift");
  if (rep.pending != pending_) fail("pending-entry counter drift");
  if (storage_.allocated_regions() != live_) {
    fail("allocated regions != live entries (leak or double-free)");
  }
  // Free-list cross-check: every slot is either live or on the free list,
  // free ids are unique, and none of them is live.
  if (rep.live + free_ids_.size() != entries_.size()) fail("live + free-list != entry slots");
  std::vector<bool> on_free(entries_.size(), false);
  for (const std::uint32_t id : free_ids_) {
    if (id >= entries_.size()) {
      fail("free-list id out of range");
      continue;
    }
    if (entries_[id].live) fail("live entry on the free list");
    if (on_free[id]) fail("duplicate id on the free list");
    on_free[id] = true;
  }
  return rep;
}

}  // namespace clampi

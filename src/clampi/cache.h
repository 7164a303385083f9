// CacheCore: the runtime-independent heart of CLaMPI.
//
// Implements the get_c processing of Sec. III-B (states MISSING / PENDING
// / CACHED; full and partial hits; direct / conflicting / capacity /
// failing accesses), the index and storage of Sec. III-C, the scored
// eviction of Sec. III-D, and the statistics feeding the adaptive tuner
// of Sec. III-E. It owns metadata and the S_w byte buffer but performs no
// communication: the CachedWindow wrapper drives it against the rmasim
// runtime, and tests drive it directly.
//
// Concurrency (docs/PERF.md "Sharding"): the core is partitioned into
// `Config::cache_shards` independent shards, each owning its own cuckoo
// index, storage arena, entry table, eviction state and statistics block,
// selected by the top bits of the key fingerprint. Every shard is guarded
// by its own spin-then-park mutex; the access hot path takes exactly one
// shard lock and cross-shard operations (invalidate / resize / audit)
// acquire all locks in ascending shard order. (With a single shard no
// locks exist at all — see below.) The concurrency contract:
//
//   - Accesses and entry operations on *distinct keys* are safe from any
//     number of threads concurrently.
//   - Operations on the *same key/entry* (access -> mark_cached ->
//     entry_data, drop_failed, revert_extension, ...) must be externally
//     serialized by the caller, exactly as the epoch protocol already
//     does — a PENDING entry belongs to the epoch that created it.
//   - stats() aggregates per-shard counters without taking any lock, and
//     mutable_stats() hands out the unsynchronized core block; call them
//     only from quiescent points (epoch boundaries, after joining worker
//     threads).
//   - entry_data() returns a raw pointer whose bytes are only stable
//     while the entry lives; concurrent readers that cannot guarantee
//     that use access_read(), which copies the cached prefix out while
//     the shard lock is still held.
//
// With cache_shards == 1 (the default) all of this collapses to the
// pre-sharding single-partition cache, bit-exactly: same hash seeds, same
// eviction sampling sequence, same statistics — and no locks at all, so
// the single-threaded hot path pays nothing for the sharding machinery.
// The flip side: a single-shard cache is single-threaded only; any
// concurrent use requires cache_shards >= 2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clampi/config.h"
#include "clampi/cuckoo_index.h"
#include "clampi/stats.h"
#include "clampi/storage.h"

namespace clampi {

/// Identity of a get with respect to the cache: the paper defines a hit as
/// matching target and displacement (Sec. III-B1); datatype and count only
/// determine the size.
struct Key {
  std::int32_t target = -1;
  std::uint64_t disp = 0;

  friend bool operator==(const Key&, const Key&) = default;
};

class CacheCore {
 public:
  /// What the caller must do to serve the access.
  struct Result {
    AccessType type = AccessType::kFailing;
    std::uint32_t entry = kNoEntry;   ///< involved entry (kNoEntry if failing)
    std::size_t cached_bytes = 0;     ///< prefix available from the cache
    bool inserted = false;            ///< a new entry now awaits its data
    bool extended = false;            ///< partial hit: entry grew to `bytes`
    bool serve_now = false;           ///< cached prefix may be copied immediately
    // Pre-extension geometry (valid when `extended`): lets a failed tail
    // fetch revert the extension instead of dropping the entry — earlier
    // gets in the epoch may already hold copy-in/copy-out registrations
    // against it (found by chaos_fuzz seed 89).
    std::size_t prev_bytes = 0;
    std::uint64_t prev_sig = 0;
    bool prev_pending = false;
    /// A sampled checksum verification caught a corrupt entry: it was
    /// quarantined and the access fell through to the miss path, so the
    /// data is transparently re-fetched (self-healing; docs/INTEGRITY.md).
    bool healed = false;
  };

  explicit CacheCore(const Config& cfg);
  ~CacheCore();
  CacheCore(const CacheCore&) = delete;
  CacheCore& operator=(const CacheCore&) = delete;

  /// Process a get_c of `bytes` payload at `key`. `dtype_sig` is recorded
  /// for layout-compatibility diagnostics. May evict entries. Takes
  /// exactly one shard lock.
  Result access(Key key, std::size_t bytes, std::uint64_t dtype_sig = 0,
                PhaseBreakdown* phases = nullptr);

  /// access() that additionally copies the servable cached prefix
  /// (`Result::serve_now`, `Result::cached_bytes` bytes) into `dest`
  /// *while the shard lock is still held* — the copy cannot race a
  /// concurrent capacity eviction relocating or freeing the region. This
  /// is the hit path for multi-threaded callers (bench/micro_hotpath
  /// --concurrent, tests/clampi_concurrent_test).
  Result access_read(Key key, std::size_t bytes, std::byte* dest,
                     std::uint64_t dtype_sig = 0);

  // --- entry accessors (valid until eviction/invalidation) ---
  // Each takes the owning shard's lock; see the same-key contract above.
  std::byte* entry_data(std::uint32_t id);
  const std::byte* entry_data(std::uint32_t id) const;
  std::size_t entry_bytes(std::uint32_t id) const;
  Key entry_key(std::uint32_t id) const;
  std::uint64_t entry_signature(std::uint32_t id) const;
  bool entry_pending(std::uint32_t id) const;

  /// PENDING -> CACHED (the entry's data arrived and was copied in).
  void mark_cached(std::uint32_t id);

  /// Freshness stamp: the virtual time at which the entry's payload was
  /// fetched from the origin window. CacheCore has no clock, so the
  /// CachedWindow driver stamps entries when their copy-in completes; the
  /// bounded-staleness degraded-read path (docs/FAULTS.md §6) compares
  /// `now - entry_stamp` against the configured bound. 0 = never stamped.
  void set_entry_stamp(std::uint32_t id, double us);
  double entry_stamp(std::uint32_t id) const;

  /// Pure lookup: the CACHED entry holding `key`, or kNoEntry if the key
  /// is absent or still PENDING. No statistics are touched — this backs
  /// the resilience layer's degraded-read probe, not a get_c.
  std::uint32_t find_cached(Key key) const;

  /// Remove an entry whose network fetch failed (injected fault). Unlike
  /// evict_entry this accepts PENDING entries — their data never arrived —
  /// and does not count as an eviction.
  void drop_failed(std::uint32_t id);

  /// drop_failed() every live PENDING entry for `target` (< 0 = all).
  /// Returns the number dropped. Used when an epoch is abandoned because
  /// its flush failed: those entries will never receive their data.
  /// Walks the shards one at a time (never holds two locks).
  std::size_t drop_pending(int target);

  /// Undo a partial-hit extension whose tail fetch failed: restore the
  /// pre-extension size/signature/pending state recorded in Result. The
  /// entry must NOT be dropped in that situation — earlier gets in the
  /// epoch may hold pending copy-ins/outs against it, and its cached
  /// prefix is still valid (relocation preserves it).
  void revert_extension(std::uint32_t id, std::size_t prev_bytes,
                        std::uint64_t prev_sig, bool prev_pending);

  /// Quarantine a CACHED entry whose bytes are corrupt or stale: dropped
  /// through the eviction path so the key misses (and re-fetches) next
  /// time. Callers bump the cause-specific counters.
  void quarantine(std::uint32_t id);

  /// Drop every CACHED entry overlapping [disp, disp+bytes) at `target`
  /// (a put landed there: the cached bytes are now stale). PENDING
  /// entries are skipped — a get and a conflicting put in one epoch is
  /// already a data race under the MPI-3 epoch model. A zero-byte put
  /// drops nothing. Returns the number dropped (also accumulated in
  /// Stats::put_invalidations). Per shard the cost is O(blocks covered +
  /// chain length + matches): the shard's address index is probed for
  /// the 256-byte blocks an overlapping entry can start in (the put's
  /// range widened by the shard's largest entry size), never more blocks
  /// than it has chains. Walks the shards one at a time (overlapping keys
  /// can live anywhere: the shard is picked by the key fingerprint, not
  /// the address range).
  std::size_t invalidate_overlap(int target, std::uint64_t disp, std::size_t bytes);

  /// One incremental scrub slice (docs/INTEGRITY.md): re-verifies the
  /// checksum and a per-entry slice of the validate() invariants for up
  /// to `max_entries` live CACHED entries, resuming where the previous
  /// slice stopped (the cursor spans shards: shard k's table follows
  /// shard k-1's). Corrupt entries are quarantined. Amortized: the cost
  /// per epoch is bounded by the budget, never O(N) on the hot path.
  struct ScrubReport {
    std::size_t scanned = 0;
    std::size_t corrupted = 0;   ///< checksum mismatches (quarantined)
    bool invariants_ok = true;   ///< per-entry index/storage cross-checks
  };
  ScrubReport scrub(std::size_t max_entries);

  /// Entry-table iteration surface for integrity sweeps (fault-injected
  /// storage corruption walks live entries from the window layer). Slot
  /// ids are shard-encoded, so entry_live() must gate every probe: ids
  /// in [0, entry_slots()) cover all entries but include dead encodings.
  std::size_t entry_slots() const;
  bool entry_live(std::uint32_t id) const;

  /// Drop every entry. Must not be called with PENDING entries
  /// outstanding (callers flush first). Holds all shard locks.
  void invalidate();

  /// Transparent-mode survivor retention (docs/FAULTS.md §6): like
  /// invalidate(), but entries whose key targets a rank in `keep_targets`
  /// survive — a down target cannot be accepting writes, so its
  /// last-known-good entries stay servable for bounded-staleness degraded
  /// reads. Returns the number of entries retained. Must not be called
  /// with PENDING entries outstanding.
  std::size_t invalidate_retaining(const std::vector<int>& keep_targets);

  /// Replace I_w and S_w with new sizes; implies an invalidation and is
  /// counted as an adjustment (adaptive strategy, Sec. III-E1). The sizes
  /// are rounded down to a multiple of cache_shards (identity when
  /// cache_shards == 1).
  void resize(std::size_t index_entries, std::size_t storage_bytes);

  /// Statistics with the per-shard counter blocks and the index/storage
  /// hot-path counters folded in (those accumulate inside the shards and
  /// their data structures; folding on read keeps the access hot path
  /// free of extra stores and the aggregation path free of locks).
  const Stats& stats() const {
    sync_hot_counters();
    return stats_;
  }
  /// Writable counters for the layers above the core (the CachedWindow
  /// driver, kv::Store): their events happen outside access(). Callers
  /// only increment, so no fold is needed — sync_hot_counters() adds the
  /// shard deltas on top of whatever was written here.
  Stats& mutable_stats() { return stats_; }
  const Config& config() const { return cfg_; }
  /// Total I_w slots / S_w bytes across all shards (each shard owns an
  /// equal 1/cache_shards partition; storage partitions are individually
  /// rounded up to the cache line, so the byte total can slightly exceed
  /// the configured size, exactly as the single arena always did).
  std::size_t index_entries() const { return cfg_.index_entries; }
  std::size_t storage_bytes() const;
  std::size_t free_bytes() const;
  std::size_t cached_entries() const;
  std::size_t pending_entries() const;
  std::uint64_t processed_gets() const;
  /// Running average get size C_w.ags (Sec. III-C2); across shards, the
  /// get-count-weighted mean of the per-shard averages.
  double average_get_size() const;

  /// Number of shards (== Config::cache_shards) and the shard a key's
  /// fingerprint routes to — exposed for the shard-boundary tests and the
  /// bench key-placement planner.
  std::size_t shards() const { return shards_.size(); }
  std::size_t shard_of(Key key) const;

  /// Score R^i(x) of a live entry under the configured ScoreKind
  /// (exposed for the eviction-policy tests and the Fig. 10/11 benches).
  double score(std::uint32_t id) const;

  /// Cross-structure invariants (index <-> entries <-> storage). O(N).
  bool validate() const { return audit().ok; }

  /// Full cross-structure audit: everything validate() checks, plus the
  /// free-list (every free id dead and unique, live + free == slots),
  /// the address index (every live entry on exactly the chain its
  /// (target, disp) hashes to, no dead id on any chain, no live entry
  /// larger than the shard's max-size mark),
  /// counter consistency, and the per-shard partition invariants (each
  /// shard holds exactly 1/cache_shards of I_w and S_w; every live entry
  /// routes to the shard that holds it). O(N); acquires every shard lock
  /// in ascending order. The chaos oracle runs this at every epoch
  /// boundary (docs/CHAOS.md); `detail` names the shard and the first
  /// violated invariant so a shrunk repro points straight at the
  /// breakage.
  struct AuditReport {
    bool ok = true;
    std::string detail;         ///< "shard K: <invariant>" ("" if ok)
    std::size_t live = 0;       ///< live entries counted by the walk
    std::size_t pending = 0;    ///< PENDING entries counted by the walk
  };
  AuditReport audit() const;

  /// True when `id` is a live CACHED entry whose payload still matches
  /// its stored checksum (always true with integrity off). The degraded
  /// read path consults this before serving a possibly-rotted entry.
  bool entry_checksum_ok(std::uint32_t id) const;

 private:
  // The fields a hit or a victim score reads (key, size, region, last,
  // pending, live) lead, so they share the entry's first 48 bytes. The
  // key's hash is not stored here: the cuckoo index keeps it beside the
  // slot word, where the insertion walk reads it without touching this
  // table (cold paths recompute it with make_hkey).
  struct Entry {
    Key key;
    std::size_t size = 0;  ///< payload bytes (region may be larger: alignment)
    Storage::Region* region = nullptr;
    std::uint64_t last = 0;  ///< index in C_w.G of the last matching get_c
    bool pending = false;
    bool live = false;
    /// Next local id on this entry's address chain (kNoEntry = end);
    /// see Shard's address index in cache.cc.
    std::uint32_t addr_next = kNoEntry;
    std::uint64_t sig = 0;
    std::uint64_t csum = 0;  ///< XXH64 of the payload, set at mark_cached
    double stamp = 0.0;      ///< virtual time the payload was fetched (0 = never)
  };
  static_assert(sizeof(Entry) <= 72, "Entry outgrew its 72-byte footprint");

  // One lock-striped partition of the cache; defined in cache.cc. Each
  // owns an index over 1/N of the slots, a 1/N storage arena, its own
  // entry table / free list / RNG / verify tick and a Stats block that
  // sync_hot_counters() folds into stats_ on demand.
  struct Shard;

  // Per-shard index callbacks for the index's cold paths (erase and
  // validate); the owning shard is implicit, so decoding a (global) entry
  // id is a single shift.
  struct EntryOps {
    const Shard* shard = nullptr;
    std::uint32_t shard_bits = 0;
    std::uint64_t hash_key(std::uint32_t id) const;  // defined in cache.cc
  };

  static std::uint64_t make_hkey(Key k);
  /// Entry ids are shard-encoded: the low shard_bits_ carry the shard,
  /// the bits above carry the slot in that shard's entry table. With one
  /// shard the encoding is the identity, so ids (and everything derived
  /// from them: index slot words, eviction order, replay traces) are
  /// bit-exact with the pre-sharding cache.
  std::uint32_t encode_id(std::size_t shard, std::uint32_t local) const {
    return (local << shard_bits_) | static_cast<std::uint32_t>(shard);
  }
  Shard& shard_for(std::uint32_t id) const { return *shard_tab_[id & shard_mask_]; }
  std::uint32_t local_of(std::uint32_t id) const { return id >> shard_bits_; }
  std::size_t shard_of_hkey(std::uint64_t hkey) const {
    // Top fingerprint bits: disjoint from whatever the index derives its
    // slot/tag bits from, so the in-shard slot mapping is untouched.
    return shard_bits_ == 0 ? 0 : static_cast<std::size_t>(hkey >> (64 - shard_bits_));
  }

  Result access_impl(Key key, std::size_t bytes, std::uint64_t dtype_sig,
                     PhaseBreakdown* phases, std::byte* dest);

  // Per-shard machinery; callers hold the shard's lock.
  std::uint32_t alloc_entry(Shard& s, std::size_t shard_idx);
  void release_entry(Shard& s, std::uint32_t id);
  void evict_entry(Shard& s, std::uint32_t id);
  void drop_failed_locked(Shard& s, std::uint32_t id);
  /// One sampled victim-selection round (Sec. III-D); false if no
  /// evictable entry was found.
  bool capacity_eviction_round(Shard& s);
  /// Insert `id` into the shard's index, evicting from the insertion path
  /// on conflicts. Returns false if it still cannot be placed.
  bool insert_with_conflict_handling(Shard& s, std::uint64_t hkey, std::uint32_t id,
                                     bool& conflicted);
  double score_locked(const Shard& s, std::uint32_t id) const;
  /// Fold the per-shard Stats blocks and the live CuckooIndex/Storage
  /// counters into stats_ (lock-free: a delta fold against shard_prev_,
  /// so direct writes to stats_ via mutable_stats() are preserved).
  /// resize() replaces the index objects, so counters accumulated before
  /// a resize are banked per shard.
  void sync_hot_counters() const;
  /// Checksums are maintained only when something will read them.
  bool integrity_on() const {
    return cfg_.verify_every_n != 0 || cfg_.scrub_entries_per_epoch != 0;
  }
  std::uint64_t entry_checksum(const Shard& s, const Entry& e) const;
  /// Per-entry slice of the validate() cross-structure invariants.
  bool entry_invariants_ok(const Shard& s, std::uint32_t id) const;

  Config cfg_;
  mutable Stats stats_;
  /// Last per-field shard sums folded into stats_ (delta bookkeeping of
  /// sync_hot_counters).
  mutable Stats shard_prev_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Raw mirror of shards_ — the hot path resolves a shard with one load
  /// instead of chasing through the unique_ptr.
  std::vector<Shard*> shard_tab_;
  std::uint32_t shard_bits_ = 0;   ///< log2(cache_shards)
  std::uint32_t shard_mask_ = 0;   ///< cache_shards - 1
  std::uint32_t scrub_shard_ = 0;  ///< resume shard of the incremental scrubber
  std::uint32_t scrub_cursor_ = 0; ///< resume slot within scrub_shard_
};

}  // namespace clampi

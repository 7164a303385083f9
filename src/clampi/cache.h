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
// The core is single-threaded: the caller serializes every call, as the
// rank that owns a window does in the paper's per-process cache (Sec. III-A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "clampi/config.h"
#include "clampi/cuckoo_index.h"
#include "clampi/stats.h"
#include "clampi/storage.h"
#include "util/rng.h"

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
  CacheCore(const CacheCore&) = delete;
  CacheCore& operator=(const CacheCore&) = delete;

  /// Process a get_c of `bytes` payload at `key`. `dtype_sig` is recorded
  /// for layout-compatibility diagnostics. May evict entries.
  Result access(Key key, std::size_t bytes, std::uint64_t dtype_sig = 0,
                PhaseBreakdown* phases = nullptr);

  // --- entry accessors (valid until eviction/invalidation) ---
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
  /// Stats::put_invalidations). The cost is O(blocks covered + chain
  /// length + matches): the address index is probed for the 256-byte
  /// blocks an overlapping entry can start in (the put's range widened by
  /// the largest entry size), never more blocks than it has chains.
  std::size_t invalidate_overlap(int target, std::uint64_t disp, std::size_t bytes);

  /// One incremental scrub slice (docs/INTEGRITY.md): re-verifies the
  /// checksum and a per-entry slice of the validate() invariants for up
  /// to `max_entries` live CACHED entries, resuming where the previous
  /// slice stopped and wrapping at the end of the entry table. Corrupt
  /// entries are quarantined. Amortized: the cost per epoch is bounded by
  /// the budget, never O(N) on the hot path.
  struct ScrubReport {
    std::size_t scanned = 0;
    std::size_t corrupted = 0;   ///< checksum mismatches (quarantined)
    bool invariants_ok = true;   ///< per-entry index/storage cross-checks
  };
  ScrubReport scrub(std::size_t max_entries);

  /// Entry-table iteration surface for integrity sweeps (fault-injected
  /// storage corruption walks live entries from the window layer). Ids in
  /// [0, entry_slots()) cover every entry; entry_live() skips free slots.
  std::size_t entry_slots() const { return entries_.size(); }
  bool entry_live(std::uint32_t id) const {
    return id < entries_.size() && entries_[id].live;
  }

  /// Drop every entry. Must not be called with PENDING entries
  /// outstanding (callers flush first).
  void invalidate();

  /// Transparent-mode survivor retention (docs/FAULTS.md §6): like
  /// invalidate(), but entries whose key targets a rank in `keep_targets`
  /// survive — a down target cannot be accepting writes, so its
  /// last-known-good entries stay servable for bounded-staleness degraded
  /// reads. Returns the number of entries retained. Must not be called
  /// with PENDING entries outstanding.
  std::size_t invalidate_retaining(const std::vector<int>& keep_targets);

  /// Replace I_w and S_w with new sizes; implies an invalidation and is
  /// counted as an adjustment (adaptive strategy, Sec. III-E1). An index
  /// size of 0 is clamped to 1.
  void resize(std::size_t index_entries, std::size_t storage_bytes);

  /// Statistics with the index/storage hot-path counters refreshed (those
  /// accumulate inside the data structures; reading them on demand keeps
  /// the access hot path free of extra stores).
  const Stats& stats() const {
    sync_hot_counters();
    return stats_;
  }
  /// Writable counters for the layers above the core (the CachedWindow
  /// driver, kv::Store): their events happen outside access(). Callers
  /// only increment.
  Stats& mutable_stats() { return stats_; }
  const Config& config() const { return cfg_; }
  /// I_w slots / S_w bytes (the arena is rounded up to the cache line, so
  /// the byte count can slightly exceed the configured size).
  std::size_t index_entries() const { return cfg_.index_entries; }
  std::size_t storage_bytes() const { return storage_.capacity(); }
  std::size_t free_bytes() const { return storage_.free_bytes(); }
  std::size_t cached_entries() const { return live_; }
  std::size_t pending_entries() const { return pending_; }

  /// Score R^i(x) of a live entry under the configured ScoreKind
  /// (exposed for the eviction-policy tests and the Fig. 10/11 benches).
  double score(std::uint32_t id) const;

  /// Cross-structure invariants (index <-> entries <-> storage). O(N).
  bool validate() const { return audit().ok; }

  /// Full cross-structure audit: everything validate() checks, plus the
  /// free-list (every free id dead and unique, live + free == slots),
  /// the address index (every live entry on exactly the chain its
  /// (target, disp) hashes to, no dead id on any chain, no live entry
  /// larger than the max-size mark) and counter consistency. O(N). The
  /// chaos oracle runs this at every epoch boundary (docs/CHAOS.md);
  /// `detail` names the first violated invariant so a shrunk repro points
  /// straight at the breakage.
  struct AuditReport {
    bool ok = true;
    std::string detail;         ///< first violated invariant ("" if ok)
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
  // slot word, where the insertion search reads it without touching this
  // table (cold paths recompute it with make_hkey).
  struct Entry {
    Key key;
    std::size_t size = 0;  ///< payload bytes (region may be larger: alignment)
    Storage::Region* region = nullptr;
    std::uint64_t last = 0;  ///< index in C_w.G of the last matching get_c
    bool pending = false;
    bool live = false;
    /// Next id on this entry's address chain (kNoEntry = end); see the
    /// address index in cache.cc.
    std::uint32_t addr_next = kNoEntry;
    std::uint64_t sig = 0;
    std::uint64_t csum = 0;  ///< XXH64 of the payload, set at mark_cached
    double stamp = 0.0;      ///< virtual time the payload was fetched (0 = never)
  };
  static_assert(sizeof(Entry) <= 72, "Entry outgrew its 72-byte footprint");

  // Index callbacks for the index's cold paths (erase and validate).
  struct EntryOps {
    const CacheCore* core = nullptr;
    std::uint64_t hash_key(std::uint32_t id) const {
      return make_hkey(core->entries_[id].key);
    }
  };

  static std::uint64_t make_hkey(Key k);

  std::uint32_t alloc_entry();
  void release_entry(std::uint32_t id);
  void evict_entry(std::uint32_t id);
  /// One sampled victim-selection round (Sec. III-D); false if no
  /// evictable entry was found.
  bool capacity_eviction_round();
  /// Insert `id` into the index, evicting one entry from the search path
  /// on a conflict. Returns false only if no entry on it is evictable.
  bool insert_with_conflict_handling(std::uint64_t hkey, std::uint32_t id,
                                     bool& conflicted);
  /// Refresh the index/storage hot-path counters in stats_ from the live
  /// CuckooIndex/Storage counters. resize() replaces the index object, so
  /// its counters accumulated before a resize are banked in counter_base_.
  void sync_hot_counters() const;
  /// Checksums are maintained only when something will read them.
  bool integrity_on() const {
    return cfg_.verify_every_n != 0 || cfg_.scrub_entries_per_epoch != 0;
  }
  std::uint64_t entry_checksum(const Entry& e) const;
  /// Per-entry slice of the validate() cross-structure invariants.
  bool entry_invariants_ok(std::uint32_t id) const;

  // Address index for put invalidation; see cache.cc.
  std::size_t addr_bucket(std::int32_t target, std::uint64_t block) const;
  std::size_t addr_bucket(Key k) const;
  void addr_reset();
  void addr_link(std::uint32_t id);
  void addr_unlink(std::uint32_t id);

  Config cfg_;
  mutable Stats stats_;
  EntryOps ops_{this};  ///< index callbacks (stable address, see index_)
  CuckooIndex<EntryOps> index_;
  Storage storage_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> free_ids_;
  std::vector<std::uint32_t> path_;  ///< scratch: cuckoo search path
  std::size_t live_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t g_ = 0;    ///< |C_w.G|: gets processed over the window's lifetime
  double ags_ = 0.0;       ///< running average get size C_w.ags
  std::uint64_t verify_tick_ = 0;  ///< hit counter for verify_every_n sampling
  util::Xoshiro256 rng_;           ///< eviction sampling
  CuckooIndex<EntryOps>::Counters counter_base_;  ///< banked across resize()

  // Address index for put invalidation: a chained hash over (target,
  // disp >> kAddrBlockBits), linked through Entry::addr_next.
  std::vector<std::uint32_t> addr_heads_;  ///< chain heads; power-of-two size
  unsigned addr_shift_ = 63;               ///< 64 - log2(addr_heads_.size())
  std::size_t addr_max_size_ = 0;  ///< entry-size high-water mark since reset
  std::vector<std::uint32_t> addr_hits_;  ///< scratch: invalidate_overlap matches

  std::uint32_t scrub_cursor_ = 0;  ///< resume slot of the incremental scrubber
};

}  // namespace clampi

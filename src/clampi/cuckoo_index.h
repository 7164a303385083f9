// I_w: the cache index (paper Sec. III-C1).
//
// A cuckoo hash table [11, 17] with p hash functions drawn from a
// universal family [5]. Lookup probes at most p slots (constant time).
// Insertion searches breadth-first for a free slot, as in MemC3 (Fan et
// al., NSDI 2013): the roots are the new key's p candidate slots, and a
// node's children are its occupant's other candidate slots. The search
// is read-only and examines at most `max_iters` slots. When it reaches an
// empty slot, the occupants on the path to it shift one step and the new
// key takes the root slot. CLaMPI deliberately does NOT rehash when the
// search fails; the failure is surfaced as a *conflicting access*, the
// caller evicts the occupant of one examined slot, and that slot ends
// the path instead (place()).
//
// Hot-path layout: each slot is one 32-bit word packing an 8-bit key
// fingerprint (tag) with a 24-bit entry id, so a single load both
// filters and resolves a probe — the exact-compare predicate (which
// touches the caller's entry table, a likely cache miss) only runs on a
// tag match. Slots map through a single multiply-shift hash (a plain
// shift for power-of-two tables, fastrange otherwise) instead of the
// mix-then-modulo of the original implementation.
//
// Beside the slot words the index keeps a parallel array holding the
// hash key of each slot's occupant, written wherever a slot word is
// written. The search computes a node's children from it, so it never
// touches the entry table. The search tests every slot of a BFS level
// before it hashes any child, so an insert that finds a free slot on a
// level pays for no deeper level. A child's slot word and key are
// prefetched when it is queued, so the loads of one level overlap
// instead of forming a chain of dependent misses.
//
// The caller's entry table is consulted through the EntryOps policy only
// on the cold paths: erase() (locating an entry's slot) and validate()
// (checking every stored key against its occupant):
//
//   struct EntryOps {
//     std::uint64_t hash_key(std::uint32_t id) const;  // stable per entry
//   };
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "util/align.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/universal_hash.h"

namespace clampi {

inline constexpr std::uint32_t kNoEntry = 0xffffffffu;
/// Largest cuckoo arity p (validate_config enforces 2 <= p <= this).
inline constexpr int kMaxCuckooArity = 8;

template <class EntryOps>
class CuckooIndex {
 public:
  /// Maximum arity supported by the fixed-size candidate-slot scratch.
  static constexpr int kMaxArity = kMaxCuckooArity;
  /// Entry ids occupy the low 24 bits of a slot word; id kIdMask (all
  /// ones) is the empty sentinel, so at most 2^24 - 1 entries.
  static constexpr std::uint32_t kIdMask = 0x00ffffffu;
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  /// Hot-path observability counters (monotonic, surfaced through
  /// clampi::Stats). Probe counts are deliberately NOT accumulated here:
  /// a per-lookup store — even a striped one — measurably slows the probe
  /// loop, so lookup() hands the count back through an out-parameter that
  /// inlines to a register, and the caller folds it into its own stats
  /// alongside stores it already performs.
  struct Counters {
    std::uint64_t tag_false_positives = 0; ///< tag matched, exact compare failed
    std::uint64_t kick_steps = 0;          ///< occupants moved one slot by inserts
  };

  CuckooIndex(std::size_t nslots, int arity, int max_iters, std::uint64_t seed,
              const EntryOps* ops)
      : arity_(arity), max_iters_(static_cast<std::size_t>(max_iters)), ops_(ops), rng_(seed) {
    CLAMPI_REQUIRE(nslots >= static_cast<std::size_t>(arity), "index too small for arity");
    CLAMPI_REQUIRE(arity >= 2 && arity <= kMaxArity, "cuckoo arity out of range");
    table_.assign(nslots, kEmptySlot);
    // Left uninitialized: a key is only read for an occupied slot, and
    // untouched pages of an idle cache's array never become resident.
    keys_ = std::make_unique_for_overwrite<std::uint64_t[]>(nslots);
    if (util::is_pow2(nslots)) {
      int log2n = 0;
      while ((std::size_t{1} << log2n) < nslots) ++log2n;
      pow2_shift_ = 64 - log2n;
    }
    hashes_.reserve(static_cast<std::size_t>(arity));
    for (int i = 0; i < arity; ++i) hashes_.emplace_back(rng_);
  }

  std::size_t nslots() const { return table_.size(); }
  std::size_t occupied() const { return occupied_; }
  int arity() const { return arity_; }

  const Counters& counters() const { return counters_; }

  /// Entry id stored in slot `s`, or kNoEntry if the slot is empty. The
  /// eviction procedure samples slots directly (Sec. III-D).
  std::uint32_t entry_at(std::size_t s) const {
    const std::uint32_t id = table_[s] & kIdMask;
    return id == kIdMask ? kNoEntry : id;
  }

  /// 8-bit fingerprint of a hash key, stored in the top byte of the slot
  /// word. Never 0xff — that value is reserved for the empty sentinel, so
  /// a probe of an empty slot can never tag-match. The mixing multiply
  /// decorrelates the tag from the slot-mapping bits.
  static std::uint32_t tag_of(std::uint64_t hkey) {
    const auto t = static_cast<std::uint32_t>((hkey * 0x9e3779b97f4a7c15ull) >> 56);
    return t == 0xffu ? 0xfeu : t;
  }

  /// Find the entry whose exact key matches, probing the p candidate slots
  /// of `hkey`. `pred(id)` performs the exact comparison.
  ///
  /// Hybrid probing: the first candidate slot is checked with an early
  /// exit (entries land there most of the time, and at low load the
  /// branch predicts well), then the remaining p-1 slot words are loaded
  /// as a branchless batch — independent multiplies and loads overlap for
  /// full memory-level parallelism, tag comparisons fold into a bitmask,
  /// and control branches once on the whole mask. The data-dependent
  /// *position* of a deep match never feeds a branch, so deep hits and
  /// misses retire without the per-probe exit mispredicts that dominate a
  /// serial scan; pred() (which touches the caller's entry table, a
  /// likely cache miss) still only runs on a tag match.
  ///
  /// If `probes_out` is non-null it receives the number of slots examined
  /// (1 for a first-slot hit, p otherwise — the batch reads every
  /// remaining candidate); after inlining it lives in a register, so
  /// counting costs the caller one add — there is intentionally no
  /// counter store on this path.
  template <class Pred>
  std::uint32_t lookup(std::uint64_t hkey, Pred&& pred, int* probes_out = nullptr) const {
    switch (arity_) {
      case 2: return lookup_p<2>(hkey, pred, probes_out);
      case 3: return lookup_p<3>(hkey, pred, probes_out);
      case 4: return lookup_p<4>(hkey, pred, probes_out);
      default: return lookup_p<0>(hkey, pred, probes_out);
    }
  }

  /// Insert `id` (with hash key `hkey`) by a breadth-first search that
  /// examines at most `max_iters` slots. If it reaches an empty slot, the
  /// occupants on the path shift one step toward it, the key takes the
  /// root slot and true is returned. Otherwise nothing was written, false
  /// is returned, and `path` (if non-null) holds the occupant of every
  /// examined slot in BFS order — the candidate victims of a
  /// *conflicting* eviction, whose position goes to place(). An entry
  /// appears once per examined slot holding it.
  bool insert(std::uint64_t hkey, std::uint32_t id, std::vector<std::uint32_t>* path) {
    CLAMPI_REQUIRE(id < kIdMask, "entry id exceeds 24-bit index slot capacity");
    if (path != nullptr) path->clear();
    nodes_.clear();
    enqueue_candidates(hkey, static_cast<std::size_t>(-1), kRoot);
    // Level by level: test the whole level, then queue its children in
    // the same order a node-at-a-time BFS would.
    for (std::uint32_t level = 0; level < nodes_.size();) {
      const auto end = static_cast<std::uint32_t>(nodes_.size());
      for (std::uint32_t n = level; n < end; ++n) {
        const std::uint32_t word = table_[nodes_[n].slot];
        if (word == kEmptySlot) {
          place(hkey, id, n);
          return true;
        }
        if (path != nullptr) path->push_back(word & kIdMask);
      }
      for (std::uint32_t n = level; n < end && nodes_.size() < max_iters_; ++n) {
        enqueue_candidates(keys_[nodes_[n].slot], nodes_[n].slot, n);
      }
      level = end;
    }
    return false;
  }

  /// Position in `path` of a conflicting insert's victim: the lowest
  /// `score(id)` (+infinity marks an entry that may not be evicted), and
  /// on a tie the first, shallowest occurrence, whose path repeats no
  /// slot. path.size() if no entry may be evicted.
  template <class Score>
  static std::size_t pick_victim(const std::vector<std::uint32_t>& path, Score&& score) {
    std::size_t best = path.size();
    double best_score = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < path.size(); ++i) {
      const double sc = score(path[i]);
      if (sc < best_score) {
        best_score = sc;
        best = i;
      }
    }
    return best;
  }

  /// Complete the failed insert of (`hkey`, `id`) at `path` position
  /// `at`, whose occupant the caller has erased: the occupants on the
  /// path to that slot shift one step toward it, and the key takes the
  /// root slot. Must follow that insert with no other insert between.
  void place(std::uint64_t hkey, std::uint32_t id, std::size_t at) {
    std::size_t n = at;
    CLAMPI_ASSERT(table_[nodes_[n].slot] == kEmptySlot, "cuckoo path ends in an occupied slot");
    while (nodes_[n].parent != kRoot) {
      const std::size_t up = nodes_[n].parent;
      table_[nodes_[n].slot] = table_[nodes_[up].slot];
      keys_[nodes_[n].slot] = keys_[nodes_[up].slot];
      ++counters_.kick_steps;
      n = up;
    }
    table_[nodes_[n].slot] = pack(tag_of(hkey), id);
    keys_[nodes_[n].slot] = hkey;
    ++occupied_;
  }

  /// Remove `id`. Returns false if the id is not in the table.
  bool erase(std::uint32_t id) {
    const std::uint64_t hkey = ops_->hash_key(id);
    const std::uint32_t word = pack(tag_of(hkey), id);
    for (int i = 0; i < arity_; ++i) {
      const std::size_t s = slot_of(hkey, i);
      if (table_[s] == word) {
        table_[s] = kEmptySlot;
        --occupied_;
        return true;
      }
    }
    return false;
  }

  void clear() {
    table_.assign(table_.size(), kEmptySlot);
    occupied_ = 0;
  }

  /// Invariant check for tests: every occupied slot's stored hash key is
  /// its occupant's key hash, every stored id sits in one of its p
  /// candidate slots with the right tag, no id appears twice, occupancy
  /// count is exact.
  bool validate() const {
    std::size_t count = 0;
    std::vector<std::uint32_t> seen;
    for (std::size_t s = 0; s < table_.size(); ++s) {
      const std::uint32_t id = entry_at(s);
      if (id == kNoEntry) continue;
      ++count;
      seen.push_back(id);
      const std::uint64_t hkey = keys_[s];
      if (hkey != ops_->hash_key(id)) return false;  // stale slot key
      bool candidate = false;
      for (int i = 0; i < arity_; ++i) candidate |= slot_of(hkey, i) == s;
      if (!candidate) return false;
      if ((table_[s] >> 24) != tag_of(hkey)) return false;
    }
    std::sort(seen.begin(), seen.end());
    if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) return false;
    return count == occupied_;
  }

 private:
  /// lookup() body for compile-time arity P (fully unrolled, slot words
  /// and match mask in registers); P = 0 handles any runtime arity.
  template <int P, class Pred>
  std::uint32_t lookup_p(std::uint64_t hkey, Pred&& pred, int* probes_out) const {
    const int p = P == 0 ? arity_ : P;
    const std::uint32_t* table = table_.data();
    const util::UniversalHash* hs = hashes_.data();
    const std::uint64_t n = table_.size();
    const std::uint32_t tag = tag_of(hkey);
    // First slot with early exit: the insert fast path fills candidates
    // in order, so resident keys sit in slot 0 most of the time.
    const std::uint32_t w0 = table[hs[0].slot(hkey, n)];
    if ((w0 >> 24) == tag) {
      const std::uint32_t id = w0 & kIdMask;
      if (pred(id)) {
        if (probes_out != nullptr) *probes_out = 1;
        return id;
      }
      ++counters_.tag_false_positives;
    }
    if (probes_out != nullptr) *probes_out = p;
    // Remaining p-1 slots as a branchless batch. Fold the tag comparisons
    // into a match mask and a branchlessly selected slot word (pure ALU,
    // registers only — no data-dependent indexing that would spill w[] to
    // the stack). Empty slots carry tag 0xff, which tag_of() never
    // produces, so any set bit is an occupied slot.
    std::uint32_t w[kMaxArity];
    for (int i = 1; i < p; ++i) w[i] = table[hs[i].slot(hkey, n)];
    std::uint32_t m = 0;
    std::uint32_t wsel = 0;
    for (int i = 1; i < p; ++i) {
      const auto match = static_cast<std::uint32_t>((w[i] >> 24) == tag);
      m |= match << i;
      wsel |= w[i] & (0u - match);
    }
    if (m == 0) return kNoEntry;
    if ((m & (m - 1)) == 0) {
      // Exactly one tag match — the common case. If the exact compare
      // fails this was a fingerprint collision with a different resident
      // key; with slot 0 already ruled out the probed key cannot be
      // present (it would tag-match).
      const std::uint32_t id = wsel & kIdMask;
      if (pred(id)) return id;
      ++counters_.tag_false_positives;
      return kNoEntry;
    }
    // Two or more candidates share the tag (~1/255 per occupied pair):
    // scan the matches. Constant-bound loop with static indexing so w[]
    // stays register-resident for compile-time P.
    for (int i = 1; i < p; ++i) {
      if ((m >> i) & 1u) {
        const std::uint32_t id = w[i] & kIdMask;
        if (pred(id)) return id;
        ++counters_.tag_false_positives;
      }
    }
    return kNoEntry;
  }

  // Test-only access to the slot arrays (tests/clampi_cuckoo_test.cc).
  template <class>
  friend struct CuckooIndexTestPeer;

  /// One examined (or queued) slot of the insertion search.
  struct Node {
    std::size_t slot;
    std::uint32_t parent;  ///< index into nodes_, or kRoot
  };
  static constexpr std::uint32_t kRoot = 0xffffffffu;

  static std::uint32_t pack(std::uint32_t tag, std::uint32_t id) {
    return (tag << 24) | id;
  }

  /// Slot mapping: top bits of one multiply-shift hash — a plain shift
  /// when the table size is a power of two (the common configuration),
  /// the fastrange reduction otherwise (e.g. the paper's 1.5K index).
  std::size_t slot_of(std::uint64_t hkey, int i) const {
    const auto& h = hashes_[static_cast<std::size_t>(i)];
    if (pow2_shift_ != 0) return h.shifted(hkey, pow2_shift_);
    return h.slot(hkey, table_.size());
  }

  /// Queue the candidate slots of `hkey` other than `from` as children
  /// of node `parent`, up to the search bound, prefetching each slot word
  /// and slot key so that a level's loads overlap.
  void enqueue_candidates(std::uint64_t hkey, std::size_t from, std::uint32_t parent) {
    for (int i = 0; i < arity_ && nodes_.size() < max_iters_; ++i) {
      const std::size_t c = slot_of(hkey, i);
      if (c == from) continue;
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(&table_[c]);
      __builtin_prefetch(&keys_[c]);
#endif
      nodes_.push_back({c, parent});
    }
  }

  int arity_;
  std::size_t max_iters_;  ///< slots one insert may examine
  int pow2_shift_ = 0;  ///< 64 - log2(nslots) when nslots is a power of two
  const EntryOps* ops_;
  util::Xoshiro256 rng_;
  std::vector<util::UniversalHash> hashes_;
  std::vector<std::uint32_t> table_;  ///< packed (tag << 24 | id) words
  std::unique_ptr<std::uint64_t[]> keys_;  ///< occupant hash key per slot (garbage if empty)
  std::vector<Node> nodes_;  ///< the last insert's BFS queue, read by place()
  std::size_t occupied_ = 0;
  mutable Counters counters_;  ///< kick_steps + false positives (exact)
};

}  // namespace clampi

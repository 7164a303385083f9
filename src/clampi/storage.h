// S_w: the cache storage buffer (paper Secs. III-C2 and III-C3).
//
// Cache entries live contiguously in one memory buffer. Free regions are
// indexed two ways: small regions (cache-line multiples up to 4 KiB) sit
// in segregated exact-size bins — one per cache-line multiple, each a
// min-heap on offset with a 64-bit occupancy bitmask — and larger or
// irregular regions stay in an AVL tree keyed by (size, offset). Both
// structures together implement exactly the best-fit policy the paper's
// fragmentation study depends on: the smallest sufficient size wins, ties
// break on the lowest offset. The fast bins turn the common small-entry
// alloc/dealloc into a bitmask scan plus an O(log k) array-heap
// operation with no pointer chasing.
//
// Region descriptors are pooled (slab-allocated, intrusively free-listed)
// so the hot path never calls new/delete. Every entry/free region has a
// descriptor; the descriptors form a doubly linked list in buffer order,
// which makes the adjacent-free-space d_c of an entry (the input to the
// positional score) an O(1) query, and makes coalescing on eviction O(1).
//
// All region sizes are multiples of the CPU cache-line size to preserve
// alignment inside S_w.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/align.h"
#include "util/avl_tree.h"
#include "util/error.h"

namespace clampi {

class Storage {
 public:
  /// Bin index marker for a region not currently held in a fast bin.
  static constexpr std::uint32_t kNoBin = 0xffffffffu;
  /// Largest size served by the segregated bins; bigger free regions go
  /// to the AVL tree.
  static constexpr std::size_t kMaxBinBytes = 4096;
  static constexpr std::size_t kNumBins = kMaxBinBytes / util::kCacheLineBytes;

  /// Descriptor of one region (a cache entry's data or a free region).
  struct Region {
    std::size_t offset = 0;
    std::size_t size = 0;   ///< always a multiple of the cache-line size
    bool free = true;
    Region* prev = nullptr;
    Region* next = nullptr;
    std::uint32_t bin = kNoBin;  ///< fast bin holding this free region
    std::uint32_t heap_pos = 0;  ///< position inside that bin's heap
  };

  /// Hot-path observability counters (monotonic across reset/rebuild).
  struct Counters {
    std::uint64_t fastbin_allocs = 0;  ///< allocations served by a bin
    std::uint64_t tree_allocs = 0;     ///< allocations served by the AVL tree
    std::uint64_t pool_reuses = 0;     ///< descriptors recycled from the pool
  };

  explicit Storage(std::size_t capacity_bytes);
  ~Storage() = default;

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  /// Best-fit allocation of (at least) `bytes`; returns nullptr when no
  /// free region is large enough (external fragmentation or exhaustion).
  Region* alloc(std::size_t bytes);

  /// Return `r` to the free pool, coalescing with free neighbours.
  void dealloc(Region* r);

  /// Grow `r` in place to hold `new_bytes`, consuming the following free
  /// region if possible. Returns false (no change) otherwise. Used for
  /// partial-hit entry extension (Sec. III-B1).
  bool try_extend(Region* r, std::size_t new_bytes);

  /// d_c: total free memory adjacent to `r` (Sec. III-C3).
  std::size_t adjacent_free(const Region* r) const;

  /// Pointer to the data of an allocated region.
  std::byte* data(const Region* r) {
    CLAMPI_ASSERT(!r->free, "data() on a free region");
    return buf_.get() + r->offset;
  }
  const std::byte* data(const Region* r) const {
    CLAMPI_ASSERT(!r->free, "data() on a free region");
    return buf_.get() + r->offset;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t free_bytes() const { return free_bytes_; }
  std::size_t largest_free() const;
  std::size_t allocated_regions() const { return allocated_regions_; }
  const Counters& counters() const { return counters_; }

  /// Drop every allocation; one maximal free region remains. O(#regions).
  void reset();

  /// Drop everything and reallocate the buffer with a new capacity
  /// (adaptive |S_w| adjustment, Sec. III-E1).
  void rebuild(std::size_t capacity_bytes);

  /// Structural invariants (descriptor list covers [0, capacity) without
  /// gaps/overlap, no adjacent free regions, bins/tree match the list,
  /// heap ordering and bitmask are consistent, byte accounting is exact).
  /// O(N); for tests.
  bool validate() const;

 private:
  using FreeKey = std::pair<std::size_t, std::size_t>;  // (size, offset)

  static std::uint32_t bin_of(std::size_t size) {
    return static_cast<std::uint32_t>(size / util::kCacheLineBytes - 1);
  }

  Region* pool_get();
  void pool_put(Region* r);

  /// Index a free region in the right structure (bin or tree) / remove it.
  void free_insert(Region* r);
  void free_erase(Region* r);

  void bin_push(Region* r);
  void bin_remove(Region* r);
  void heap_sift_up(std::vector<Region*>& h, std::size_t pos);
  void heap_sift_down(std::vector<Region*>& h, std::size_t pos);

  /// Best-fit candidate for `need` bytes, or nullptr. Does not detach it.
  Region* find_best_fit(std::size_t need);

  void unlink(Region* r);
  void release_all_descriptors();

  std::size_t capacity_ = 0;
  std::size_t free_bytes_ = 0;
  std::size_t allocated_regions_ = 0;
  std::unique_ptr<std::byte[]> buf_;
  Region* head_ = nullptr;
  util::AvlTree<FreeKey, Region*> free_tree_;  ///< free regions > kMaxBinBytes
  std::vector<Region*> bins_[kNumBins];        ///< min-heaps on offset
  std::uint64_t bin_mask_ = 0;                 ///< bit b set iff bins_[b] non-empty
  std::vector<std::unique_ptr<Region[]>> slabs_;
  Region* pool_head_ = nullptr;  ///< intrusive descriptor free list (via next)
  Counters counters_;
};

}  // namespace clampi

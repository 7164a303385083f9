#include "clampi/storage.h"

#include <algorithm>
#include <bit>

namespace clampi {

namespace {
constexpr std::size_t kSlabRegions = 128;
}  // namespace

Storage::Storage(std::size_t capacity_bytes) {
  capacity_ = util::round_up(capacity_bytes, util::kCacheLineBytes);
  CLAMPI_REQUIRE(capacity_ > 0, "storage capacity must be positive");
  // Left uninitialized: a copy-in writes every byte before it is served.
  buf_ = std::make_unique_for_overwrite<std::byte[]>(capacity_);
  Region* r = pool_get();
  *r = Region{0, capacity_, /*free=*/true, nullptr, nullptr, kNoBin, 0};
  head_ = r;
  free_bytes_ = capacity_;
  free_insert(head_);
}

Storage::Region* Storage::pool_get() {
  if (pool_head_ != nullptr) {
    Region* r = pool_head_;
    pool_head_ = r->next;
    ++counters_.pool_reuses;
    return r;
  }
  auto slab = std::make_unique<Region[]>(kSlabRegions);
  Region* base = slab.get();
  slabs_.push_back(std::move(slab));
  // Thread all but the first into the free list; hand out the first.
  for (std::size_t i = 1; i + 1 < kSlabRegions; ++i) base[i].next = &base[i + 1];
  base[kSlabRegions - 1].next = pool_head_;
  pool_head_ = &base[1];
  return base;
}

void Storage::pool_put(Region* r) {
  r->next = pool_head_;
  pool_head_ = r;
}

void Storage::heap_sift_up(std::vector<Region*>& h, std::size_t pos) {
  Region* r = h[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (h[parent]->offset <= r->offset) break;
    h[pos] = h[parent];
    h[pos]->heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  h[pos] = r;
  r->heap_pos = static_cast<std::uint32_t>(pos);
}

void Storage::heap_sift_down(std::vector<Region*>& h, std::size_t pos) {
  Region* r = h[pos];
  const std::size_t n = h.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && h[child + 1]->offset < h[child]->offset) ++child;
    if (h[child]->offset >= r->offset) break;
    h[pos] = h[child];
    h[pos]->heap_pos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  h[pos] = r;
  r->heap_pos = static_cast<std::uint32_t>(pos);
}

void Storage::bin_push(Region* r) {
  const std::uint32_t b = bin_of(r->size);
  auto& h = bins_[b];
  r->bin = b;
  r->heap_pos = static_cast<std::uint32_t>(h.size());
  h.push_back(r);
  heap_sift_up(h, h.size() - 1);
  bin_mask_ |= std::uint64_t{1} << b;
}

void Storage::bin_remove(Region* r) {
  auto& h = bins_[r->bin];
  const std::size_t pos = r->heap_pos;
  Region* last = h.back();
  h.pop_back();
  if (last != r) {
    h[pos] = last;
    last->heap_pos = static_cast<std::uint32_t>(pos);
    heap_sift_down(h, pos);
    heap_sift_up(h, last->heap_pos);
  }
  if (h.empty()) bin_mask_ &= ~(std::uint64_t{1} << r->bin);
  r->bin = kNoBin;
}

void Storage::free_insert(Region* r) {
  if (r->size <= kMaxBinBytes) {
    bin_push(r);
  } else {
    r->bin = kNoBin;
    const bool ok = free_tree_.insert({r->size, r->offset}, r);
    CLAMPI_ASSERT(ok, "duplicate free region in tree");
  }
}

void Storage::free_erase(Region* r) {
  if (r->bin != kNoBin) {
    bin_remove(r);
  } else {
    const bool ok = free_tree_.erase({r->size, r->offset});
    CLAMPI_ASSERT(ok, "free region missing from tree");
  }
}

void Storage::unlink(Region* r) {
  if (r->prev != nullptr) r->prev->next = r->next;
  if (r->next != nullptr) r->next->prev = r->prev;
  if (head_ == r) head_ = r->next;
}

Storage::Region* Storage::find_best_fit(std::size_t need) {
  // Best fit = smallest sufficient size, lowest offset among equals. Bin
  // sizes are exact (one class per cache-line multiple), so the first
  // non-empty bin at or above `need` is the smallest sufficient size and
  // its heap top the lowest offset. Tree regions are all larger than any
  // bin region, so the tree is only consulted when the bins cannot serve.
  if (need <= kMaxBinBytes) {
    const std::uint32_t b = bin_of(need);
    const std::uint64_t m = bin_mask_ >> b;
    if (m != 0) {
      ++counters_.fastbin_allocs;
      return bins_[b + static_cast<std::uint32_t>(std::countr_zero(m))].front();
    }
  }
  auto* node = free_tree_.lower_bound({need, 0});
  if (node == nullptr) return nullptr;
  ++counters_.tree_allocs;
  return node->value;
}

Storage::Region* Storage::alloc(std::size_t bytes) {
  const std::size_t need = util::round_up(std::max<std::size_t>(bytes, 1), util::kCacheLineBytes);
  Region* f = find_best_fit(need);
  if (f == nullptr) return nullptr;
  free_erase(f);
  free_bytes_ -= need;
  ++allocated_regions_;
  if (f->size == need) {
    f->free = false;
    return f;
  }
  // Carve the entry from the front of the free region; the free remainder
  // keeps its descriptor (so its free-index key changes but its list
  // position does not).
  Region* e = pool_get();
  *e = Region{f->offset, need, /*free=*/false, f->prev, f, kNoBin, 0};
  if (f->prev != nullptr) f->prev->next = e;
  if (head_ == f) head_ = e;
  f->prev = e;
  f->offset += need;
  f->size -= need;
  free_insert(f);
  return e;
}

void Storage::dealloc(Region* r) {
  CLAMPI_ASSERT(r != nullptr && !r->free, "dealloc of a free region");
  free_bytes_ += r->size;
  --allocated_regions_;
  r->free = true;
  Region* merged = r;
  if (r->prev != nullptr && r->prev->free) {
    Region* p = r->prev;
    free_erase(p);
    p->size += r->size;
    unlink(r);
    pool_put(r);
    merged = p;
  }
  if (merged->next != nullptr && merged->next->free) {
    Region* n = merged->next;
    free_erase(n);
    merged->size += n->size;
    unlink(n);
    pool_put(n);
  }
  free_insert(merged);
}

bool Storage::try_extend(Region* r, std::size_t new_bytes) {
  CLAMPI_ASSERT(!r->free, "extend of a free region");
  const std::size_t target = util::round_up(new_bytes, util::kCacheLineBytes);
  if (target <= r->size) return true;  // already large enough
  const std::size_t need = target - r->size;
  Region* n = r->next;
  if (n == nullptr || !n->free || n->size < need) return false;
  free_erase(n);
  if (n->size == need) {
    unlink(n);
    pool_put(n);
  } else {
    n->offset += need;
    n->size -= need;
    free_insert(n);
  }
  r->size = target;
  free_bytes_ -= need;
  return true;
}

std::size_t Storage::adjacent_free(const Region* r) const {
  std::size_t d = 0;
  if (r->prev != nullptr && r->prev->free) d += r->prev->size;
  if (r->next != nullptr && r->next->free) d += r->next->size;
  return d;
}

std::size_t Storage::largest_free() const {
  // Every tree region outsizes every bin region, so the tree maximum (if
  // any) wins; otherwise the highest occupied bin gives the size exactly.
  const auto* node = free_tree_.max();
  if (node != nullptr) return node->key.first;
  if (bin_mask_ == 0) return 0;
  const int top = 63 - std::countl_zero(bin_mask_);
  return static_cast<std::size_t>(top + 1) * util::kCacheLineBytes;
}

void Storage::rebuild(std::size_t capacity_bytes) {
  const std::size_t cap = util::round_up(capacity_bytes, util::kCacheLineBytes);
  CLAMPI_REQUIRE(cap > 0, "storage capacity must be positive");
  auto buf = std::make_unique_for_overwrite<std::byte[]>(cap);  // may throw; state untouched
  capacity_ = cap;
  buf_ = std::move(buf);
  reset();
}

void Storage::release_all_descriptors() {
  Region* r = head_;
  while (r != nullptr) {
    Region* next = r->next;
    pool_put(r);
    r = next;
  }
  head_ = nullptr;
  free_tree_.clear();
  for (auto& h : bins_) h.clear();
  bin_mask_ = 0;
}

void Storage::reset() {
  release_all_descriptors();
  Region* r = pool_get();
  *r = Region{0, capacity_, /*free=*/true, nullptr, nullptr, kNoBin, 0};
  head_ = r;
  free_bytes_ = capacity_;
  allocated_regions_ = 0;
  free_insert(head_);
}

bool Storage::validate() const {
  std::size_t cursor = 0;
  std::size_t free_sum = 0;
  std::size_t free_count = 0;
  std::size_t alloc_count = 0;
  const Region* prev = nullptr;
  for (const Region* r = head_; r != nullptr; r = r->next) {
    if (r->offset != cursor) return false;
    if (r->size == 0 || r->size % util::kCacheLineBytes != 0) return false;
    if (r->prev != prev) return false;
    if (prev != nullptr && prev->free && r->free) return false;  // not coalesced
    if (r->free) {
      free_sum += r->size;
      ++free_count;
      if (r->size <= kMaxBinBytes) {
        if (r->bin != bin_of(r->size)) return false;
        const auto& h = bins_[r->bin];
        if (r->heap_pos >= h.size() || h[r->heap_pos] != r) return false;
      } else {
        if (r->bin != kNoBin) return false;
        const auto* node = free_tree_.find({r->size, r->offset});
        if (node == nullptr || node->value != r) return false;
      }
    } else {
      ++alloc_count;
      if (r->bin != kNoBin) return false;
    }
    cursor += r->size;
    prev = r;
  }
  if (cursor != capacity_) return false;
  if (free_sum != free_bytes_) return false;
  if (alloc_count != allocated_regions_) return false;
  // Bin heaps: every element a free region of the bin's exact size, the
  // min-heap-on-offset property holds, the mask mirrors occupancy.
  std::size_t indexed = free_tree_.size();
  for (std::size_t b = 0; b < kNumBins; ++b) {
    const auto& h = bins_[b];
    const bool mask_bit = (bin_mask_ >> b) & 1u;
    if (mask_bit != !h.empty()) return false;
    for (std::size_t i = 0; i < h.size(); ++i) {
      const Region* r = h[i];
      if (!r->free || r->bin != b || r->heap_pos != i) return false;
      if (r->size != (b + 1) * util::kCacheLineBytes) return false;
      if (i > 0 && h[(i - 1) / 2]->offset > r->offset) return false;
    }
    indexed += h.size();
  }
  if (indexed != free_count) return false;
  return free_tree_.validate();
}

}  // namespace clampi

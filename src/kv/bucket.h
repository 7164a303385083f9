// Bucket codec of the distributed hash table (docs/KV.md).
//
// A server shard is a flat array of fixed-size buckets living inside an
// exposed RMA window, so a client can fetch any bucket with ONE contiguous
// get at a displacement both sides compute independently — the unit CLaMPI
// caches (bucket-granular entries make hot keys cache-resident). Each
// bucket is:
//
//   [ header: count | chain | generation ]  16 B
//   [ slot 0: key | seq | len | value... ]  16 B + value_capacity
//   [ slot 1: ... ]                         (slots_per_bucket slots)
//
// Slots fill densely 0..count-1 at load time (the serving workload is
// update-only, so no tombstones are needed); when a bucket fills, `chain`
// links to an overflow bucket in the same shard and lookups follow the
// chain with further bucket-sized gets. `generation` stamps the store
// build that wrote the bucket: a client holding a cached bucket from an
// older generation re-reads it uncached (the versioned re-read protecting
// the Listing-1 invalidate-on-write-epoch pattern). Every field is codec'd
// with memcpy so the same functions run against raw shard memory on the
// owner and fetched images on clients.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/error.h"
#include "util/skew.h"

namespace clampi::kv {

/// "No overflow bucket" chain link.
inline constexpr std::uint32_t kNoBucket = 0xffffffffu;

/// Shard geometry; identical on every rank (clients must compute the same
/// displacements the owners used).
struct Layout {
  static constexpr std::uint32_t slots_per_bucket = 4;
  std::uint32_t value_capacity = 64;  ///< payload bytes reserved per slot

  static constexpr std::size_t kHeaderBytes = 16;
  static constexpr std::size_t kSlotHeaderBytes = 16;

  std::size_t slot_bytes() const { return kSlotHeaderBytes + value_capacity; }
  std::size_t bucket_bytes() const {
    return kHeaderBytes + slots_per_bucket * slot_bytes();
  }
  /// Byte offset of slot `s` inside its bucket.
  std::size_t slot_offset(std::uint32_t s) const {
    return kHeaderBytes + static_cast<std::size_t>(s) * slot_bytes();
  }
};

struct BucketHeader {
  std::uint32_t count = 0;          ///< used slots (dense prefix)
  std::uint32_t chain = kNoBucket;  ///< shard-local overflow bucket index
  std::uint64_t generation = 0;     ///< store build that wrote this bucket
};

/// Per-slot metadata; the value bytes follow immediately.
struct SlotMeta {
  std::uint64_t key = 0;
  std::uint32_t seq = 0;  ///< per-key write sequence (0 = initial load)
  std::uint32_t len = 0;  ///< live payload bytes (<= value_capacity)
};

inline void store_header(std::byte* b, const BucketHeader& h) {
  std::memcpy(b, &h.count, 4);
  std::memcpy(b + 4, &h.chain, 4);
  std::memcpy(b + 8, &h.generation, 8);
}

inline BucketHeader load_header(const std::byte* b) {
  BucketHeader h;
  std::memcpy(&h.count, b, 4);
  std::memcpy(&h.chain, b + 4, 4);
  std::memcpy(&h.generation, b + 8, 8);
  return h;
}

inline void store_slot_meta(std::byte* s, const SlotMeta& m) {
  std::memcpy(s, &m.key, 8);
  std::memcpy(s + 8, &m.seq, 4);
  std::memcpy(s + 12, &m.len, 4);
}

inline SlotMeta load_slot_meta(const std::byte* s) {
  SlotMeta m;
  std::memcpy(&m.key, s, 8);
  std::memcpy(&m.seq, s + 8, 4);
  std::memcpy(&m.len, s + 12, 4);
  return m;
}

/// Compose a full slot image (header + `len` value bytes) into `out`
/// (at least kSlotHeaderBytes + len bytes). Puts and the convergence
/// layer (hinted handoff, read-repair, anti-entropy; docs/KV.md "Repair &
/// convergence") ship these images verbatim, so a repair write is
/// byte-identical to the put it replays.
inline void compose_slot(std::uint64_t key, std::uint32_t seq, std::uint32_t len,
                         const std::byte* value, std::byte* out) {
  SlotMeta m;
  m.key = key;
  m.seq = seq;
  m.len = len;
  store_slot_meta(out, m);
  std::memcpy(out + Layout::kSlotHeaderBytes, value, len);
}

/// Deterministic payload of (key, seq): any reader can recompute the bytes
/// it should have received, which is what makes the workload's shadow
/// check exact without shipping expected values around.
inline void fill_value(std::uint64_t key, std::uint32_t seq, std::uint32_t len,
                       std::byte* out) {
  std::uint64_t state = util::mix64(key ^ (0x6b76u + (static_cast<std::uint64_t>(seq) << 17)));
  std::uint32_t i = 0;
  while (i < len) {
    state = util::mix64(state);
    const std::uint32_t n = len - i < 8 ? len - i : 8;
    std::memcpy(out + i, &state, n);
    i += n;
  }
}

inline bool check_value(std::uint64_t key, std::uint32_t seq, std::uint32_t len,
                        const std::byte* v) {
  std::uint64_t state = util::mix64(key ^ (0x6b76u + (static_cast<std::uint64_t>(seq) << 17)));
  std::uint32_t i = 0;
  while (i < len) {
    state = util::mix64(state);
    const std::uint32_t n = len - i < 8 ? len - i : 8;
    if (std::memcmp(v + i, &state, n) != 0) return false;
    i += n;
  }
  return true;
}

}  // namespace clampi::kv

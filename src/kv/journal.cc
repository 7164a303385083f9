#include "kv/journal.h"

#include <cstring>
#include <unordered_map>

#include "util/error.h"
#include "util/skew.h"

namespace clampi::kv {

Journal::Journal(std::size_t cap_bytes, std::uint32_t group_commit_n)
    : cap_(cap_bytes), group_n_(group_commit_n == 0 ? 1 : group_commit_n) {}

Journal::AppendResult Journal::append(std::uint64_t key, std::uint32_t seq,
                                      const std::byte* value, std::uint32_t len) {
  AppendResult res;
  const std::size_t rb = record_bytes(len);
  CLAMPI_REQUIRE(rb <= cap_, "kv: journal record exceeds journal capacity");
  if (buf_.size() + rb > cap_) {
    compact(0xffffffffu);
    res.compacted = true;
    // The live key set outgrew the device: double it when the survivors
    // fill more than half, so the next compaction is about half a journal
    // of appends away (amortized O(1) per append) and no acknowledged
    // write is ever refused or dropped. One doubling always fits: the
    // survivors held at most cap_ bytes, and rb <= cap_.
    if (buf_.size() + rb > cap_ / 2) cap_ *= 2;
  }
  const std::size_t off = buf_.size();
  buf_.resize(off + rb);
  std::byte* r = buf_.data() + off;
  std::memcpy(r, &key, 8);
  std::memcpy(r + 8, &seq, 4);
  std::memcpy(r + 12, &len, 4);
  std::memcpy(r + 16, value, len);
  const std::uint64_t cs = checksum64(r, 16 + len, kChecksumSeed);
  std::memcpy(r + 16 + len, &cs, 8);
  if (++since_sync_ >= group_n_) {
    since_sync_ = 0;
    res.synced = true;
  }
  return res;
}

Journal::ScanResult Journal::scan(std::uint32_t max_len) const {
  ScanResult out;
  std::size_t off = 0;
  while (off < buf_.size()) {
    const std::size_t rem = buf_.size() - off;
    const std::byte* r = buf_.data() + off;
    bool valid = false;
    std::uint64_t key = 0;
    std::uint32_t seq = 0, len = 0;
    if (rem >= kRecordOverhead) {
      std::memcpy(&key, r, 8);
      std::memcpy(&seq, r + 8, 4);
      std::memcpy(&len, r + 12, 4);
      if (len != 0 && len <= max_len && record_bytes(len) <= rem) {
        std::uint64_t stored;
        std::memcpy(&stored, r + 16 + len, 8);
        valid = checksum64(r, 16 + len, kChecksumSeed) == stored;
        // Header parsed but the body rotted: the key is still readable,
        // so recovery can try pulling it from a live peer replica.
        if (!valid) out.suspect_keys.push_back(key);
      }
    }
    if (valid) {
      Record rec;
      rec.key = key;
      rec.seq = seq;
      rec.len = len;
      rec.value = r + 16;
      out.applied.push_back(rec);
      off += record_bytes(len);
      continue;
    }
    // Bad record — bit rot (possibly in the header's length field) or the
    // torn tail. Do NOT give up on everything behind it: probe forward
    // for the next checksum-valid record and resynchronize there. The
    // 64-bit checksum makes a false resync astronomically unlikely; only
    // when nothing validates through the end is the rest a torn tail.
    ++out.dropped;
    std::size_t probe = off + 1;
    bool found = false;
    while (probe + kRecordOverhead <= buf_.size()) {
      const std::byte* q = buf_.data() + probe;
      std::uint32_t plen;
      std::memcpy(&plen, q + 12, 4);
      if (plen != 0 && plen <= max_len &&
          probe + record_bytes(plen) <= buf_.size()) {
        std::uint64_t pcs;
        std::memcpy(&pcs, q + 16 + plen, 8);
        if (checksum64(q, 16 + plen, kChecksumSeed) == pcs) {
          found = true;
          break;
        }
      }
      ++probe;
    }
    if (!found) break;
    off = probe;
  }
  return out;
}

void Journal::tear(std::size_t garbage_len, std::uint64_t seed) {
  const std::size_t n =
      buf_.size() < cap_ ? std::min(garbage_len, cap_ - buf_.size()) : 0;
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    state = util::mix64(state);
    buf_.push_back(static_cast<std::byte>(state & 0xff));
  }
}

std::size_t Journal::compact(std::uint32_t max_len) {
  const std::size_t before = buf_.size();
  const ScanResult s = scan(max_len);
  // Last record per key wins: slot writes carry whole values, so every
  // earlier record of the same key is superseded.
  std::unordered_map<std::uint64_t, std::size_t> last;
  last.reserve(s.applied.size());
  for (std::size_t i = 0; i < s.applied.size(); ++i) last[s.applied[i].key] = i;
  std::vector<std::byte> nb;
  nb.reserve(before);
  for (std::size_t i = 0; i < s.applied.size(); ++i) {
    const Record& rec = s.applied[i];
    if (last[rec.key] != i) continue;
    const std::byte* raw = rec.value - 16;  // the record's first byte
    nb.insert(nb.end(), raw, raw + record_bytes(rec.len));
  }
  buf_ = std::move(nb);
  return before - buf_.size();
}

void SnapshotSet::save(const std::byte* shard, std::size_t nbytes,
                       std::uint64_t stamp) {
  Slot& s = slots_[next_];
  next_ ^= 1;
  s.image.assign(shard, shard + nbytes);
  s.stamp = stamp;
  s.checksum = checksum64(shard, nbytes, kChecksumSeed);
}

const std::vector<std::byte>* SnapshotSet::latest_valid(
    std::uint64_t* stamp_out) const {
  const Slot* best = nullptr;
  for (const Slot& s : slots_) {
    if (s.stamp == 0) continue;
    if (checksum64(s.image.data(), s.image.size(), kChecksumSeed) != s.checksum) {
      continue;  // a crash caught this slot mid-write; the other one holds
    }
    if (best == nullptr || s.stamp > best->stamp) best = &s;
  }
  if (best == nullptr) return nullptr;
  if (stamp_out != nullptr) *stamp_out = best->stamp;
  return &best->image;
}

}  // namespace clampi::kv

// Simulated persistent devices for the kv::Store's crash-restart
// durability (docs/DURABILITY.md).
//
// Each server rank owns one Device: a bounded write-ahead Journal plus a
// two-slot SnapshotSet. The device is plain host memory that deliberately
// SURVIVES a crash_rank wipe (fault::Plan::crash_rank zeroes the rank's
// exposed window and volatile client state, never its device) — it plays
// the role of the server's local disk, with the I/O cost charged as
// modelled latency by the Store, not here.
//
// Journal record layout (little-endian, packed):
//
//   [ key: u64 ][ seq: u32 ][ len: u32 ][ value: len bytes ][ xxh64: u64 ]
//
// The trailing checksum (clampi::checksum64 over the first 16+len bytes)
// is what makes torn tails and cold-record bit rot *detectable*: replay
// walks the records in order, drops any record whose checksum fails, and
// resynchronizes past unparseable bytes by probing for the next
// checksum-valid record — only a tail with no valid record left is torn. A
// record is appended and checksummed atomically, so an acknowledged write
// is durable the moment its put returns — group commit batches only the
// modelled sync latency (every Nth append pays the sync, the rest pay the
// cheap buffered append), never the durability itself. Torn garbage is
// injected strictly *after* the last complete record (it models the
// in-flight, never-acknowledged write that the power cut caught), which
// is what makes the durability sweep's zero-acked-loss gate provable.
//
// When an append would overflow the capacity the journal self-compacts:
// it keeps the newest record per key (older records are superseded — slot
// writes are whole-value) and charges the caller a snapshot-tier latency.
// If the survivors plus the new record then fill more than half of the
// capacity, the capacity doubles: a live key set larger than the device
// grows it instead of failing the write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "clampi/checksum.h"

namespace clampi::kv {

class Journal {
 public:
  /// 16 header bytes + the trailing checksum.
  static constexpr std::size_t kRecordOverhead = 24;
  static constexpr std::uint64_t kChecksumSeed = 0x6a6f75726eull;

  Journal(std::size_t cap_bytes, std::uint32_t group_commit_n);

  struct AppendResult {
    bool synced = false;     ///< this append closed a group commit: the
                             ///< caller charges the sync latency
    bool compacted = false;  ///< the append forced a self-compaction first
  };
  /// Append one record; durable on return (see file comment).
  AppendResult append(std::uint64_t key, std::uint32_t seq,
                      const std::byte* value, std::uint32_t len);

  /// A decoded record; `value` points into the journal buffer and stays
  /// valid until the next mutating call.
  struct Record {
    std::uint64_t key = 0;
    std::uint32_t seq = 0;
    std::uint32_t len = 0;
    const std::byte* value = nullptr;
  };
  struct ScanResult {
    std::vector<Record> applied;  ///< checksum-valid records, journal order
    /// Keys of records whose header still parsed but whose checksum
    /// failed (cold bit rot): recovery can try pulling these from live
    /// peer replicas. Keys from desynced garbage are harmless — they
    /// locate no slot anywhere and the repair skips them.
    std::vector<std::uint64_t> suspect_keys;
    std::uint64_t dropped = 0;  ///< corrupt/garbage spans + the torn tail
  };
  /// Walk the journal, verifying every record's checksum. `max_len` is
  /// the largest plausible value length (Layout::value_capacity). A bad
  /// record — checksum failure, or a header whose len is implausible
  /// (bit rot hit the length field) — does NOT end the scan: the walk
  /// resynchronizes at the next offset holding a checksum-valid record.
  /// Only when nothing validates through the end of the buffer is the
  /// remainder treated as the torn tail.
  ScanResult scan(std::uint32_t max_len) const;

  /// Simulated torn write at crash time: append up to `garbage_len`
  /// seeded garbage bytes after the last durable record (clamped to the
  /// remaining capacity; never touches committed bytes).
  void tear(std::size_t garbage_len, std::uint64_t seed);

  /// Drop every record (called after a snapshot made them redundant).
  void truncate() { buf_.clear(); }

  /// Raw device bytes: the injected journal_corrupt sweep flips bits here.
  std::byte* data() { return buf_.data(); }
  std::size_t bytes() const { return buf_.size(); }
  std::size_t capacity() const { return cap_; }  ///< current (possibly grown)

  static std::size_t record_bytes(std::uint32_t len) {
    return kRecordOverhead + len;
  }

 private:
  /// Keep only the newest record per key; returns bytes reclaimed.
  std::size_t compact(std::uint32_t max_len);

  std::size_t cap_;
  std::uint32_t group_n_;
  std::uint32_t since_sync_ = 0;
  std::vector<std::byte> buf_;
};

/// Two checksummed snapshot slots written ping-pong, so a crash during a
/// snapshot write can corrupt at most the slot being written — the other
/// slot keeps the previous consistent image (classic A/B commit).
class SnapshotSet {
 public:
  static constexpr std::uint64_t kChecksumSeed = 0x736e6170ull;

  /// Store a full shard image under a monotonically increasing stamp.
  void save(const std::byte* shard, std::size_t nbytes, std::uint64_t stamp);

  /// The newest slot whose checksum still verifies; nullptr when neither
  /// does (or none was ever written). `stamp_out` receives its stamp.
  const std::vector<std::byte>* latest_valid(std::uint64_t* stamp_out = nullptr) const;

 private:
  struct Slot {
    std::vector<std::byte> image;
    std::uint64_t stamp = 0;  ///< 0 = never written
    std::uint64_t checksum = 0;
  };
  Slot slots_[2];
  int next_ = 0;
};

/// One server rank's persistent state.
struct Device {
  Device(std::size_t journal_cap, std::uint32_t group_commit_n)
      : journal(journal_cap, group_commit_n) {}
  Journal journal;
  SnapshotSet snapshots;
};

/// The per-server devices, indexed by server (world) rank. Created once
/// outside the simulated ranks (Store::make_device_set) and shared by
/// every rank's StoreConfig — kv windows are writable, so the scheduler
/// keeps one baton and serializes all access; no locking is needed.
struct DeviceSet {
  std::vector<Device> per_rank;
};

}  // namespace clampi::kv

// Tests for the simulated persistent device layer (src/kv/journal.h):
// record codec round-trips, group-commit sync cadence, torn-tail and
// corrupt-record handling under scan, capacity-forced self-compaction,
// snapshot ping-pong, and the StoreConfig durability validation rules
// (docs/DURABILITY.md).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "kv/journal.h"
#include "kv/store.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

std::vector<std::byte> value_of(std::uint8_t fill, std::size_t len) {
  return std::vector<std::byte>(len, std::byte{fill});
}

TEST(KvJournal, AppendScanRoundTrip) {
  kv::Journal j(/*cap_bytes=*/4096, /*group_commit_n=*/1);
  const auto v1 = value_of(0x11, 32), v2 = value_of(0x22, 48);
  j.append(7, 1, v1.data(), 32);
  j.append(9, 4, v2.data(), 48);
  EXPECT_EQ(j.bytes(), kv::Journal::record_bytes(32) + kv::Journal::record_bytes(48));

  const auto s = j.scan(/*max_len=*/128);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_TRUE(s.suspect_keys.empty());
  ASSERT_EQ(s.applied.size(), 2u);
  EXPECT_EQ(s.applied[0].key, 7u);
  EXPECT_EQ(s.applied[0].seq, 1u);
  EXPECT_EQ(s.applied[0].len, 32u);
  EXPECT_EQ(std::memcmp(s.applied[0].value, v1.data(), 32), 0);
  EXPECT_EQ(s.applied[1].key, 9u);
  EXPECT_EQ(std::memcmp(s.applied[1].value, v2.data(), 48), 0);
}

TEST(KvJournal, GroupCommitSyncsEveryNth) {
  kv::Journal j(1 << 16, /*group_commit_n=*/4);
  const auto v = value_of(0x5a, 16);
  int syncs = 0;
  for (int i = 0; i < 12; ++i) {
    if (j.append(static_cast<std::uint64_t>(i), 1, v.data(), 16).synced) ++syncs;
  }
  // Every 4th append closes a group commit; durability is per-append
  // regardless (the batching is modelled latency only — journal.h).
  EXPECT_EQ(syncs, 3);
}

TEST(KvJournal, TornTailIsDroppedDurableRecordsSurvive) {
  kv::Journal j(4096, 1);
  const auto v = value_of(0x33, 40);
  j.append(1, 1, v.data(), 40);
  j.append(2, 2, v.data(), 40);
  j.tear(/*garbage_len=*/17, /*seed=*/0xabcdefull);

  const auto s = j.scan(128);
  ASSERT_EQ(s.applied.size(), 2u);  // everything acknowledged survives
  EXPECT_EQ(s.applied[1].key, 2u);
  EXPECT_EQ(s.dropped, 1u);  // the torn tail counts once
  EXPECT_TRUE(s.suspect_keys.empty());
}

TEST(KvJournal, CorruptRecordIsSkippedAndReportedSuspect) {
  kv::Journal j(4096, 1);
  const auto v = value_of(0x44, 32);
  j.append(10, 1, v.data(), 32);
  j.append(11, 1, v.data(), 32);
  j.append(12, 1, v.data(), 32);
  // Bit rot inside the middle record's value bytes: header still parses,
  // checksum fails, scan resynchronizes at the next record.
  const std::size_t rb = kv::Journal::record_bytes(32);
  j.data()[rb + 20] ^= std::byte{0x01};

  const auto s = j.scan(128);
  ASSERT_EQ(s.applied.size(), 2u);
  EXPECT_EQ(s.applied[0].key, 10u);
  EXPECT_EQ(s.applied[1].key, 12u);  // the record AFTER the rot still applies
  EXPECT_EQ(s.dropped, 1u);
  ASSERT_EQ(s.suspect_keys.size(), 1u);
  EXPECT_EQ(s.suspect_keys[0], 11u);  // recovery can pull this from a peer
}

TEST(KvJournal, CorruptLengthFieldResyncsToNextRecord) {
  kv::Journal j(4096, 1);
  const auto v = value_of(0x55, 32);
  j.append(10, 1, v.data(), 32);
  j.append(11, 1, v.data(), 32);
  j.append(12, 1, v.data(), 32);
  // Bit rot in the middle record's LENGTH field: the header no longer
  // parses, so the scan cannot step over it by size — it must probe
  // forward for the next checksum-valid record instead of truncating.
  const std::size_t rb = kv::Journal::record_bytes(32);
  j.data()[rb + 13] ^= std::byte{0x40};  // len byte -> implausible value

  const auto s = j.scan(128);
  ASSERT_EQ(s.applied.size(), 2u);
  EXPECT_EQ(s.applied[0].key, 10u);
  EXPECT_EQ(s.applied[1].key, 12u);  // resynced past the rotted record
  EXPECT_GE(s.dropped, 1u);
}

TEST(KvJournal, CapacityOverflowSelfCompacts) {
  // Room for ~4 records of 64 bytes: rewriting one key must compact, not
  // grow, and the survivor must be the newest record of each key.
  kv::Journal j(4 * kv::Journal::record_bytes(64), 1);
  bool compacted = false;
  for (std::uint32_t seq = 1; seq <= 20; ++seq) {
    const auto v = value_of(static_cast<std::uint8_t>(seq), 64);
    compacted |= j.append(/*key=*/5, seq, v.data(), 64).compacted;
  }
  EXPECT_TRUE(compacted);
  EXPECT_LE(j.bytes(), 4 * kv::Journal::record_bytes(64));  // never grew
  // scan() returns the surviving record *list* (replay dedupes by seq);
  // the newest write must be the last record and nothing newer was lost.
  const auto s = j.scan(128);
  ASSERT_GE(s.applied.size(), 1u);
  EXPECT_EQ(s.applied.back().key, 5u);
  EXPECT_EQ(s.applied.back().seq, 20u);  // last write wins
  EXPECT_EQ(static_cast<std::uint8_t>(s.applied.back().value[0]), 20);
}

// Writes `nkeys` distinct keys twice into a journal with room for 16
// records; returns how many appends compacted.
std::size_t write_keys_twice(kv::Journal& j, std::uint32_t nkeys) {
  std::size_t compactions = 0;
  for (std::uint32_t seq = 1; seq <= 2; ++seq) {
    for (std::uint32_t key = 0; key < nkeys; ++key) {
      const auto v = value_of(static_cast<std::uint8_t>(key * 2 + seq), 32);
      if (j.append(key, seq, v.data(), 32).compacted) ++compactions;
    }
  }
  return compactions;
}

TEST(KvJournal, LiveKeySetLargerThanCapacityGrowsTheJournal) {
  // Far more distinct keys than the initial capacity holds: no append may
  // be refused, every key's newest record must scan back, and the
  // capacity doubles rather than compacting on every append — so the
  // number of compactions grows with log2(keys), not with the appends.
  const std::size_t initial = 16 * kv::Journal::record_bytes(32);
  std::size_t prev_compactions = 0;
  for (const std::uint32_t nkeys : {512u, 4096u}) {
    kv::Journal j(initial, 1);
    std::size_t compactions = 0;
    ASSERT_NO_THROW(compactions = write_keys_twice(j, nkeys));
    EXPECT_GE(j.capacity(), nkeys * kv::Journal::record_bytes(32));
    const auto s = j.scan(128);
    std::vector<std::uint32_t> newest(nkeys, 0);
    for (const auto& rec : s.applied) {
      ASSERT_LT(rec.key, nkeys);
      if (rec.seq < newest[rec.key]) continue;
      newest[rec.key] = rec.seq;
      EXPECT_EQ(static_cast<std::uint8_t>(rec.value[0]),
                static_cast<std::uint8_t>(rec.key * 2 + rec.seq));
    }
    for (std::uint32_t key = 0; key < nkeys; ++key) EXPECT_EQ(newest[key], 2u) << key;
    // The first pass compacts once per doubling, log2(nkeys / 16) times;
    // the rewrite pass adds at most as many again.
    const std::size_t doublings = nkeys == 512u ? 5 : 8;
    EXPECT_GE(compactions, doublings);
    EXPECT_LE(compactions, 2 * doublings);
    if (prev_compactions != 0) {
      // 8x the keys (and 8x the appends) cost only a few more compactions.
      EXPECT_LE(compactions, prev_compactions + 6);
    }
    prev_compactions = compactions;
  }
}

TEST(KvJournal, ExplicitCompactKeepsNewestPerKey) {
  // Six records fill the journal exactly; the seventh append compacts
  // first, which reclaims the four superseded records and keeps no growth.
  kv::Journal j(6 * kv::Journal::record_bytes(24), 1);
  for (std::uint32_t seq = 1; seq <= 3; ++seq) {
    const auto v = value_of(static_cast<std::uint8_t>(seq), 24);
    j.append(1, seq, v.data(), 24);
    j.append(2, seq, v.data(), 24);
  }
  const auto v = value_of(0x33, 24);
  EXPECT_TRUE(j.append(3, 1, v.data(), 24).compacted);
  EXPECT_EQ(j.bytes(), 3 * kv::Journal::record_bytes(24));
  EXPECT_EQ(j.capacity(), 6 * kv::Journal::record_bytes(24));
  const auto s = j.scan(128);
  ASSERT_EQ(s.applied.size(), 3u);
  EXPECT_EQ(s.applied[0].seq, 3u);
  EXPECT_EQ(s.applied[1].seq, 3u);
  EXPECT_EQ(s.applied[2].key, 3u);
}

TEST(KvJournal, TruncateDropsEverything) {
  kv::Journal j(4096, 1);
  const auto v = value_of(0x7e, 16);
  j.append(3, 1, v.data(), 16);
  j.truncate();
  EXPECT_EQ(j.bytes(), 0u);
  EXPECT_TRUE(j.scan(128).applied.empty());
}

TEST(KvJournal, OversizedRecordThrows) {
  kv::Journal j(kv::Journal::record_bytes(8), 1);
  const auto v = value_of(0x01, 64);
  EXPECT_THROW(j.append(1, 1, v.data(), 64), util::ContractError);
}

TEST(KvSnapshot, PingPongKeepsNewestValidImage) {
  kv::SnapshotSet snaps;
  EXPECT_EQ(snaps.latest_valid(), nullptr);  // never written

  const auto a = value_of(0xaa, 256), b = value_of(0xbb, 256), c = value_of(0xcc, 256);
  snaps.save(a.data(), a.size(), /*stamp=*/1);
  snaps.save(b.data(), b.size(), /*stamp=*/2);
  snaps.save(c.data(), c.size(), /*stamp=*/3);  // overwrites the slot holding `a`

  std::uint64_t stamp = 0;
  const std::vector<std::byte>* img = snaps.latest_valid(&stamp);
  ASSERT_NE(img, nullptr);
  EXPECT_EQ(stamp, 3u);
  EXPECT_EQ(std::memcmp(img->data(), c.data(), c.size()), 0);
}

// --- StoreConfig durability validation (negative cases) ---

TEST(KvDurabilityConfig, RejectsInvalidDurabilitySettings) {
  Engine::Config ecfg;
  ecfg.nranks = 2;
  ecfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  ecfg.time_policy = rmasim::TimePolicy::kModeled;
  Engine e(ecfg);
  e.run([](Process& p) {
    kv::StoreConfig base;
    base.nkeys = 64;
    base.nservers = 1;
    base.cache.mode = Mode::kUserDefined;
    base.cache.index_entries = 1024;
    base.cache.storage_bytes = 1 << 20;

    {
      kv::StoreConfig cfg = base;
      cfg.group_commit_n = 0;  // division of the sync cadence by zero
      EXPECT_THROW(kv::Store store(p, cfg), util::ContractError);
    }
    {
      kv::StoreConfig cfg = base;
      cfg.snapshot_every_us = -1.0;
      EXPECT_THROW(kv::Store store(p, cfg), util::ContractError);
    }
    {
      // A device set sized for the wrong server count.
      kv::StoreConfig cfg = base;
      kv::StoreConfig two = base;
      two.nservers = 2;
      cfg.devices = kv::Store::make_device_set(two);
      EXPECT_THROW(kv::Store store(p, cfg), util::ContractError);
    }
    {
      // A journal that cannot hold even one max-size record.
      kv::StoreConfig cfg = base;
      cfg.journal_cap_bytes = 8;
      cfg.devices = kv::Store::make_device_set(cfg);
      EXPECT_THROW(kv::Store store(p, cfg), util::ContractError);
    }
    p.barrier();
  });
}

}  // namespace

// Tests for the KV subsystem (src/kv): ring placement, bucket codec,
// collision chains, read-your-writes, cached-get byte-equality against a
// shadow map, and the generation re-read safety net (docs/KV.md).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "kv/bucket.h"
#include "kv/ring.h"
#include "kv/store.h"
#include "netmodel/model.h"
#include "rt/engine.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace clampi;
using rmasim::Engine;
using rmasim::Process;

Engine::Config engine_cfg(int nranks) {
  Engine::Config cfg;
  cfg.nranks = nranks;
  cfg.model = std::make_shared<net::FlatModel>(2.0, 0.001);
  cfg.time_policy = rmasim::TimePolicy::kModeled;
  return cfg;
}

kv::StoreConfig small_store(std::uint64_t nkeys, int nservers) {
  kv::StoreConfig cfg;
  cfg.nkeys = nkeys;
  cfg.nservers = nservers;
  cfg.cache.mode = Mode::kUserDefined;
  cfg.cache.index_entries = 4096;
  cfg.cache.storage_bytes = 4 << 20;
  return cfg;
}

// --- ring placement ---

/// The key's primary owner: the first of its replicas.
int primary(const kv::Ring& ring, std::uint64_t key) {
  int owner = -1;
  ring.replicas(key, 1, &owner);
  return owner;
}

TEST(Ring, DeterministicAcrossInstances) {
  const kv::Ring a(4, 64, 0x1234), b(4, 64, 0x1234);
  int ra[kv::kMaxReplicas], rb[kv::kMaxReplicas];
  for (std::uint64_t k = 0; k < 5000; ++k) {
    EXPECT_EQ(primary(a, k), primary(b, k));
    a.replicas(k, 3, ra);
    b.replicas(k, 3, rb);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(ra[i], rb[i]);
  }
}

TEST(Ring, ReplicasDistinctAndLedByPrimary) {
  const kv::Ring ring(5, 32, 0xbeef);
  int reps[kv::kMaxReplicas];
  for (std::uint64_t k = 0; k < 2000; ++k) {
    ring.replicas(k, 4, reps);
    EXPECT_EQ(reps[0], primary(ring, k));
    for (int i = 0; i < 4; ++i) {
      EXPECT_GE(reps[i], 0);
      EXPECT_LT(reps[i], 5);
      for (int j = i + 1; j < 4; ++j) EXPECT_NE(reps[i], reps[j]);
    }
  }
}

TEST(Ring, VnodesKeepPlacementRoughlyBalanced) {
  const int nservers = 4;
  const kv::Ring ring(nservers, 64, 0x5eed);
  std::vector<int> owned(nservers, 0);
  const int keys = 40000;
  for (std::uint64_t k = 0; k < keys; ++k) ++owned[primary(ring, util::mix64(k))];
  for (int s = 0; s < nservers; ++s) {
    // Fair share is 25%; 64 vnodes keep every server within a loose band.
    EXPECT_GT(owned[s], keys / 10) << "server " << s;
    EXPECT_LT(owned[s], keys / 2) << "server " << s;
  }
}

// --- bucket codec ---

TEST(Bucket, HeaderAndSlotRoundTrip) {
  const kv::Layout layout;
  std::vector<std::byte> raw(layout.bucket_bytes());
  kv::BucketHeader h;
  h.count = 3;
  h.chain = 17;
  h.generation = 0x1122334455667788ull;
  kv::store_header(raw.data(), h);
  const kv::BucketHeader h2 = kv::load_header(raw.data());
  EXPECT_EQ(h2.count, 3u);
  EXPECT_EQ(h2.chain, 17u);
  EXPECT_EQ(h2.generation, h.generation);

  kv::SlotMeta m;
  m.key = 0xdeadbeefcafef00dull;
  m.seq = 41;
  m.len = 33;
  kv::store_slot_meta(raw.data() + layout.slot_offset(2), m);
  const kv::SlotMeta m2 = kv::load_slot_meta(raw.data() + layout.slot_offset(2));
  EXPECT_EQ(m2.key, m.key);
  EXPECT_EQ(m2.seq, m.seq);
  EXPECT_EQ(m2.len, m.len);
}

TEST(Bucket, ValuesAreSelfDescribing) {
  std::vector<std::byte> v(64);
  kv::fill_value(/*key=*/99, /*seq=*/5, /*len=*/64, v.data());
  EXPECT_TRUE(kv::check_value(99, 5, 64, v.data()));
  EXPECT_FALSE(kv::check_value(99, 6, 64, v.data()));  // wrong seq
  EXPECT_FALSE(kv::check_value(98, 5, 64, v.data()));  // wrong key
  v[10] ^= std::byte{0x01};
  EXPECT_FALSE(kv::check_value(99, 5, 64, v.data()));  // corrupted byte
}

// --- store: lookup, chains, puts, shadow-map equality ---

TEST(KvStore, EveryKeyFoundAndSelfConsistent) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::Store store(p, small_store(/*nkeys=*/1500, /*nservers=*/2));
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> value(store.config().layout.value_capacity);
      for (std::uint64_t i = 0; i < store.config().nkeys; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m)) << "key rank " << i;
        EXPECT_EQ(m.seq, 0u);
        EXPECT_EQ(m.generation, 1u);
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
      }
      // A key that was never loaded is a clean miss, not an error.
      kv::GetMeta m;
      EXPECT_FALSE(store.get(0x0123456789abcdefull, value.data(), &m));
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, OversubscribedLoadFactorForcesChains) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::StoreConfig cfg = small_store(/*nkeys=*/1200, /*nservers=*/2);
    cfg.load_factor = 2.5;    // main array holds < half the keys: chains
    cfg.overflow_frac = 2.0;  // plenty of overflow buckets to chain into
    kv::Store store(p, cfg);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::vector<std::byte> value(cfg.layout.value_capacity);
      std::uint64_t chain_follows = 0;
      for (std::uint64_t i = 0; i < cfg.nkeys; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m));
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
        chain_follows += static_cast<std::uint64_t>(m.chain_follows);
      }
      EXPECT_GT(chain_follows, 0u);
      EXPECT_EQ(store.window().stats().kv_chain_reads, chain_follows);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, GetAfterPutAndShadowMapByteEquality) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::Store store(p, small_store(/*nkeys=*/800, /*nservers=*/2));
    if (p.rank() == 2) {
      store.window().lock_all();
      const std::uint32_t cap = store.config().layout.value_capacity;
      std::vector<std::byte> value(cap), buf(cap);
      // Shadow of every byte this client has observed or written; the
      // store must agree with it on every subsequent cached get.
      std::unordered_map<std::uint64_t, std::vector<std::byte>> shadow;
      std::unordered_map<std::uint64_t, std::uint32_t> seq;
      util::Xoshiro256 rng(77);
      for (int op = 0; op < 3000; ++op) {
        const std::uint64_t key = store.key_at(rng.bounded(store.config().nkeys));
        if (rng.uniform() < 0.3) {
          const std::uint32_t s = ++seq[key];
          const std::uint32_t len =
              1 + static_cast<std::uint32_t>(rng.bounded(cap));
          kv::fill_value(key, s, len, buf.data());
          ASSERT_TRUE(store.put(key, s, buf.data(), len));
          shadow[key].assign(buf.data(), buf.data() + len);
          // Read-your-writes: the put's overlap invalidation must make
          // the very next cached get observe the new bytes.
          kv::GetMeta m;
          ASSERT_TRUE(store.get(key, value.data(), &m));
          EXPECT_EQ(m.seq, s);
          ASSERT_EQ(m.len, len);
          EXPECT_EQ(std::memcmp(value.data(), buf.data(), len), 0);
        } else {
          kv::GetMeta m;
          ASSERT_TRUE(store.get(key, value.data(), &m));
          EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
          auto it = shadow.find(key);
          if (it == shadow.end()) {
            shadow[key].assign(value.data(), value.data() + m.len);
          } else {
            ASSERT_EQ(m.len, it->second.size());
            EXPECT_EQ(std::memcmp(value.data(), it->second.data(), m.len), 0);
          }
        }
      }
      EXPECT_GT(store.window().stats().hitting(), 0u);
      EXPECT_GT(store.window().stats().put_invalidation_ops, 0u);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, ReloadInvalidatesAndRestampsGeneration) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::Store store(p, small_store(/*nkeys=*/600, /*nservers=*/2));
    std::vector<std::byte> value(store.config().layout.value_capacity);
    if (p.rank() == 2) {
      store.window().lock_all();
      for (std::uint64_t i = 0; i < 200; ++i) {
        kv::GetMeta m;
        ASSERT_TRUE(store.get(store.key_at(i), value.data(), &m));
        EXPECT_EQ(m.seq, 0u);
      }
      store.window().unlock_all();
    }
    p.barrier();
    store.reload(/*generation=*/2);
    if (p.rank() == 2) {
      store.window().lock_all();
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m));
        EXPECT_EQ(m.seq, 1u);  // reload stamps seq = generation - 1
        EXPECT_EQ(m.generation, 2u);
        EXPECT_FALSE(m.version_reread);  // cache was invalidated: clean refill
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
      }
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, StaleGenerationTriggersVersionedReread) {
  Engine e(engine_cfg(3));
  e.run([](Process& p) {
    kv::Store store(p, small_store(/*nkeys=*/600, /*nservers=*/2));
    std::vector<std::byte> value(store.config().layout.value_capacity);
    if (p.rank() == 2) {  // warm the cache against generation 1
      store.window().lock_all();
      for (std::uint64_t i = 0; i < 200; ++i) {
        kv::GetMeta m;
        ASSERT_TRUE(store.get(store.key_at(i), value.data(), &m));
      }
      store.window().unlock_all();
    }
    p.barrier();
    // The client "forgets" Listing 1's invalidation: its cached buckets
    // now carry generation 1 while the shards serve generation 2.
    store.reload(/*generation=*/2, /*invalidate_caches=*/false);
    if (p.rank() == 2) {
      store.window().lock_all();
      std::uint64_t rereads = 0;
      for (std::uint64_t i = 0; i < 200; ++i) {
        const std::uint64_t key = store.key_at(i);
        kv::GetMeta m;
        ASSERT_TRUE(store.get(key, value.data(), &m));
        // The safety net must still deliver generation-2 data.
        EXPECT_EQ(m.seq, 1u);
        EXPECT_EQ(m.generation, 2u);
        EXPECT_TRUE(kv::check_value(key, m.seq, m.len, value.data()));
        if (m.version_reread) ++rereads;
      }
      EXPECT_GT(rereads, 0u);
      EXPECT_EQ(store.window().stats().kv_version_rereads, rereads);
      store.window().unlock_all();
    }
    p.barrier();
    store.free_window();
  });
}

TEST(KvStore, RejectsInvalidConfigs) {
  Engine e(engine_cfg(2));
  e.run([](Process& p) {
    kv::StoreConfig cfg = small_store(100, 1);
    cfg.cache.mode = Mode::kTransparent;  // KV owns epoch invalidation
    EXPECT_THROW(kv::Store store(p, cfg), util::ContractError);
    p.barrier();
  });
}

}  // namespace

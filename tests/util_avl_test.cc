// Unit and property tests for the generic AVL tree underlying the CLaMPI
// storage allocator.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "util/avl_tree.h"
#include "util/rng.h"

namespace {

using clampi::util::AvlTree;
using clampi::util::Xoshiro256;

TEST(AvlTree, EmptyTreeBasics) {
  AvlTree<int, int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_EQ(t.lower_bound(0), nullptr);
  EXPECT_EQ(t.min(), nullptr);
  EXPECT_EQ(t.max(), nullptr);
  EXPECT_TRUE(t.validate());
}

TEST(AvlTree, InsertFindErase) {
  AvlTree<int, std::string> t;
  EXPECT_TRUE(t.insert(5, "five"));
  EXPECT_TRUE(t.insert(3, "three"));
  EXPECT_TRUE(t.insert(8, "eight"));
  EXPECT_FALSE(t.insert(5, "dup"));  // duplicate rejected
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(t.find(5)->value, "five");
  EXPECT_TRUE(t.erase(5));
  EXPECT_FALSE(t.erase(5));
  EXPECT_EQ(t.find(5), nullptr);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.validate());
}

TEST(AvlTree, LowerBoundSemantics) {
  AvlTree<int, int> t;
  for (int k : {10, 20, 30, 40}) t.insert(k, k);
  EXPECT_EQ(t.lower_bound(5)->key, 10);
  EXPECT_EQ(t.lower_bound(10)->key, 10);
  EXPECT_EQ(t.lower_bound(11)->key, 20);
  EXPECT_EQ(t.lower_bound(40)->key, 40);
  EXPECT_EQ(t.lower_bound(41), nullptr);
}

TEST(AvlTree, MinMaxAndOrderedTraversal) {
  AvlTree<int, int> t;
  for (int k : {7, 1, 9, 4, 2, 8}) t.insert(k, -k);
  EXPECT_EQ(t.min()->key, 1);
  EXPECT_EQ(t.max()->key, 9);
  std::vector<int> keys;
  t.for_each([&](int k, int) { keys.push_back(k); });
  EXPECT_EQ(keys, (std::vector<int>{1, 2, 4, 7, 8, 9}));
}

TEST(AvlTree, AscendingInsertionStaysBalanced) {
  AvlTree<int, int> t;
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(t.insert(i, i));
  }
  EXPECT_TRUE(t.validate());  // validate() checks AVL balance too
  EXPECT_EQ(t.size(), 4096u);
}

TEST(AvlTree, DescendingInsertionStaysBalanced) {
  AvlTree<int, int> t;
  for (int i = 4096; i-- > 0;) ASSERT_TRUE(t.insert(i, i));
  EXPECT_TRUE(t.validate());
}

TEST(AvlTree, MoveConstructionTransfersOwnership) {
  AvlTree<int, int> t;
  t.insert(1, 10);
  t.insert(2, 20);
  AvlTree<int, int> u(std::move(t));
  EXPECT_EQ(u.size(), 2u);
  ASSERT_NE(u.find(2), nullptr);
  EXPECT_EQ(u.find(2)->value, 20);
}

TEST(AvlTree, CompositeKeysForBestFit) {
  // The storage allocator keys free regions by (size, offset); verify that
  // lower_bound on the composite key implements best-fit with offset
  // tie-break.
  using Key = std::pair<std::size_t, std::size_t>;
  AvlTree<Key, int> t;
  t.insert({128, 0}, 0);
  t.insert({64, 512}, 1);
  t.insert({64, 128}, 2);
  t.insert({256, 1024}, 3);
  auto* n = t.lower_bound({50, 0});
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->key, (Key{64, 128}));  // smallest sufficient size, lowest offset
  n = t.lower_bound({65, 0});
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->key, (Key{128, 0}));
  n = t.lower_bound({300, 0});
  EXPECT_EQ(n, nullptr);
}

// Property test: random interleaving of inserts and erases stays
// consistent with std::map and preserves all invariants.
class AvlRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AvlRandomOps, MatchesReferenceMap) {
  Xoshiro256 rng(GetParam());
  AvlTree<std::uint64_t, std::uint64_t> t;
  std::map<std::uint64_t, std::uint64_t> ref;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.bounded(500);
    if (rng.uniform() < 0.55) {
      const bool ins = t.insert(key, step);
      EXPECT_EQ(ins, ref.emplace(key, step).second);
    } else {
      EXPECT_EQ(t.erase(key), ref.erase(key) == 1);
    }
    if (step % 1000 == 0) {
      ASSERT_TRUE(t.validate());
    }
  }
  ASSERT_TRUE(t.validate());
  EXPECT_EQ(t.size(), ref.size());
  auto it = ref.begin();
  t.for_each([&](std::uint64_t k, std::uint64_t v) {
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  });
  EXPECT_EQ(it, ref.end());
  // lower_bound agreement on a sweep of probes.
  for (std::uint64_t probe = 0; probe < 510; probe += 7) {
    auto* n = t.lower_bound(probe);
    auto rit = ref.lower_bound(probe);
    if (rit == ref.end()) {
      EXPECT_EQ(n, nullptr);
    } else {
      ASSERT_NE(n, nullptr);
      EXPECT_EQ(n->key, rit->first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvlRandomOps,
                         ::testing::Values(1u, 2u, 3u, 42u, 0xdeadbeefu));

}  // namespace

#include "catalog/btree.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace tapesim::catalog {
namespace {

TEST(BPlusTree, EmptyTree) {
  BPlusTree<int, int> t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.find(1), nullptr);
  EXPECT_FALSE(t.erase(1));
  EXPECT_EQ(t.begin(), t.end());
  t.validate();
}

TEST(BPlusTree, SingleElement) {
  BPlusTree<int, std::string> t;
  EXPECT_TRUE(t.insert(5, "five"));
  EXPECT_EQ(t.size(), 1u);
  ASSERT_NE(t.find(5), nullptr);
  EXPECT_EQ(*t.find(5), "five");
  EXPECT_TRUE(t.contains(5));
  EXPECT_FALSE(t.contains(4));
  t.validate();
  EXPECT_TRUE(t.erase(5));
  EXPECT_TRUE(t.empty());
  t.validate();
}

TEST(BPlusTree, DuplicateInsertRejected) {
  BPlusTree<int, int> t;
  EXPECT_TRUE(t.insert(1, 10));
  EXPECT_FALSE(t.insert(1, 20));
  EXPECT_EQ(*t.find(1), 10);
  EXPECT_EQ(t.size(), 1u);
}

TEST(BPlusTree, AscendingInsertTriggersSplits) {
  BPlusTree<int, int, 4> t;  // tiny fanout forces deep trees fast
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t.insert(i, i * 2));
    if (i % 100 == 0) t.validate();
  }
  t.validate();
  EXPECT_EQ(t.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NE(t.find(i), nullptr);
    EXPECT_EQ(*t.find(i), i * 2);
  }
}

TEST(BPlusTree, DescendingInsert) {
  BPlusTree<int, int, 4> t;
  for (int i = 999; i >= 0; --i) ASSERT_TRUE(t.insert(i, i));
  t.validate();
  EXPECT_EQ(t.size(), 1000u);
}

TEST(BPlusTree, IterationIsInKeyOrder) {
  BPlusTree<int, int, 8> t;
  tapesim::Rng rng{1};
  std::map<int, int> oracle;
  for (int i = 0; i < 500; ++i) {
    const int k = static_cast<int>(rng.uniform_below(10000));
    const bool inserted = t.insert(k, i);
    EXPECT_EQ(inserted, oracle.emplace(k, i).second);
  }
  auto it = t.begin();
  for (const auto& [k, v] : oracle) {
    ASSERT_NE(it, t.end());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    ++it;
  }
  EXPECT_EQ(it, t.end());
}

TEST(BPlusTree, LowerBound) {
  BPlusTree<int, int, 4> t;
  for (const int k : {10, 20, 30, 40, 50}) t.insert(k, k);
  EXPECT_EQ(t.lower_bound(5).key(), 10);
  EXPECT_EQ(t.lower_bound(10).key(), 10);
  EXPECT_EQ(t.lower_bound(11).key(), 20);
  EXPECT_EQ(t.lower_bound(50).key(), 50);
  EXPECT_EQ(t.lower_bound(51), t.end());
}

TEST(BPlusTree, EraseWithRebalancing) {
  BPlusTree<int, int, 4> t;
  const int n = 500;
  for (int i = 0; i < n; ++i) t.insert(i, i);
  // Erase every other key, then every remaining key, validating as we go.
  for (int i = 0; i < n; i += 2) {
    ASSERT_TRUE(t.erase(i));
    if (i % 50 == 0) t.validate();
  }
  t.validate();
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n / 2));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(t.contains(i), i % 2 == 1);
  }
  for (int i = 1; i < n; i += 2) ASSERT_TRUE(t.erase(i));
  EXPECT_TRUE(t.empty());
  t.validate();
}

TEST(BPlusTree, EraseMissingKeyLeavesTreeIntact) {
  BPlusTree<int, int, 4> t;
  for (int i = 0; i < 100; ++i) t.insert(i * 2, i);
  EXPECT_FALSE(t.erase(1));
  EXPECT_FALSE(t.erase(-5));
  EXPECT_FALSE(t.erase(1000));
  EXPECT_EQ(t.size(), 100u);
  t.validate();
}

TEST(BPlusTree, MoveSemantics) {
  BPlusTree<int, int, 8> a;
  for (int i = 0; i < 200; ++i) a.insert(i, i);
  BPlusTree<int, int, 8> b{std::move(a)};
  EXPECT_EQ(b.size(), 200u);
  b.validate();
  BPlusTree<int, int, 8> c;
  c.insert(999, 1);
  c = std::move(b);
  EXPECT_EQ(c.size(), 200u);
  EXPECT_FALSE(c.contains(999));
  c.validate();
}

TEST(BPlusTree, ClearResets) {
  BPlusTree<int, int, 4> t;
  for (int i = 0; i < 300; ++i) t.insert(i, i);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.begin(), t.end());
  t.validate();
  EXPECT_TRUE(t.insert(7, 7));
  EXPECT_EQ(t.size(), 1u);
}

TEST(BPlusTree, EmptyTreeBoundaries) {
  BPlusTree<int, int, 4> t;
  EXPECT_EQ(t.lower_bound(0), t.end());
  EXPECT_EQ(t.lower_bound(-1000), t.end());
  t.clear();  // clearing an already-empty tree is a no-op
  EXPECT_TRUE(t.empty());
  t.validate();
  // An emptied tree behaves exactly like a fresh one.
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(t.insert(i, i));
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(t.erase(i));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.begin(), t.end());
  EXPECT_EQ(t.lower_bound(25), t.end());
  t.validate();
  EXPECT_TRUE(t.insert(7, 70));
  EXPECT_EQ(*t.find(7), 70);
  t.validate();
}

TEST(BPlusTree, SingleNodeBoundaries) {
  // A tree whose whole life happens inside one leaf: no split ever
  // triggers, erase never rebalances, iteration walks one node.
  BPlusTree<int, int, 8> t;
  for (const int k : {3, 1, 2}) ASSERT_TRUE(t.insert(k, k * 10));
  t.validate();
  auto it = t.begin();
  for (const int k : {1, 2, 3}) {
    ASSERT_NE(it, t.end());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), k * 10);
    ++it;
  }
  EXPECT_EQ(it, t.end());
  EXPECT_EQ(t.lower_bound(0).key(), 1);
  EXPECT_EQ(t.lower_bound(4), t.end());
  // Erase the middle, then the boundaries.
  EXPECT_TRUE(t.erase(2));
  t.validate();
  EXPECT_TRUE(t.erase(1));
  EXPECT_TRUE(t.erase(3));
  EXPECT_TRUE(t.empty());
  t.validate();
}

TEST(BPlusTree, EraseFromFrontCollapsesHeight) {
  // Draining keys strictly from the smallest side forces the leftmost
  // leaf to underflow repeatedly: every borrow-from-right and merge path
  // on the left edge runs, and the root chain collapses level by level.
  BPlusTree<int, int, 4> t;
  const int n = 600;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(t.insert(i, i));
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(t.erase(i)) << "key " << i;
    if (i % 37 == 0) t.validate();
    if (!t.empty()) {
      EXPECT_EQ(t.begin().key(), i + 1);
    }
  }
  EXPECT_TRUE(t.empty());
  t.validate();
}

TEST(BPlusTree, EraseFromBackCollapsesHeight) {
  // Mirror image: drain from the largest side, exercising
  // borrow-from-left and right-edge merges.
  BPlusTree<int, int, 4> t;
  const int n = 600;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(t.insert(i, i));
  for (int i = n - 1; i >= 0; --i) {
    ASSERT_TRUE(t.erase(i)) << "key " << i;
    if (i % 37 == 0) t.validate();
  }
  EXPECT_TRUE(t.empty());
  t.validate();
}

TEST(BPlusTree, BlockEraseInsideTheMiddleMergesInnerNodes) {
  // Removing a contiguous block from the middle of a deep tree forces
  // inner-node merges away from either edge, then re-inserting the block
  // must restore the exact original contents.
  BPlusTree<int, int, 4> t;
  const int n = 1000;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(t.insert(i, i * 3));
  for (int i = 300; i < 700; ++i) ASSERT_TRUE(t.erase(i));
  t.validate();
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n - 400));
  EXPECT_EQ(t.lower_bound(300).key(), 700);
  for (int i = 300; i < 700; ++i) ASSERT_TRUE(t.insert(i, i * 3));
  t.validate();
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n));
  int expect = 0;
  for (const auto& [k, v] : t) {
    EXPECT_EQ(k, expect);
    EXPECT_EQ(v, expect * 3);
    ++expect;
  }
  EXPECT_EQ(expect, n);
}

TEST(BPlusTree, IterationUnderInterleavedInsertAndErase) {
  // Mutate and fully iterate in alternation: after every interleaved
  // insert/erase batch the key order, the contents, and lower_bound
  // landings must match a std::map oracle exactly.
  BPlusTree<int, int, 4> t;
  std::map<int, int> oracle;
  tapesim::Rng rng{99};
  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 25; ++op) {
      const int k = static_cast<int>(rng.uniform_below(400));
      if (rng.uniform() < 0.5) {
        EXPECT_EQ(t.insert(k, batch), oracle.emplace(k, batch).second);
      } else {
        EXPECT_EQ(t.erase(k), oracle.erase(k) > 0);
      }
    }
    auto it = t.begin();
    for (const auto& [k, v] : oracle) {
      ASSERT_NE(it, t.end());
      EXPECT_EQ(it.key(), k);
      EXPECT_EQ(it.value(), v);
      ++it;
    }
    EXPECT_EQ(it, t.end());
    const int probe = static_cast<int>(rng.uniform_below(400));
    const auto expect = oracle.lower_bound(probe);
    const auto got = t.lower_bound(probe);
    if (expect == oracle.end()) {
      EXPECT_EQ(got, t.end());
    } else {
      ASSERT_NE(got, t.end());
      EXPECT_EQ(got.key(), expect->first);
    }
    t.validate();
  }
}

// ---------------------------------------------------------------------------
// Copies: structure-preserving clone with a relinked leaf chain.

/// The leaf-chain walk of `t` yields exactly the oracle's entries in order.
template <typename Tree>
void expect_same_entries(const Tree& t, const std::map<int, int>& oracle) {
  ASSERT_EQ(t.size(), oracle.size());
  auto it = t.begin();
  for (const auto& [k, v] : oracle) {
    ASSERT_NE(it, t.end());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    ++it;
  }
  EXPECT_EQ(it, t.end());
}

TEST(BPlusTree, CopyMatchesTheOracleAfterRandomChurn) {
  // Churn leaves under-full leaves, borrowed separators and merged inner
  // nodes behind; the copy must reproduce that shape, not just the keys.
  BPlusTree<int, int, 4> t;
  std::map<int, int> oracle;
  tapesim::Rng rng{17};
  for (int step = 0; step < 4000; ++step) {
    const int k = static_cast<int>(rng.uniform_below(800));
    if (rng.uniform() < 0.6) {
      EXPECT_EQ(t.insert(k, step), oracle.emplace(k, step).second);
    } else {
      EXPECT_EQ(t.erase(k), oracle.erase(k) > 0);
    }
  }
  ASSERT_FALSE(oracle.empty());
  const BPlusTree<int, int, 4> copy(t);
  copy.validate();
  expect_same_entries(copy, oracle);
  for (int k = 0; k < 800; k += 7) {
    const auto expect = oracle.find(k);
    const int* got = copy.find(k);
    if (expect == oracle.end()) {
      EXPECT_EQ(got, nullptr);
    } else {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(*got, expect->second);
    }
    const auto lb = oracle.lower_bound(k);
    if (lb == oracle.end()) {
      EXPECT_EQ(copy.lower_bound(k), copy.end());
    } else {
      EXPECT_EQ(copy.lower_bound(k).key(), lb->first);
    }
  }
  // Copy-assignment over a populated tree replaces its contents.
  BPlusTree<int, int, 4> assigned;
  for (int i = 1000; i < 1300; ++i) ASSERT_TRUE(assigned.insert(i, i));
  assigned = t;
  assigned.validate();
  expect_same_entries(assigned, oracle);
}

TEST(BPlusTree, CopyIsIndependentOfItsOriginal) {
  BPlusTree<int, int, 4> a;
  std::map<int, int> a_oracle;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(a.insert(i, i));
    a_oracle.emplace(i, i);
  }
  BPlusTree<int, int, 4> b(a);
  std::map<int, int> b_oracle = a_oracle;
  // Mutating the copy leaves the original untouched...
  for (int i = 0; i < 300; i += 3) {
    ASSERT_TRUE(b.erase(i));
    b_oracle.erase(i);
  }
  for (int i = 300; i < 400; ++i) {
    ASSERT_TRUE(b.insert(i, -i));
    b_oracle.emplace(i, -i);
  }
  *b.find(1) = 1000;
  b_oracle[1] = 1000;
  a.validate();
  expect_same_entries(a, a_oracle);
  // ...and mutating the original leaves the copy untouched.
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(a.erase(i));
    a_oracle.erase(i);
  }
  a.clear();
  b.validate();
  expect_same_entries(b, b_oracle);
  // The same holds for a copy made by assignment.
  BPlusTree<int, int, 4> c;
  c = b;
  ASSERT_TRUE(c.erase(2));
  EXPECT_TRUE(b.contains(2));
  b.clear();
  c.validate();
  EXPECT_EQ(c.size(), b_oracle.size() - 1);
}

TEST(BPlusTree, SelfAssignmentKeepsTheTree) {
  BPlusTree<int, int, 4> t;
  std::map<int, int> oracle;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(t.insert(i * 5, i));
    oracle.emplace(i * 5, i);
  }
  const BPlusTree<int, int, 4>& alias = t;
  t = alias;
  t.validate();
  expect_same_entries(t, oracle);
}

TEST(BPlusTree, CopyOfAnEmptyTreeIsEmpty) {
  const BPlusTree<int, int, 4> empty;
  BPlusTree<int, int, 4> copy(empty);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy.begin(), copy.end());
  copy.validate();
  ASSERT_TRUE(copy.insert(3, 30));
  copy.validate();
  EXPECT_TRUE(empty.empty());
  // Assigning an empty tree empties the target.
  copy = empty;
  EXPECT_TRUE(copy.empty());
  copy.validate();
}

/// Randomized differential test against std::map across fanouts and seeds.
class BTreeOracle
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

template <std::size_t Fanout>
void run_oracle(std::uint64_t seed) {
  tapesim::Rng rng{seed};
  BPlusTree<std::uint32_t, std::uint64_t, Fanout> tree;
  std::map<std::uint32_t, std::uint64_t> oracle;

  for (int step = 0; step < 6000; ++step) {
    const double action = rng.uniform();
    const auto key = static_cast<std::uint32_t>(rng.uniform_below(2000));
    if (action < 0.55) {
      const std::uint64_t value = rng();
      EXPECT_EQ(tree.insert(key, value), oracle.emplace(key, value).second);
    } else if (action < 0.9) {
      EXPECT_EQ(tree.erase(key), oracle.erase(key) > 0);
    } else {
      const auto* found = tree.find(key);
      const auto it = oracle.find(key);
      if (it == oracle.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(tree.size(), oracle.size());
    if (step % 1000 == 999) tree.validate();
  }
  tree.validate();
  // Final full iteration comparison.
  auto it = tree.begin();
  for (const auto& [k, v] : oracle) {
    ASSERT_NE(it, tree.end());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    ++it;
  }
  EXPECT_EQ(it, tree.end());
  // A copy of the churned tree is structurally valid and chains every entry.
  const BPlusTree<std::uint32_t, std::uint64_t, Fanout> copy(tree);
  copy.validate();
  auto cit = copy.begin();
  for (const auto& [k, v] : oracle) {
    ASSERT_NE(cit, copy.end());
    EXPECT_EQ(cit.key(), k);
    EXPECT_EQ(cit.value(), v);
    ++cit;
  }
  EXPECT_EQ(cit, copy.end());
}

TEST_P(BTreeOracle, MatchesStdMap) {
  const auto [fanout, seed] = GetParam();
  switch (fanout) {
    case 4: run_oracle<4>(seed); break;
    case 5: run_oracle<5>(seed); break;
    case 8: run_oracle<8>(seed); break;
    case 64: run_oracle<64>(seed); break;
    default: FAIL() << "unhandled fanout";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsAndSeeds, BTreeOracle,
    ::testing::Combine(::testing::Values(4, 5, 8, 64),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace tapesim::catalog

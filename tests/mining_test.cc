#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "data/item_dictionary.h"
#include "mining/brute_force_miner.h"
#include "mining/maximal_filter.h"
#include "support/reference_fp_growth.h"
#include "support/reference_fp_tree.h"
#include "util/rng.h"

namespace yver::mining {
namespace {

using data::ItemBag;

std::set<std::vector<data::ItemId>> ItemsetsOf(
    const std::vector<FrequentItemset>& fis) {
  std::set<std::vector<data::ItemId>> out;
  for (const auto& fi : fis) out.insert(fi.items);
  return out;
}

// ---------------------------------------------------------------------------
// IsSubsetOf / FilterMaximal

TEST(SubsetTest, Basics) {
  EXPECT_TRUE(IsSubsetOf({}, {}));
  EXPECT_TRUE(IsSubsetOf({}, {1}));
  EXPECT_TRUE(IsSubsetOf({1, 3}, {1, 2, 3}));
  EXPECT_FALSE(IsSubsetOf({1, 4}, {1, 2, 3}));
  EXPECT_FALSE(IsSubsetOf({1, 2, 3}, {1, 3}));
  EXPECT_TRUE(IsSubsetOf({2}, {2}));
}

TEST(FilterMaximalTest, RemovesSubsets) {
  std::vector<FrequentItemset> fis = {
      {{1}, 5}, {{1, 2}, 3}, {{2}, 4}, {{1, 2, 3}, 2}, {{4}, 2}};
  auto maximal = ItemsetsOf(FilterMaximal(fis));
  EXPECT_EQ(maximal.size(), 2u);
  EXPECT_TRUE(maximal.count({1, 2, 3}));
  EXPECT_TRUE(maximal.count({4}));
}

// ---------------------------------------------------------------------------
// FP-tree

TEST(FpTreeTest, SharedPrefixCompresses) {
  FpTree tree(3);
  tree.Insert({0, 1}, 1);
  tree.Insert({0, 1, 2}, 1);
  tree.Insert({0, 2}, 1);
  EXPECT_EQ(tree.RankSupport(0), 3u);
  EXPECT_EQ(tree.RankSupport(1), 2u);
  EXPECT_EQ(tree.RankSupport(2), 2u);
  // Root + nodes {0, 1, 2(under 1), 2(under 0)} = 5.
  EXPECT_EQ(tree.num_nodes(), 5u);
}

TEST(FpTreeTest, SinglePathDetection) {
  FpTree tree(3);
  tree.Insert({0, 1, 2}, 2);
  tree.Insert({0, 1}, 1);
  EXPECT_TRUE(tree.IsSinglePath());
  auto path = tree.SinglePath();
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].second, 3u);
  EXPECT_EQ(path[2].second, 2u);
}

TEST(FpTreeTest, BranchingIsNotSinglePath) {
  FpTree tree(3);
  tree.Insert({0, 1}, 1);
  tree.Insert({0, 2}, 1);
  EXPECT_FALSE(tree.IsSinglePath());
}

TEST(FpTreeTest, EmptyTreeIsSinglePath) {
  FpTree tree(2);
  EXPECT_TRUE(tree.IsSinglePath());
  EXPECT_TRUE(tree.SinglePath().empty());
}

// ---------------------------------------------------------------------------
// FP-Growth vs brute force (exhaustive equivalence on the paper's Table 2
// style data)

TEST(FpGrowthTest, PaperExample) {
  // Records of Table 2: I = {F_Yitzhak, L_Postel, G_0} has support 2 and is
  // maximal at minsup=2.
  // Items: 0=YB1927 1=P_Lubaczow ... encode compactly:
  // r0: {0,1,2,3,4,5}         (YB,P1,P2,P3,P4,F Avraham,L Kesler)
  // simplified to the essence below.
  std::vector<ItemBag> bags = {
      {0, 1, 2},        // F Avraham, L Kesler, P Poland
      {0, 2, 3, 4},     // F Avraham, L Apoteker, P Poland, G 0
      {0, 2, 4, 5, 6},  // F Yitzhak(5), L Postel(6), Poland, G0, +Avraham
      {2, 4, 5, 6},     // F Yitzhak, L Postel, Poland, G 0
  };
  FpMinerOptions opts;
  opts.minsup = 2;
  auto mfis = MineMaximalItemsets(bags, opts);
  auto sets = ItemsetsOf(mfis);
  // {2,4,5,6} (Yitzhak,Postel,Poland,G0) must be maximal with support 2.
  EXPECT_TRUE(sets.count({2, 4, 5, 6}));
  for (const auto& mfi : mfis) {
    EXPECT_EQ(CountSupport(bags, mfi.items), mfi.support);
    EXPECT_GE(mfi.support, 2u);
  }
}

TEST(FpGrowthTest, AllFrequentMatchesBruteForceSmall) {
  std::vector<ItemBag> bags = {
      {0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}};
  for (uint32_t minsup = 1; minsup <= 4; ++minsup) {
    FpMinerOptions opts;
    opts.minsup = minsup;
    auto fp = MineFrequentItemsets(bags, opts);
    auto bf = BruteForceFrequentItemsets(bags, minsup);
    EXPECT_EQ(ItemsetsOf(fp), ItemsetsOf(bf)) << "minsup=" << minsup;
    // Supports agree too.
    for (const auto& fi : fp) {
      EXPECT_EQ(CountSupport(bags, fi.items), fi.support);
    }
  }
}

TEST(FpGrowthTest, EmptyAndDegenerateInputs) {
  FpMinerOptions opts;
  opts.minsup = 2;
  EXPECT_TRUE(MineFrequentItemsets({}, opts).empty());
  EXPECT_TRUE(MineMaximalItemsets({}, opts).empty());
  EXPECT_TRUE(MineMaximalItemsets({{1, 2}}, opts).empty());  // 1 txn < minsup
}

TEST(FpGrowthTest, MinsupOneEmitsEverything) {
  std::vector<ItemBag> bags = {{0}, {1}};
  FpMinerOptions opts;
  opts.minsup = 1;
  auto mfis = MineMaximalItemsets(bags, opts);
  EXPECT_EQ(ItemsetsOf(mfis), (std::set<std::vector<data::ItemId>>{
                                  {0}, {1}}));
}

TEST(FpGrowthTest, MaxItemsetsCapStopsEarly) {
  std::vector<ItemBag> bags;
  for (int t = 0; t < 8; ++t) {
    ItemBag bag;
    for (data::ItemId i = 0; i < 10; ++i) bag.push_back(i);
    bags.push_back(bag);
  }
  FpMinerOptions opts;
  opts.minsup = 2;
  opts.max_itemsets = 3;
  auto fis = MineFrequentItemsets(bags, opts);
  EXPECT_LE(fis.size(), 3u);
}

// ---------------------------------------------------------------------------
// Closed itemsets

TEST(ClosedItemsetsTest, ClosedSupersetOfMaximal) {
  std::vector<ItemBag> bags = {
      {0, 1, 2}, {0, 1}, {1, 2, 3}, {0, 2, 3}, {1, 3}, {0, 1, 2}};
  FpMinerOptions opts;
  opts.minsup = 2;
  auto closed = ItemsetsOf(MineClosedItemsets(bags, opts));
  auto maximal = ItemsetsOf(MineMaximalItemsets(bags, opts));
  for (const auto& m : maximal) {
    EXPECT_TRUE(closed.count(m)) << "maximal itemset missing from closed";
  }
  EXPECT_GE(closed.size(), maximal.size());
}

TEST(ClosedItemsetsTest, ClosednessSemantics) {
  // {0} appears in 3 txns, {0,1} in 3 txns too -> {0} is NOT closed.
  std::vector<ItemBag> bags = {{0, 1}, {0, 1}, {0, 1, 2}};
  FpMinerOptions opts;
  opts.minsup = 2;
  auto closed = ItemsetsOf(MineClosedItemsets(bags, opts));
  EXPECT_FALSE(closed.count({0}));
  EXPECT_FALSE(closed.count({1}));
  EXPECT_TRUE(closed.count({0, 1}));
  // {0,1,2} has support 1 < minsup: not frequent.
  EXPECT_FALSE(closed.count({0, 1, 2}));
}

TEST(ClosedItemsetsTest, SupportsAreExact) {
  std::vector<ItemBag> bags = {
      {0, 1, 2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}};
  FpMinerOptions opts;
  opts.minsup = 2;
  for (const auto& fi : MineClosedItemsets(bags, opts)) {
    EXPECT_EQ(CountSupport(bags, fi.items), fi.support);
  }
}

TEST(ClosedItemsetsTest, BruteForceClosednessAgreement) {
  util::Rng rng(123);
  std::vector<ItemBag> bags;
  for (int t = 0; t < 18; ++t) {
    ItemBag bag;
    for (int i = 0; i < 5; ++i) {
      bag.push_back(static_cast<data::ItemId>(rng.UniformInt(0, 7)));
    }
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    bags.push_back(std::move(bag));
  }
  FpMinerOptions opts;
  opts.minsup = 2;
  auto closed = MineClosedItemsets(bags, opts);
  // Definition check: no frequent strict superset has equal support.
  auto all = BruteForceFrequentItemsets(bags, 2);
  for (const auto& c : closed) {
    for (const auto& fi : all) {
      if (fi.items.size() > c.items.size() &&
          IsSubsetOf(c.items, fi.items)) {
        EXPECT_LT(fi.support, c.support);
      }
    }
  }
  // Completeness: every frequent itemset's closure is present.
  auto closed_sets = ItemsetsOf(closed);
  for (const auto& fi : all) {
    bool has_closed_superset = false;
    for (const auto& c : closed) {
      if (c.support == fi.support && IsSubsetOf(fi.items, c.items)) {
        has_closed_superset = true;
        break;
      }
    }
    EXPECT_TRUE(has_closed_superset);
  }
}

// Property sweep: on random transaction sets the maximal miner agrees with
// brute force for every minsup.
struct RandomMiningCase {
  uint64_t seed;
  size_t num_transactions;
  size_t alphabet;
  size_t max_len;
};

class FpGrowthRandomTest : public ::testing::TestWithParam<RandomMiningCase> {
};

TEST_P(FpGrowthRandomTest, MaximalMatchesBruteForce) {
  const auto& param = GetParam();
  util::Rng rng(param.seed);
  std::vector<ItemBag> bags;
  for (size_t t = 0; t < param.num_transactions; ++t) {
    ItemBag bag;
    size_t len = 1 + static_cast<size_t>(rng.UniformInt(
                         0, static_cast<int64_t>(param.max_len) - 1));
    for (size_t i = 0; i < len; ++i) {
      bag.push_back(static_cast<data::ItemId>(
          rng.UniformInt(0, static_cast<int64_t>(param.alphabet) - 1)));
    }
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    bags.push_back(std::move(bag));
  }
  for (uint32_t minsup = 2; minsup <= 4; ++minsup) {
    FpMinerOptions opts;
    opts.minsup = minsup;
    auto fp = MineMaximalItemsets(bags, opts);
    auto bf = BruteForceMaximalItemsets(bags, minsup);
    EXPECT_EQ(ItemsetsOf(fp), ItemsetsOf(bf))
        << "seed=" << param.seed << " minsup=" << minsup;
    for (const auto& mfi : fp) {
      EXPECT_EQ(CountSupport(bags, mfi.items), mfi.support);
    }
    // Closed miner agrees with reference closed enumeration.
    auto closed = MineClosedItemsets(bags, opts);
    auto closed_ref =
        FilterClosed(BruteForceFrequentItemsets(bags, minsup));
    EXPECT_EQ(ItemsetsOf(closed), ItemsetsOf(closed_ref))
        << "closed seed=" << param.seed << " minsup=" << minsup;
    for (const auto& cfi : closed) {
      EXPECT_EQ(CountSupport(bags, cfi.items), cfi.support);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTransactionSets, FpGrowthRandomTest,
    ::testing::Values(RandomMiningCase{1, 12, 8, 5},
                      RandomMiningCase{2, 20, 10, 6},
                      RandomMiningCase{3, 30, 6, 4},
                      RandomMiningCase{4, 15, 12, 7},
                      RandomMiningCase{5, 25, 5, 5},
                      RandomMiningCase{6, 40, 15, 6},
                      RandomMiningCase{7, 10, 20, 8},
                      RandomMiningCase{8, 50, 8, 3}));

}  // namespace
}  // namespace yver::mining

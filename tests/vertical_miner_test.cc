// mining::MineItemsets, the depth-first vertical miner behind MFIBlocks:
// its itemsets AND support sets against the brute-force miner on random
// corpora (maximal and closed), against the FPMax / FPClose +
// GroupedSupports oracle on a generated corpus, and its output order
// across pool sizes.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/item_dictionary.h"
#include "mining/brute_force_miner.h"
#include "mining/maximal_filter.h"
#include "mining/vertical_miner.h"
#include "support/reference_fp_growth.h"
#include "support/reference_grouped_supports.h"
#include "support/reference_inverted_index.h"
#include "synth/generator.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yver::mining {
namespace {

using data::ItemBag;
using data::RecordIdx;

// (items, support set) of every returned itemset, sorted.
using ItemsetsWithTids =
    std::vector<std::pair<std::vector<data::ItemId>, std::vector<RecordIdx>>>;

ItemsetsWithTids Flatten(const MinedItemsets& mined) {
  ItemsetsWithTids out;
  for (const auto& slot : mined.by_root) {
    for (const auto& set : slot) out.emplace_back(set.items, set.tids);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The reference itemsets with support sets recomputed one at a time.
ItemsetsWithTids WithTids(const std::vector<FrequentItemset>& itemsets,
                          const std::vector<ItemBag>& bags) {
  ItemsetsWithTids out;
  for (const auto& fi : itemsets) {
    std::vector<RecordIdx> tids;
    for (size_t t = 0; t < bags.size(); ++t) {
      if (IsSubsetOf(fi.items, bags[t])) {
        tids.push_back(static_cast<RecordIdx>(t));
      }
    }
    EXPECT_EQ(tids.size(), fi.support);
    out.emplace_back(fi.items, std::move(tids));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ItemBag> RandomBags(util::Rng& rng, size_t num_bags,
                                size_t alphabet, size_t max_len) {
  std::vector<ItemBag> bags;
  for (size_t t = 0; t < num_bags; ++t) {
    ItemBag bag;
    const size_t len = 1 + static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(max_len) - 1));
    for (size_t i = 0; i < len; ++i) {
      bag.push_back(static_cast<data::ItemId>(
          rng.UniformInt(0, static_cast<int64_t>(alphabet) - 1)));
    }
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    bags.push_back(std::move(bag));
  }
  return bags;
}

MinerOptions Options(uint32_t minsup, ItemsetKind kind) {
  MinerOptions options;
  options.minsup = minsup;
  options.kind = kind;
  return options;
}

std::vector<std::unique_ptr<util::ThreadPool>> PoolMatrix() {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t n : {1, 2, 8}) {
    pools.push_back(std::make_unique<util::ThreadPool>(n));
  }
  return pools;
}

// ---------------------------------------------------------------------------
// Small cases

TEST(VerticalMinerTest, PaperExample) {
  // Table 2 in miniature: {Yitzhak, Postel, Poland, G0} = {2, 4, 5, 6} is
  // maximal at minsup 2, supported by the last two records.
  std::vector<ItemBag> bags = {
      {0, 1, 2}, {0, 2, 3, 4}, {0, 2, 4, 5, 6}, {2, 4, 5, 6}};
  MinedItemsets mined =
      MineItemsets(bags, Options(2, ItemsetKind::kMaximal));
  ItemsetsWithTids sets = Flatten(mined);
  EXPECT_TRUE(std::count(sets.begin(), sets.end(),
                         std::make_pair(std::vector<data::ItemId>{2, 4, 5, 6},
                                        std::vector<RecordIdx>{2, 3})));
  EXPECT_EQ(sets, WithTids(BruteForceMaximalItemsets(bags, 2), bags));
  EXPECT_EQ(mined.num_mined, sets.size());
}

TEST(VerticalMinerTest, EmptyAndDegenerateInputs) {
  for (ItemsetKind kind : {ItemsetKind::kMaximal, ItemsetKind::kClosed}) {
    EXPECT_EQ(MineItemsets({}, Options(2, kind)).num_mined, 0u);
    EXPECT_TRUE(MineItemsets({}, Options(2, kind)).by_root.empty());
    // One transaction is below minsup 2.
    EXPECT_EQ(MineItemsets({{1, 2}}, Options(2, kind)).num_mined, 0u);
    // Empty bags hold no itemset.
    EXPECT_EQ(MineItemsets({{}, {}, {}}, Options(1, kind)).num_mined, 0u);
  }
}

TEST(VerticalMinerTest, MinsupOneEmitsEveryDistinctBag) {
  std::vector<ItemBag> bags = {{0}, {1}, {0, 2}};
  EXPECT_EQ(Flatten(MineItemsets(bags, Options(1, ItemsetKind::kMaximal))),
            (ItemsetsWithTids{{{0, 2}, {2}}, {{1}, {1}}}));
  EXPECT_EQ(Flatten(MineItemsets(bags, Options(1, ItemsetKind::kClosed))),
            (ItemsetsWithTids{{{0}, {0, 2}}, {{0, 2}, {2}}, {{1}, {1}}}));
}

TEST(VerticalMinerTest, ClosedSetsAreClosures) {
  // {0} and {1} always come with each other, so only {0, 1} is closed; an
  // item in every bag is the closure of the empty set.
  std::vector<ItemBag> bags = {{0, 1, 9}, {0, 1, 9}, {0, 1, 2, 9}, {2, 9}};
  EXPECT_EQ(Flatten(MineItemsets(bags, Options(2, ItemsetKind::kClosed))),
            (ItemsetsWithTids{{{0, 1, 9}, {0, 1, 2}},
                              {{2, 9}, {2, 3}},
                              {{9}, {0, 1, 2, 3}}}));
  EXPECT_EQ(Flatten(MineItemsets(bags, Options(2, ItemsetKind::kMaximal))),
            (ItemsetsWithTids{{{0, 1, 9}, {0, 1, 2}}, {{2, 9}, {2, 3}}}));
}

TEST(VerticalMinerTest, MaxSupportCountsButDropsLargeSupports) {
  std::vector<ItemBag> bags = {{0, 1}, {0, 1}, {0, 1}, {0, 2}, {0, 2}};
  MinerOptions options = Options(2, ItemsetKind::kClosed);
  ASSERT_EQ(Flatten(MineItemsets(bags, options)),
            (ItemsetsWithTids{{{0}, {0, 1, 2, 3, 4}},
                              {{0, 1}, {0, 1, 2}},
                              {{0, 2}, {3, 4}}}));
  options.max_support = 2;
  MinedItemsets capped = MineItemsets(bags, options);
  EXPECT_EQ(Flatten(capped), (ItemsetsWithTids{{{0, 2}, {3, 4}}}));
  EXPECT_EQ(capped.num_mined, 3u);
}

TEST(VerticalMinerTest, RowSubsetReportsRowValues) {
  // Only rows 1, 3 and 4 are transactions; tids name those rows.
  std::vector<ItemBag> bags = {{5, 6}, {5, 6, 7}, {5, 6}, {6, 7}, {5, 6, 7}};
  MinedItemsets mined =
      MineItemsets(bags, {1, 3, 4}, Options(2, ItemsetKind::kMaximal));
  EXPECT_EQ(Flatten(mined), (ItemsetsWithTids{{{5, 6, 7}, {1, 4}}}));
}

TEST(VerticalMinerTest, SlotsFollowLeastFrequentItemRank) {
  // Supports: 3 -> 2, 2 -> 3, 1 -> 3, 0 -> 4. Ascending support with ties
  // to the larger id ranks them 3, 2, 1, 0.
  std::vector<ItemBag> bags = {{0, 1, 3}, {0, 1, 3}, {0, 1}, {0, 2}, {2}, {2}};
  MinedItemsets mined = MineItemsets(bags, Options(2, ItemsetKind::kClosed));
  ASSERT_EQ(mined.by_root.size(), 4u);
  EXPECT_EQ(mined.by_root[0],
            (std::vector<SupportedItemset>{{{0, 1, 3}, {0, 1}}}));
  EXPECT_EQ(mined.by_root[1], (std::vector<SupportedItemset>{{{2}, {3, 4, 5}}}));
  EXPECT_EQ(mined.by_root[2],
            (std::vector<SupportedItemset>{{{0, 1}, {0, 1, 2}}}));
  EXPECT_EQ(mined.by_root[3], (std::vector<SupportedItemset>{{{0}, {0, 1, 2, 3}}}));
}

// ---------------------------------------------------------------------------
// Random corpora against brute force

struct RandomCase {
  uint64_t seed;
  size_t num_bags;
  size_t alphabet;
  size_t max_len;
};

class VerticalMinerRandomTest : public ::testing::TestWithParam<RandomCase> {
};

TEST_P(VerticalMinerRandomTest, MatchesBruteForceWithSupportSets) {
  const RandomCase& param = GetParam();
  util::Rng rng(param.seed);
  const std::vector<ItemBag> bags =
      RandomBags(rng, param.num_bags, param.alphabet, param.max_len);
  util::ThreadPool pool(3);
  for (uint32_t minsup = 1; minsup <= 5; ++minsup) {
    const std::vector<FrequentItemset> all =
        BruteForceFrequentItemsets(bags, minsup);
    for (ItemsetKind kind : {ItemsetKind::kMaximal, ItemsetKind::kClosed}) {
      const MinedItemsets serial = MineItemsets(bags, Options(minsup, kind));
      const ItemsetsWithTids expected = WithTids(
          kind == ItemsetKind::kMaximal ? FilterMaximal(all)
                                        : FilterClosed(all),
          bags);
      EXPECT_EQ(Flatten(serial), expected)
          << "seed " << param.seed << " minsup " << minsup << " kind "
          << static_cast<int>(kind);
      EXPECT_EQ(serial.num_mined, expected.size());
      const MinedItemsets parallel =
          MineItemsets(bags, Options(minsup, kind), &pool);
      EXPECT_EQ(parallel.by_root, serial.by_root);
    }
  }
}

// Up to 300 transactions over a few items: nodes above 64 rows take the
// row-list path, smaller ones the mask path, and both meet in one run.
INSTANTIATE_TEST_SUITE_P(
    RandomCorpora, VerticalMinerRandomTest,
    ::testing::Values(RandomCase{1, 12, 8, 5}, RandomCase{2, 40, 15, 6},
                      RandomCase{3, 64, 6, 4}, RandomCase{4, 65, 7, 5},
                      RandomCase{5, 130, 9, 5}, RandomCase{6, 300, 8, 6},
                      RandomCase{7, 200, 5, 5}, RandomCase{8, 90, 10, 6}),
    [](const ::testing::TestParamInfo<RandomCase>& info) {
      return "Seed" + std::to_string(info.param.seed);
    });

// ---------------------------------------------------------------------------
// Generated corpus against the FP-Growth + GroupedSupports oracle

const std::vector<ItemBag>& GeneratedBags() {
  static const std::vector<ItemBag>* bags = [] {
    synth::GeneratorConfig config = synth::ItalyConfig();
    config.num_persons = 700;
    config.include_mv = true;
    config.seed = 5;
    return new std::vector<ItemBag>(
        data::EncodeDataset(synth::Generate(config).dataset).bags);
  }();
  return *bags;
}

ItemsetsWithTids Oracle(const std::vector<ItemBag>& bags, uint32_t minsup,
                        ItemsetKind kind) {
  FpMinerOptions options;
  options.minsup = minsup;
  std::vector<FrequentItemset> itemsets =
      kind == ItemsetKind::kMaximal ? MineMaximalItemsets(bags, options)
                                    : MineClosedItemsets(bags, options);
  data::ItemId max_item = 0;
  for (const ItemBag& bag : bags) {
    if (!bag.empty()) max_item = std::max(max_item, bag.back());
  }
  data::InvertedIndex index(bags, static_cast<size_t>(max_item) + 1);
  std::vector<std::vector<RecordIdx>> supports =
      blocking::GroupedSupports(index, bags, itemsets);
  ItemsetsWithTids out;
  for (size_t i = 0; i < itemsets.size(); ++i) {
    out.emplace_back(std::move(itemsets[i].items), std::move(supports[i]));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(VerticalMinerEquivalenceTest, MatchesFpGrowthOracleOnGeneratedCorpus) {
  const std::vector<ItemBag>& bags = GeneratedBags();
  ASSERT_GT(bags.size(), 1000u);
  for (uint32_t minsup : {5u, 2u}) {
    for (ItemsetKind kind : {ItemsetKind::kMaximal, ItemsetKind::kClosed}) {
      const ItemsetsWithTids expected = Oracle(bags, minsup, kind);
      ASSERT_GT(expected.size(), 100u);
      MinedItemsets first;
      for (const auto& pool : PoolMatrix()) {
        MinedItemsets mined = MineItemsets(bags, Options(minsup, kind),
                                           pool.get());
        EXPECT_EQ(Flatten(mined), expected)
            << "minsup " << minsup << " kind " << static_cast<int>(kind)
            << " threads " << (pool ? pool->num_threads() : 0);
        EXPECT_EQ(mined.num_mined, expected.size());
        if (pool == nullptr) {
          first = std::move(mined);
        } else {
          EXPECT_EQ(mined.by_root, first.by_root);
        }
      }
    }
  }
}

// Every maximal itemset is closed: the closed family holds each maximal
// itemset with the same support set, and strictly more besides.
TEST(VerticalMinerEquivalenceTest, ClosedFamilyContainsEveryMaximalSet) {
  const std::vector<ItemBag>& bags = GeneratedBags();
  for (uint32_t minsup : {4u, 2u}) {
    const ItemsetsWithTids maximal =
        Flatten(MineItemsets(bags, Options(minsup, ItemsetKind::kMaximal)));
    const ItemsetsWithTids closed =
        Flatten(MineItemsets(bags, Options(minsup, ItemsetKind::kClosed)));
    EXPECT_TRUE(std::includes(closed.begin(), closed.end(), maximal.begin(),
                              maximal.end()));
    EXPECT_GT(closed.size(), maximal.size());
  }
}

}  // namespace
}  // namespace yver::mining

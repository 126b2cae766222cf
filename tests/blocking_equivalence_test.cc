// Equivalence of the blocking stage's batch kernels with the serial code
// they replaced: grouped-bitset support sets (blocking::GroupedSupports)
// against per-itemset posting intersections (data::InvertedIndex::
// Support), and the stamp-array sparse-neighborhood threshold
// (blocking::ComputeMinThreshold) against the unordered_set version kept
// in tests/support/reference_min_threshold.h.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/block.h"
#include "blocking/neighborhood.h"
#include "blocking/support_sets.h"
#include "data/inverted_index.h"
#include "data/item_dictionary.h"
#include "mining/itemset.h"
#include "support/reference_min_threshold.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yver::blocking {
namespace {

std::vector<std::unique_ptr<util::ThreadPool>> PoolMatrix() {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (size_t n : {1, 2, 8}) {
    pools.push_back(std::make_unique<util::ThreadPool>(n));
  }
  return pools;
}

size_t Threads(const std::unique_ptr<util::ThreadPool>& pool) {
  return pool ? pool->num_threads() : 0;
}

// ---------------------------------------------------------------------------
// Grouped-bitset supports

// Bags over `num_records` records in which item k of `rare_sizes` (ids
// 0, 1, ...) occurs in exactly rare_sizes[k] records, so it is the
// rarest item of every itemset that holds it and its postings fill
// exactly that many bits; ids from rare_sizes.size() on are common items
// at mixed densities.
struct Corpus {
  std::vector<data::ItemBag> bags;
  size_t num_items = 0;
};

Corpus MakeCorpus(util::Rng& rng, size_t num_records,
                  const std::vector<size_t>& rare_sizes,
                  size_t num_common) {
  Corpus corpus;
  corpus.num_items = rare_sizes.size() + num_common;
  corpus.bags.resize(num_records);
  std::vector<data::RecordIdx> order(num_records);
  for (size_t r = 0; r < num_records; ++r) {
    order[r] = static_cast<data::RecordIdx>(r);
  }
  for (size_t k = 0; k < rare_sizes.size(); ++k) {
    rng.Shuffle(order);
    for (size_t i = 0; i < rare_sizes[k]; ++i) {
      corpus.bags[order[i]].push_back(static_cast<data::ItemId>(k));
    }
  }
  for (size_t c = 0; c < num_common; ++c) {
    const double density = 0.5 + 0.45 * rng.UniformDouble();
    for (auto& bag : corpus.bags) {
      if (rng.Bernoulli(density)) {
        bag.push_back(static_cast<data::ItemId>(rare_sizes.size() + c));
      }
    }
  }
  for (auto& bag : corpus.bags) std::sort(bag.begin(), bag.end());
  return corpus;
}

void ExpectMatchesIndex(const Corpus& corpus,
                        const std::vector<mining::FrequentItemset>& itemsets) {
  data::InvertedIndex index(corpus.bags, corpus.num_items);
  for (const auto& pool : PoolMatrix()) {
    std::vector<std::vector<data::RecordIdx>> supports =
        GroupedSupports(index, corpus.bags, itemsets, pool.get());
    ASSERT_EQ(supports.size(), itemsets.size());
    for (size_t i = 0; i < itemsets.size(); ++i) {
      EXPECT_EQ(supports[i], index.Support(itemsets[i].items))
          << "itemset " << i << " at " << Threads(pool) << " threads";
    }
  }
}

std::vector<data::ItemId> RandomCommonItems(util::Rng& rng, size_t first,
                                            size_t count, double p) {
  std::vector<data::ItemId> items;
  for (size_t c = 0; c < count; ++c) {
    if (rng.Bernoulli(p)) items.push_back(static_cast<data::ItemId>(first + c));
  }
  return items;
}

TEST(GroupedSupportsEquivalenceTest, PostingSizesAroundWordBoundaries) {
  util::Rng rng(31);
  const std::vector<size_t> rare_sizes = {1, 63, 64, 65, 128};
  const size_t num_common = 12;
  Corpus corpus = MakeCorpus(rng, 300, rare_sizes, num_common);
  std::vector<mining::FrequentItemset> itemsets;
  for (size_t k = 0; k < rare_sizes.size(); ++k) {
    const auto rare = static_cast<data::ItemId>(k);
    itemsets.push_back({{rare}, 0});  // single-item: the whole posting list
    for (int i = 0; i < 40; ++i) {
      std::vector<data::ItemId> items = RandomCommonItems(
          rng, rare_sizes.size(), num_common, 0.1 + 0.05 * (i % 8));
      items.insert(items.begin(), rare);
      itemsets.push_back({std::move(items), 0});
    }
  }
  // Itemsets of common items only, and a single common item.
  for (int i = 0; i < 30; ++i) {
    std::vector<data::ItemId> items =
        RandomCommonItems(rng, rare_sizes.size(), num_common, 0.3);
    if (items.empty()) items.push_back(static_cast<data::ItemId>(5));
    itemsets.push_back({std::move(items), 0});
  }
  itemsets.push_back(
      {{static_cast<data::ItemId>(rare_sizes.size() + 2)}, 0});
  itemsets.push_back({{}, 0});  // supports nothing
  ExpectMatchesIndex(corpus, itemsets);
}

TEST(GroupedSupportsEquivalenceTest, LargeGroupsAndRandomCorpora) {
  util::Rng rng(57);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<size_t> rare_sizes;
    const size_t num_rare = static_cast<size_t>(rng.UniformInt(1, 6));
    const size_t num_records = static_cast<size_t>(rng.UniformInt(2, 260));
    for (size_t k = 0; k < num_rare; ++k) {
      rare_sizes.push_back(
          static_cast<size_t>(rng.UniformInt(1, num_records)));
    }
    const size_t num_common = static_cast<size_t>(rng.UniformInt(1, 20));
    Corpus corpus = MakeCorpus(rng, num_records, rare_sizes, num_common);
    std::vector<mining::FrequentItemset> itemsets;
    // One group with many itemsets: they all share rare item 0.
    for (int i = 0; i < 200; ++i) {
      std::vector<data::ItemId> items =
          RandomCommonItems(rng, num_rare, num_common, 0.25);
      items.insert(items.begin(), 0);
      itemsets.push_back({std::move(items), 0});
    }
    for (int i = 0; i < 60; ++i) {
      std::vector<data::ItemId> items;
      for (size_t k = 0; k < corpus.num_items; ++k) {
        if (rng.Bernoulli(0.2)) items.push_back(static_cast<data::ItemId>(k));
      }
      if (items.empty()) items.push_back(0);
      itemsets.push_back({std::move(items), 0});
    }
    ExpectMatchesIndex(corpus, itemsets);
  }
}

TEST(GroupedSupportsEquivalenceTest, NoItemsets) {
  std::vector<data::ItemBag> bags = {{0, 1}, {1}};
  data::InvertedIndex index(bags, 2);
  util::ThreadPool pool(2);
  EXPECT_TRUE(GroupedSupports(index, bags, {}, &pool).empty());
  EXPECT_TRUE(GroupedSupports(index, bags, {}, nullptr).empty());
}

// ---------------------------------------------------------------------------
// Stamp-array minimum threshold

TEST(MinThresholdEquivalenceTest, MatchesUnorderedSetVersionWithScoreTies) {
  util::Rng rng(99);
  size_t raised = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const size_t num_records = static_cast<size_t>(rng.UniformInt(2, 80));
    const size_t num_blocks = static_cast<size_t>(rng.UniformInt(0, 120));
    // Few distinct scores, so many blocks of one record tie.
    const int num_scores = static_cast<int>(rng.UniformInt(1, 4));
    std::vector<Block> blocks(num_blocks);
    for (Block& block : blocks) {
      const size_t size = static_cast<size_t>(
          rng.UniformInt(2, std::min<int64_t>(12, num_records)));
      while (block.records.size() < size) {
        block.records.push_back(static_cast<data::RecordIdx>(
            rng.UniformInt(0, static_cast<int64_t>(num_records) - 1)));
        std::sort(block.records.begin(), block.records.end());
        block.records.erase(
            std::unique(block.records.begin(), block.records.end()),
            block.records.end());
      }
      block.score = 0.1 * static_cast<double>(rng.UniformInt(1, num_scores));
    }
    const double ng = 1.0 + 0.5 * static_cast<double>(rng.UniformInt(0, 6));
    const auto minsup = static_cast<uint32_t>(rng.UniformInt(2, 5));
    const double expected =
        ReferenceComputeMinThreshold(blocks, num_records, ng, minsup);
    EXPECT_EQ(ComputeMinThreshold(blocks, num_records, ng, minsup), expected)
        << "trial " << trial;
    if (expected > 0.0) ++raised;
  }
  EXPECT_GT(raised, 50u);  // the cap must actually bind
}

// Only the hub record sits in more than one block, so it alone can raise
// the threshold — at either end of the record range.
TEST(MinThresholdEquivalenceTest, HubRecordAtEitherEnd) {
  const size_t num_records = 40;
  for (data::RecordIdx hub : {data::RecordIdx{0}, data::RecordIdx{39}}) {
    std::vector<Block> blocks;
    data::RecordIdx next = hub == 0 ? 1 : 0;
    for (int k = 0; k < 13; ++k) {
      Block block;
      block.records = {hub, next, static_cast<data::RecordIdx>(next + 1)};
      std::sort(block.records.begin(), block.records.end());
      next += 2;
      block.score = 0.9 - 0.05 * (k % 3);
      blocks.push_back(std::move(block));
    }
    const double expected =
        ReferenceComputeMinThreshold(blocks, num_records, 2.0, 2);
    EXPECT_GT(expected, 0.0);
    EXPECT_EQ(ComputeMinThreshold(blocks, num_records, 2.0, 2), expected)
        << "hub " << hub;
  }
}

}  // namespace
}  // namespace yver::blocking

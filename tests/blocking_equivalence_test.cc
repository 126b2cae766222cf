// Equivalence of the blocking stage with the code it replaced: RunMfiBlocks
// against the FPMax / FPClose + GroupedSupports run kept in
// tests/support/reference_mfi_blocks.h, the grouped-bitset support sets of
// that oracle (blocking::GroupedSupports) against per-itemset posting
// intersections (data::InvertedIndex::Support), and the stamp-array
// sparse-neighborhood threshold (blocking::ComputeMinThreshold) against
// the unordered_set version kept in tests/support/reference_min_threshold.h,
// including its independence of block order and of the pool size.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/block.h"
#include "blocking/mfi_blocks.h"
#include "blocking/neighborhood.h"
#include "data/item_dictionary.h"
#include "mining/itemset.h"
#include "support/reference_grouped_supports.h"
#include "support/reference_inverted_index.h"
#include "support/reference_mfi_blocks.h"
#include "support/reference_min_threshold.h"
#include "synth/generator.h"
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

// Every threshold test runs with no pool and on pools of 1, 2 and 8
// workers; each result must carry the serial reference's bits.
void ExpectSameBits(double got, double expected, const std::string& context,
                    const std::unique_ptr<util::ThreadPool>& pool) {
  EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
      << context << " (" << Threads(pool) << " threads): " << got << " vs "
      << expected;
}

TEST(MinThresholdEquivalenceTest, MatchesUnorderedSetVersionWithScoreTies) {
  const auto pools = PoolMatrix();
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
    for (const auto& pool : pools) {
      ExpectSameBits(
          ComputeMinThreshold(blocks, num_records, ng, minsup, pool.get()),
          expected, "trial " + std::to_string(trial), pool);
    }
    if (expected > 0.0) ++raised;
  }
  EXPECT_GT(raised, 50u);  // the cap must actually bind
}

// Only the hub record sits in more than one block, so it alone can raise
// the threshold — at either end of the record range.
TEST(MinThresholdEquivalenceTest, HubRecordAtEitherEnd) {
  const auto pools = PoolMatrix();
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
    for (const auto& pool : pools) {
      ExpectSameBits(ComputeMinThreshold(blocks, num_records, 2.0, 2,
                                         pool.get()),
                     expected, "hub " + std::to_string(hub), pool);
    }
  }
}

// MFIBlocks' block order within an iteration is the miner's, so the
// threshold must not depend on it: a tie group of equal-score blocks
// overflows a record's cap iff their union does, whichever block comes
// first. Shuffled block lists with many ties and hub records must give
// the reference's threshold on the unshuffled list, bit for bit.
TEST(MinThresholdEquivalenceTest, OrderInvariantUnderPermutations) {
  const auto pools = PoolMatrix();
  util::Rng rng(2024);
  size_t raised = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const size_t num_records = static_cast<size_t>(rng.UniformInt(4, 60));
    const size_t num_blocks = static_cast<size_t>(rng.UniformInt(1, 90));
    const auto num_hubs = static_cast<int64_t>(rng.UniformInt(1, 3));
    const int num_scores = static_cast<int>(rng.UniformInt(1, 3));
    std::vector<Block> blocks(num_blocks);
    for (Block& block : blocks) {
      // Most blocks hold a hub, so hubs collect many tied blocks.
      if (rng.Bernoulli(0.8)) {
        block.records.push_back(
            static_cast<data::RecordIdx>(rng.UniformInt(0, num_hubs - 1)));
      }
      const size_t size = static_cast<size_t>(
          rng.UniformInt(2, std::min<int64_t>(8, num_records)));
      while (block.records.size() < size) {
        block.records.push_back(static_cast<data::RecordIdx>(
            rng.UniformInt(0, static_cast<int64_t>(num_records) - 1)));
        std::sort(block.records.begin(), block.records.end());
        block.records.erase(
            std::unique(block.records.begin(), block.records.end()),
            block.records.end());
      }
      block.score = 0.25 * static_cast<double>(rng.UniformInt(1, num_scores));
    }
    const double ng = 1.0 + 0.5 * static_cast<double>(rng.UniformInt(0, 4));
    const auto minsup = static_cast<uint32_t>(rng.UniformInt(2, 4));
    const double expected =
        ReferenceComputeMinThreshold(blocks, num_records, ng, minsup);
    if (expected > 0.0) ++raised;
    for (int shuffle = 0; shuffle < 8; ++shuffle) {
      rng.Shuffle(blocks);
      for (const auto& pool : pools) {
        ExpectSameBits(
            ComputeMinThreshold(blocks, num_records, ng, minsup, pool.get()),
            expected,
            "trial " + std::to_string(trial) + " shuffle " +
                std::to_string(shuffle),
            pool);
      }
    }
  }
  EXPECT_GT(raised, 40u);  // the cap must actually bind
}

// ---------------------------------------------------------------------------
// RunMfiBlocks against the FP-Growth + GroupedSupports oracle

data::EncodedDataset GenerateCorpus(size_t num_persons) {
  synth::GeneratorConfig config = synth::ItalyConfig();
  config.num_persons = num_persons;
  config.include_mv = true;
  config.seed = 23;
  return data::EncodeDataset(synth::Generate(config).dataset);
}

const data::EncodedDataset& GeneratedCorpus() {
  static const auto* encoded = new data::EncodedDataset(GenerateCorpus(900));
  return *encoded;
}

std::vector<Block> SortedBlocks(std::vector<Block> blocks) {
  std::sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
    if (a.minsup_level != b.minsup_level) {
      return a.minsup_level > b.minsup_level;
    }
    return a.records < b.records;
  });
  return blocks;
}

// Pairs must match field by field (score bits and minsup level included;
// the struct's padding is not compared), blocks as a multiset: within an iteration the miner emits them in its
// own order.
void ExpectMatchesOracle(const MfiBlocksConfig& config) {
  const data::EncodedDataset& encoded = GeneratedCorpus();
  const MfiBlocksResult expected = ReferenceRunMfiBlocks(encoded, config);
  ASSERT_GT(expected.pairs.size(), 100u);
  for (const auto& pool : PoolMatrix()) {
    const MfiBlocksResult got = RunMfiBlocks(encoded, config, pool.get());
    const size_t threads = Threads(pool);
    ASSERT_EQ(got.pairs.size(), expected.pairs.size()) << threads;
    size_t mismatches = 0;
    for (size_t i = 0; i < got.pairs.size(); ++i) {
      const CandidatePair& a = got.pairs[i];
      const CandidatePair& b = expected.pairs[i];
      if (!(a.pair == b.pair) || a.minsup_level != b.minsup_level ||
          std::memcmp(&a.block_score, &b.block_score, sizeof(double)) != 0) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << "pairs differ at " << threads << " threads";
    EXPECT_EQ(SortedBlocks(got.blocks), SortedBlocks(expected.blocks))
        << threads;
    EXPECT_EQ(got.num_mfis_mined, expected.num_mfis_mined) << threads;
    EXPECT_EQ(got.num_blocks_considered, expected.num_blocks_considered)
        << threads;
    EXPECT_EQ(got.num_records_covered, expected.num_records_covered)
        << threads;
  }
}

TEST(MfiBlocksOracleEquivalenceTest, MaximalMatchesFpMaxRun) {
  MfiBlocksConfig config;
  config.max_minsup = 5;
  config.ng = 3.5;
  config.expert_weighting = true;
  ExpectMatchesOracle(config);
  config.prune_frequent_fraction = 0.002;
  config.score_kind = BlockScoreKind::kExpertSim;
  ExpectMatchesOracle(config);
}

TEST(MfiBlocksOracleEquivalenceTest, ClosedMatchesFpCloseRun) {
  MfiBlocksConfig config;
  config.max_minsup = 5;
  config.ng = 3.5;
  config.expert_weighting = true;
  config.itemset_kind = ItemsetKind::kClosed;
  ExpectMatchesOracle(config);
}

// The closed run keys every distinct support set, so its first iteration
// (all records uncovered in both runs) considers every maximal block's
// record set and more.
TEST(MfiBlocksOracleEquivalenceTest, ClosedBlocksContainMaximalBlocks) {
  // Small: without a cap, blocks reach hundreds of records.
  const data::EncodedDataset encoded = GenerateCorpus(300);
  MfiBlocksConfig config;
  config.max_minsup = 3;
  config.ng = 1e6;  // no size cap and no threshold: every block is kept
  config.expert_weighting = true;
  const MfiBlocksResult maximal = RunMfiBlocks(encoded, config);
  config.itemset_kind = ItemsetKind::kClosed;
  const MfiBlocksResult closed = RunMfiBlocks(encoded, config);
  std::vector<std::vector<data::RecordIdx>> closed_sets;
  for (const Block& b : closed.blocks) {
    if (b.minsup_level == config.max_minsup) closed_sets.push_back(b.records);
  }
  std::sort(closed_sets.begin(), closed_sets.end());
  size_t checked = 0;
  for (const Block& b : maximal.blocks) {
    if (b.minsup_level != config.max_minsup) continue;
    EXPECT_TRUE(std::binary_search(closed_sets.begin(), closed_sets.end(),
                                   b.records));
    ++checked;
  }
  EXPECT_GT(checked, 50u);
  EXPECT_GT(closed_sets.size(), checked);
}

}  // namespace
}  // namespace yver::blocking

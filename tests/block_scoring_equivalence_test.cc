// The ClusterJaccard scorer (blocking::ClusterJaccardScore) against its
// executable specification in tests/support/reference_block_scoring.h:
// a std::set union, per-attribute item counts, and the weighted sums
// taken in AttributeId order. Scores are compared with memcmp, never with
// a tolerance.
//
// Blocks come from two places: every block MFIBlocks mines in every
// minsup iteration of a generated corpus (the blocks RunMfiBlocks scores,
// kept or not), and random record subsets of the same corpus and of a
// wide one, whose members share items and whose unions run from a
// handful of items to thousands.
//
// Two more properties: the score does not depend on the order of a
// block's records or on the ids the dictionary gave the items (the sums
// were once taken in a hash table's iteration order), and it stays within
// a small relative error of that hash-ordered score, which
// tests/support keeps to bound the change.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/block.h"
#include "blocking/block_scoring.h"
#include "blocking/item_similarity.h"
#include "blocking/mfi_blocks.h"
#include "blocking/neighborhood.h"
#include "data/item_dictionary.h"
#include "mining/vertical_miner.h"
#include "support/reference_block_scoring.h"
#include "support/reference_min_threshold.h"
#include "synth/generator.h"
#include "util/rng.h"

namespace yver::blocking {
namespace {

// The largest relative difference allowed between a score and the
// hash-ordered score it replaced: both are ratios of sums of at most a
// few thousand positive terms, each rounded once per addition.
constexpr double kMaxRelativeError = 1e-12;

const data::EncodedDataset& Corpus() {
  static const auto* encoded = [] {
    synth::GeneratorConfig config = synth::ItalyConfig();
    config.num_persons = 900;
    config.include_mv = true;
    config.seed = 31;
    return new data::EncodedDataset(
        data::EncodeDataset(synth::Generate(config).dataset));
  }();
  return *encoded;
}

struct NamedWeights {
  std::string name;
  AttributeWeights weights;
};

std::vector<NamedWeights> WeightSets() {
  return {{"uniform", UniformWeights()}, {"expert", DefaultExpertWeights()}};
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double RelativeError(double got, double base) {
  if (got == base) return 0.0;
  return std::abs(got - base) / std::max(std::abs(base), 1e-300);
}

// Scores `block` with the production scorer on the caller's stamp array
// and with the reference, and returns whether the bits agree. Also checks
// the one-off overload and the bound against the hash-ordered score.
bool SameScore(const data::EncodedDataset& encoded, const Block& block,
               const AttributeWeights& weights, std::vector<uint32_t>& stamp,
               uint32_t mark, double* got, double* expected) {
  *expected = ReferenceClusterJaccardScore(encoded, block, weights);
  *got = ClusterJaccardScore(encoded, block, weights, stamp, mark);
  EXPECT_TRUE(SameBits(ClusterJaccardScore(encoded, block, weights), *got));
  EXPECT_LE(RelativeError(*got, UnorderedSetClusterJaccardScore(
                                    encoded, block, weights)),
            kMaxRelativeError);
  return SameBits(*got, *expected);
}

// The MFIBlocks iterations as RunMfiBlocks runs them — mine the
// uncovered records, score, threshold, cover the kept blocks' records —
// with every mined block scored both ways before the threshold drops any.
// Each iteration reuses one stamp array from zero and marks block i with
// i + 1, as a RunMfiBlocks worker does.
TEST(BlockScoringEquivalenceTest, EveryBlockOfEveryIteration) {
  const data::EncodedDataset& encoded = Corpus();
  const size_t n = encoded.bags.size();
  const MfiBlocksConfig config;
  for (const NamedWeights& w : WeightSets()) {
    std::vector<bool> covered(n, false);
    size_t compared = 0;
    size_t iterations = 0;
    for (uint32_t minsup = config.max_minsup; minsup >= 2; --minsup) {
      std::vector<data::RecordIdx> uncovered;
      for (size_t r = 0; r < n; ++r) {
        if (!covered[r]) uncovered.push_back(static_cast<data::RecordIdx>(r));
      }
      if (uncovered.size() < minsup) continue;
      mining::MinerOptions options;
      options.minsup = minsup;
      options.max_support =
          static_cast<uint32_t>(NgCap(config.ng, minsup));
      mining::MinedItemsets mined =
          mining::MineItemsets(encoded.bags, uncovered, options);
      std::vector<Block> blocks;
      for (auto& slot : mined.by_root) {
        for (mining::SupportedItemset& set : slot) {
          Block& block = blocks.emplace_back();
          block.key = std::move(set.items);
          block.records = std::move(set.tids);
          block.minsup_level = minsup;
        }
      }
      ++iterations;
      std::vector<uint32_t> stamp(encoded.dictionary.size(), 0);
      for (size_t i = 0; i < blocks.size(); ++i) {
        Block& block = blocks[i];
        double got = 0.0;
        double expected = 0.0;
        ASSERT_TRUE(SameScore(encoded, block, w.weights, stamp,
                              static_cast<uint32_t>(i) + 1, &got, &expected))
            << w.name << " minsup " << minsup << ": " << got << " vs "
            << expected;
        block.score = expected;
        ++compared;
      }
      const double min_th =
          ReferenceComputeMinThreshold(blocks, n, config.ng, minsup);
      for (const Block& block : blocks) {
        if (block.score <= min_th) continue;
        for (data::RecordIdx r : block.records) covered[r] = true;
      }
    }
    EXPECT_GE(iterations, 3u) << w.name;
    EXPECT_GT(compared, 500u) << w.name;
  }
}

// A corpus far wider than the generated one: `num_items` items spread
// over every attribute, each bag a few items from a small shared pool
// plus many from the whole range, so blocks of many records have unions
// of thousands of items.
data::EncodedDataset WideCorpus(util::Rng& rng, size_t num_records,
                                size_t num_items) {
  data::EncodedDataset encoded;
  const auto& attributes = data::AllAttributes();
  for (size_t i = 0; i < num_items; ++i) {
    encoded.dictionary.Intern(attributes[i % attributes.size()],
                              std::to_string(i));
  }
  const auto last = static_cast<int64_t>(num_items) - 1;
  for (size_t r = 0; r < num_records; ++r) {
    data::ItemBag bag;
    for (int k = 0; k < 8; ++k) {
      bag.push_back(static_cast<data::ItemId>(rng.UniformInt(0, 63)));
    }
    for (int k = 0; k < 60; ++k) {
      bag.push_back(static_cast<data::ItemId>(rng.UniformInt(0, last)));
    }
    std::sort(bag.begin(), bag.end());
    bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
    encoded.bags.push_back(std::move(bag));
  }
  return encoded;
}

// A random block of `encoded`: mostly small, every fifth one a large
// slice of the corpus; the key is some items of the first member's bag
// (possibly none).
Block RandomBlock(const data::EncodedDataset& encoded, util::Rng& rng,
                  int trial) {
  const auto n = static_cast<int64_t>(encoded.bags.size());
  Block block;
  const int64_t size =
      trial % 5 == 4 ? rng.UniformInt(n / 4, n) : rng.UniformInt(1, 40);
  for (int64_t i = 0; i < size; ++i) {
    block.records.push_back(
        static_cast<data::RecordIdx>(rng.UniformInt(0, n - 1)));
  }
  std::sort(block.records.begin(), block.records.end());
  block.records.erase(std::unique(block.records.begin(), block.records.end()),
                      block.records.end());
  for (data::ItemId id : encoded.bags[block.records.front()]) {
    if (rng.Bernoulli(0.5)) block.key.push_back(id);
  }
  return block;
}

// Random record subsets, on the generated corpus and on a wide one:
// members share items, single-record blocks score their own bag, and the
// largest unions hold thousands of items. One stamp array serves every
// block of a corpus, each with its own mark.
TEST(BlockScoringEquivalenceTest, RandomBlocksIncludingWideUnions) {
  util::Rng rng(77);
  const data::EncodedDataset wide = WideCorpus(rng, 600, 20000);
  size_t wide_unions = 0;
  for (const data::EncodedDataset* encoded : {&Corpus(), &wide}) {
    std::vector<uint32_t> stamp(encoded->dictionary.size(), 0);
    uint32_t mark = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const Block block = RandomBlock(*encoded, rng, trial);
      size_t union_size = 0;
      for (const NamedWeights& w : WeightSets()) {
        double got = 0.0;
        double expected = 0.0;
        ++mark;
        EXPECT_TRUE(SameScore(*encoded, block, w.weights, stamp, mark, &got,
                              &expected))
            << w.name << " trial " << trial << " (" << block.records.size()
            << " records): " << got << " vs " << expected;
        union_size = static_cast<size_t>(
            std::count(stamp.begin(), stamp.end(), mark));
      }
      if (union_size >= 2000) ++wide_unions;
    }
  }
  EXPECT_GE(wide_unions, 30u);
}

// A zero-weight union scores 0 both ways; weights that zero out some
// attributes but not others still match bit for bit.
TEST(BlockScoringEquivalenceTest, ZeroAndPartialWeights) {
  const data::EncodedDataset& encoded = Corpus();
  AttributeWeights zero{};
  AttributeWeights partial = DefaultExpertWeights();
  for (size_t a = 0; a < partial.size(); a += 2) partial[a] = 0.0;
  std::vector<uint32_t> stamp(encoded.dictionary.size(), 0);
  util::Rng rng(5);
  for (uint32_t trial = 0; trial < 100; ++trial) {
    Block block;
    const auto first = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(encoded.bags.size()) - 8));
    for (data::RecordIdx r = first; r < first + 8; ++r) {
      block.records.push_back(r);
    }
    block.key = encoded.bags[first];
    double got = 0.0;
    double expected = 0.0;
    EXPECT_TRUE(SameScore(encoded, block, zero, stamp, 2 * trial + 1, &got,
                          &expected));
    EXPECT_EQ(got, 0.0);
    EXPECT_TRUE(SameScore(encoded, block, partial, stamp, 2 * trial + 2, &got,
                          &expected))
        << "trial " << trial << ": " << got << " vs " << expected;
  }
}

// `encoded` with its dictionary interned in another item order: new item
// j is old item order[j], and every bag is remapped and re-sorted.
// `to_new` receives the old-to-new id map.
data::EncodedDataset Reinterned(const data::EncodedDataset& encoded,
                                const std::vector<data::ItemId>& order,
                                std::vector<data::ItemId>* to_new) {
  data::EncodedDataset out;
  to_new->assign(encoded.dictionary.size(), 0);
  for (data::ItemId old_id : order) {
    (*to_new)[old_id] = out.dictionary.Intern(
        encoded.dictionary.attribute(old_id),
        encoded.dictionary.value(old_id));
  }
  for (const data::ItemBag& bag : encoded.bags) {
    data::ItemBag& remapped = out.bags.emplace_back();
    for (data::ItemId id : bag) remapped.push_back((*to_new)[id]);
    std::sort(remapped.begin(), remapped.end());
  }
  return out;
}

// The same blocks score the same bits with their records permuted, and
// on a dictionary that interned the same items in reverse or shuffled
// order. A sum taken in a hash table's iteration order (or in item id
// order) moves with the ids; the run checks that the hash-ordered scorer
// in tests/support does move on these blocks, so the property has teeth.
TEST(BlockScoringEquivalenceTest,
     SameBitsUnderPermutedRecordsAndReinternedItems) {
  const data::EncodedDataset& encoded = Corpus();
  const size_t num_items = encoded.dictionary.size();
  util::Rng rng(101);
  std::vector<Block> blocks;
  for (int trial = 0; trial < 300; ++trial) {
    blocks.push_back(RandomBlock(encoded, rng, trial));
  }
  std::vector<data::ItemId> reversed(num_items);
  for (size_t i = 0; i < num_items; ++i) {
    reversed[i] = static_cast<data::ItemId>(num_items - 1 - i);
  }
  std::vector<data::ItemId> shuffled(reversed);
  rng.Shuffle(shuffled);
  const AttributeWeights weights = DefaultExpertWeights();
  size_t hash_order_moved = 0;
  for (const std::vector<data::ItemId>& order : {reversed, shuffled}) {
    std::vector<data::ItemId> to_new;
    const data::EncodedDataset other = Reinterned(encoded, order, &to_new);
    for (size_t i = 0; i < blocks.size(); ++i) {
      const Block& block = blocks[i];
      const double base = ClusterJaccardScore(encoded, block, weights);

      Block permuted = block;
      rng.Shuffle(permuted.records);
      EXPECT_TRUE(
          SameBits(ClusterJaccardScore(encoded, permuted, weights), base))
          << "block " << i << " with its records permuted";

      Block renamed = block;
      for (data::ItemId& id : renamed.key) id = to_new[id];
      std::sort(renamed.key.begin(), renamed.key.end());
      EXPECT_TRUE(SameBits(ClusterJaccardScore(other, renamed, weights), base))
          << "block " << i << " on the re-interned dictionary";

      if (!SameBits(UnorderedSetClusterJaccardScore(other, renamed, weights),
                    UnorderedSetClusterJaccardScore(encoded, block, weights))) {
        ++hash_order_moved;
      }
    }
  }
  EXPECT_GT(hash_order_moved, 0u);
}

}  // namespace
}  // namespace yver::blocking

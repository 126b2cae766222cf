// Bit-identity of the arena-backed ClusterJaccard scorer
// (blocking::ClusterJaccardScore) with the plain std::unordered_set
// scorer kept in tests/support/reference_block_scoring.h. The union weight
// is summed in the set's iteration order, so any change to the container,
// its hash or its rehash policy would move the last bits of a score; the
// scores are compared with memcmp, never with a tolerance.
//
// Blocks come from two places: every block MFIBlocks mines in every
// minsup iteration of a generated corpus (the blocks RunMfiBlocks scores,
// kept or not), and random record subsets of the same corpus, whose
// members share items and whose unions run from a handful of items to
// far more than the scorer's stack arena holds.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory_resource>
#include <string>
#include <unordered_set>
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

// Scores `block` both ways and returns whether the bits agree.
bool SameScore(const data::EncodedDataset& encoded, const Block& block,
               const AttributeWeights& weights, double* got,
               double* expected) {
  *expected = ReferenceClusterJaccardScore(encoded, block, weights);
  *got = ClusterJaccardScore(encoded, block, weights);
  return std::memcmp(got, expected, sizeof(double)) == 0;
}

// A memory resource that only counts what is asked of it.
class CountingResource : public std::pmr::memory_resource {
 public:
  size_t allocations = 0;

 private:
  void* do_allocate(size_t bytes, size_t alignment) override {
    ++allocations;
    return std::pmr::new_delete_resource()->allocate(bytes, alignment);
  }
  void do_deallocate(void* p, size_t bytes, size_t alignment) override {
    std::pmr::new_delete_resource()->deallocate(p, bytes, alignment);
  }
  bool do_is_equal(const memory_resource& other) const noexcept override {
    return this == &other;
  }
};

// Whether the block's union set outgrows the scorer's 64 KB stack arena:
// the same set built over a buffer of that size whose upstream counts.
bool SpillsArena(const data::EncodedDataset& encoded, const Block& block) {
  std::vector<std::byte> buffer(64 * 1024);
  CountingResource upstream;
  {
    std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size(),
                                              &upstream);
    std::pmr::unordered_set<data::ItemId> uni(&arena);
    for (data::RecordIdx r : block.records) {
      for (data::ItemId id : encoded.bags[r]) uni.insert(id);
    }
  }
  return upstream.allocations > 0;
}

// The MFIBlocks iterations as RunMfiBlocks runs them — mine the
// uncovered records, score, threshold, cover the kept blocks' records —
// with every mined block scored both ways before the threshold drops any.
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
      for (Block& block : blocks) {
        double got = 0.0;
        double expected = 0.0;
        ASSERT_TRUE(SameScore(encoded, block, w.weights, &got, &expected))
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

// Random record subsets, on the generated corpus and on a wide one:
// members share items, single-record blocks score their own bag, and the
// largest unions outgrow the 64 KB stack arena, so the set's nodes and
// bucket arrays spill to the heap mid-build.
TEST(BlockScoringEquivalenceTest, RandomBlocksIncludingArenaSpills) {
  util::Rng rng(77);
  const data::EncodedDataset wide = WideCorpus(rng, 600, 20000);
  size_t spilled = 0;
  for (const data::EncodedDataset* encoded : {&Corpus(), &wide}) {
    const auto n = static_cast<int64_t>(encoded->bags.size());
    for (int trial = 0; trial < 200; ++trial) {
      Block block;
      // Mostly small blocks, every fifth one a large slice of the corpus.
      const int64_t size = trial % 5 == 4 ? rng.UniformInt(n / 4, n)
                                          : rng.UniformInt(1, 40);
      for (int64_t i = 0; i < size; ++i) {
        block.records.push_back(
            static_cast<data::RecordIdx>(rng.UniformInt(0, n - 1)));
      }
      std::sort(block.records.begin(), block.records.end());
      block.records.erase(
          std::unique(block.records.begin(), block.records.end()),
          block.records.end());
      // The key: some items of the first member's bag (possibly none).
      for (data::ItemId id : encoded->bags[block.records.front()]) {
        if (rng.Bernoulli(0.5)) block.key.push_back(id);
      }
      if (SpillsArena(*encoded, block)) ++spilled;
      for (const NamedWeights& w : WeightSets()) {
        double got = 0.0;
        double expected = 0.0;
        EXPECT_TRUE(SameScore(*encoded, block, w.weights, &got, &expected))
            << w.name << " trial " << trial << " (" << block.records.size()
            << " records): " << got << " vs " << expected;
      }
    }
  }
  EXPECT_GE(spilled, 30u);
}

// A zero-weight union scores 0 both ways; weights that zero out some
// attributes but not others still match bit for bit.
TEST(BlockScoringEquivalenceTest, ZeroAndPartialWeights) {
  const data::EncodedDataset& encoded = Corpus();
  AttributeWeights zero{};
  AttributeWeights partial = DefaultExpertWeights();
  for (size_t a = 0; a < partial.size(); a += 2) partial[a] = 0.0;
  util::Rng rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    Block block;
    const auto first = static_cast<data::RecordIdx>(
        rng.UniformInt(0, static_cast<int64_t>(encoded.bags.size()) - 8));
    for (data::RecordIdx r = first; r < first + 8; ++r) {
      block.records.push_back(r);
    }
    block.key = encoded.bags[first];
    double got = 0.0;
    double expected = 0.0;
    EXPECT_TRUE(SameScore(encoded, block, zero, &got, &expected));
    EXPECT_EQ(got, 0.0);
    EXPECT_TRUE(SameScore(encoded, block, partial, &got, &expected))
        << "trial " << trial << ": " << got << " vs " << expected;
  }
}

}  // namespace
}  // namespace yver::blocking

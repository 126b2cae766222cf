// Differential harness for the pipeline determinism contract
// (UncertainErPipeline::Run): for a fixed corpus, config, and tagger
// state, every thread count must produce the same result — compared here
// as (a) RankedResolution match vectors, (b) matches-CSV bytes, and
// (c) serve::ResolutionIndex checksums. scripts/check.sh also runs these
// tests under ThreadSanitizer to catch the races that would break the
// contract before they corrupt output.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocking/mfi_blocks.h"
#include "core/incremental.h"
#include "core/pipeline.h"
#include "core/resolution_io.h"
#include "mining/brute_force_miner.h"
#include "mining/vertical_miner.h"
#include "serve/ingest.h"
#include "serve/query.h"
#include "serve/resolution_index.h"
#include "serve/resolution_service.h"
#include "support/strided_queries.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"
#include "util/rng.h"

namespace yver {
namespace {

std::string ReadFileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot read " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// ~2K-record synthetic corpus: small enough for a thread-count matrix
// (and a TSan pass) in seconds, large enough that chunked parallel
// stages actually split work.
const synth::GeneratedData& Corpus() {
  static const synth::GeneratedData* corpus = [] {
    synth::GeneratorConfig config = synth::ItalyConfig();
    config.num_persons = 1000;  // reports ~ 1.9x persons
    config.seed = 11;
    return new synth::GeneratedData(synth::Generate(config));
  }();
  return *corpus;
}

struct RunOutput {
  core::PipelineResult result;
  std::string csv_bytes;
  uint64_t index_checksum = 0;
};

RunOutput RunAtThreads(size_t num_threads) {
  const synth::GeneratedData& corpus = Corpus();
  synth::Gazetteer gazetteer;
  core::UncertainErPipeline pipeline(corpus.dataset,
                                     gazetteer.MakeGeoResolver());
  core::PipelineConfig config = core::RecommendedConfig();
  config.num_threads = num_threads;
  // Fresh oracle per run: the tagger is stateful (its RNG advances per
  // call), and the contract is defined over identical tagger state.
  synth::TagOracle oracle(&corpus.dataset);
  RunOutput out;
  out.result = pipeline.Run(
      config, [&oracle](data::RecordIdx a, data::RecordIdx b) {
        return oracle.Tag(a, b);
      });

  std::string path = ::testing::TempDir() + "determinism_matches_" +
                     std::to_string(num_threads) + ".csv";
  auto saved = core::SaveMatchesCsv(corpus.dataset, out.result.resolution, path);
  EXPECT_TRUE(saved.ok()) << saved.ToString();
  out.csv_bytes = ReadFileBytes(path);

  serve::ResolutionIndex index(out.result.resolution, out.result.num_records);
  out.index_checksum = index.Checksum();
  return out;
}

TEST(DeterminismTest, ThreadCountMatrixProducesIdenticalResolutions) {
  RunOutput serial = RunAtThreads(1);
  ASSERT_FALSE(serial.result.resolution.empty())
      << "corpus produced no matches; the differential test is vacuous";

  for (size_t num_threads : {size_t{2}, size_t{8}}) {
    RunOutput parallel = RunAtThreads(num_threads);
    // (a) The ranked resolution itself: same matches, same order, same
    // bytes in every confidence. Vector equality covers the documented
    // RankedResolution ordering contract, not just the match set.
    EXPECT_EQ(parallel.result.resolution.matches(),
              serial.result.resolution.matches())
        << "resolution diverged at " << num_threads << " threads";
    // (b) The servable CSV artifact, compared as bytes.
    EXPECT_EQ(parallel.csv_bytes, serial.csv_bytes)
        << "matches CSV diverged at " << num_threads << " threads";
    // (c) The binary index artifact, compared by embedded checksum.
    EXPECT_EQ(parallel.index_checksum, serial.index_checksum)
        << "ResolutionIndex checksum diverged at " << num_threads
        << " threads";
    // Candidate generation and training inputs must agree too — if these
    // ever diverge the resolution checks above become hard to debug.
    EXPECT_EQ(parallel.result.candidates.size(),
              serial.result.candidates.size());
    EXPECT_EQ(parallel.result.training_instances.size(),
              serial.result.training_instances.size());
  }
}

TEST(DeterminismTest, ResolutionObeysOrderingContract) {
  RunOutput out = RunAtThreads(8);
  const auto& matches = out.result.resolution.matches();
  for (size_t i = 1; i < matches.size(); ++i) {
    const auto& prev = matches[i - 1];
    const auto& cur = matches[i];
    // Stable-sorted by confidence descending, ties by ascending (a, b).
    EXPECT_GE(prev.confidence, cur.confidence) << "at index " << i;
    if (prev.confidence == cur.confidence) {
      EXPECT_TRUE(prev.pair < cur.pair || prev.pair == cur.pair)
          << "tie not broken by ascending pair at index " << i;
    }
  }
}

// Blocking-stage matrix: RunMfiBlocks must produce identical blocks,
// pairs, and counters for every thread count — the blocking analogue of
// the pipeline matrix above. Every field is compared, so a drift in key
// selection, score, minsup level, or ordering fails loudly.
TEST(DeterminismTest, BlockingThreadMatrixProducesIdenticalResults) {
  const synth::GeneratedData& corpus = Corpus();
  auto encoded = data::EncodeDataset(corpus.dataset);
  blocking::MfiBlocksConfig config;
  config.max_minsup = 5;
  config.ng = 3.5;  // fractional on odd minsup: exercises the NgCap path
  config.expert_weighting = true;

  auto serial = blocking::RunMfiBlocks(encoded, config, nullptr);
  ASSERT_FALSE(serial.pairs.empty())
      << "corpus produced no candidate pairs; the matrix is vacuous";
  ASSERT_FALSE(serial.blocks.empty());

  for (size_t num_threads : {size_t{2}, size_t{8}}) {
    util::ThreadPool pool(num_threads);
    auto parallel = blocking::RunMfiBlocks(encoded, config, &pool);
    EXPECT_EQ(parallel.blocks, serial.blocks)
        << "blocks diverged at " << num_threads << " threads";
    EXPECT_EQ(parallel.pairs, serial.pairs)
        << "pairs diverged at " << num_threads << " threads";
    EXPECT_EQ(parallel.num_mfis_mined, serial.num_mfis_mined);
    EXPECT_EQ(parallel.num_blocks_considered, serial.num_blocks_considered);
    EXPECT_EQ(parallel.num_records_covered, serial.num_records_covered);
  }
}

// The vertical miner's parallel per-root decomposition must agree with
// the brute-force reference miner (itemsets and support sets) AND return
// the byte-identical slots — order included — for every pool size.
TEST(DeterminismTest, ParallelMaximalMinerMatchesBruteForce) {
  util::Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<data::ItemBag> bags;
    size_t num_bags = 12 + static_cast<size_t>(rng.UniformInt(0, 28));
    size_t alphabet = 6 + static_cast<size_t>(rng.UniformInt(0, 10));
    for (size_t t = 0; t < num_bags; ++t) {
      data::ItemBag bag;
      size_t len = 1 + static_cast<size_t>(rng.UniformInt(0, 6));
      for (size_t i = 0; i < len; ++i) {
        bag.push_back(static_cast<data::ItemId>(
            rng.UniformInt(0, static_cast<int64_t>(alphabet) - 1)));
      }
      std::sort(bag.begin(), bag.end());
      bag.erase(std::unique(bag.begin(), bag.end()), bag.end());
      bags.push_back(std::move(bag));
    }
    mining::MinerOptions opts;
    opts.minsup = 2 + static_cast<uint32_t>(rng.UniformInt(0, 2));

    auto serial = mining::MineItemsets(bags, opts, nullptr);
    std::vector<std::vector<data::ItemId>> mined;
    for (const auto& slot : serial.by_root) {
      for (const auto& mfi : slot) {
        mined.push_back(mfi.items);
        EXPECT_EQ(mining::CountSupport(bags, mfi.items), mfi.tids.size());
        for (data::RecordIdx t : mfi.tids) {
          EXPECT_TRUE(mining::IsSubsetOf(mfi.items, bags[t]));
        }
      }
    }
    EXPECT_EQ(mined.size(), serial.num_mined);
    std::vector<std::vector<data::ItemId>> brute;
    for (const auto& fi : mining::BruteForceMaximalItemsets(bags, opts.minsup)) {
      brute.push_back(fi.items);
    }
    std::sort(mined.begin(), mined.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(mined, brute) << "trial " << trial;

    for (size_t num_threads : {size_t{2}, size_t{8}}) {
      util::ThreadPool pool(num_threads);
      auto parallel = mining::MineItemsets(bags, opts, &pool);
      EXPECT_EQ(parallel.by_root, serial.by_root)
          << "trial " << trial << " diverged at " << num_threads
          << " threads";
      EXPECT_EQ(parallel.num_mined, serial.num_mined);
    }
  }
}

// Live-ingest determinism matrix (DESIGN.md §13): the final published
// index is a pure function of (seed corpus, submission order). Splitting
// the same K appends into different batches — one generation per record,
// a couple of coarse waves, or one big batch — and running the service at
// {1, 2, 8} threads with queries in flight must all converge on the
// byte-identical final index checksum. Batch boundaries may change which
// intermediate generations exist, never the bytes of the last one.
TEST(DeterminismTest, IncrementalPublishMatrixConvergesOnOneChecksum) {
  const synth::GeneratedData& corpus = Corpus();
  const size_t total = corpus.dataset.size();
  constexpr size_t kAppends = 24;
  ASSERT_GT(total, kAppends * 2);
  const size_t base_size = total - kAppends;

  data::Dataset base;
  for (data::RecordIdx r = 0; r < base_size; ++r) {
    base.Add(corpus.dataset[r]);
  }

  // Reference: the same appends applied directly to a fresh resolver, no
  // service, no threads — the value every matrix cell must reproduce.
  uint64_t reference = 0;
  {
    core::IncrementalResolver resolver(base, core::RankedResolution(),
                                       ml::AdTree());
    for (size_t i = 0; i < kAppends; ++i) {
      resolver.AddRecord(
          corpus.dataset[static_cast<data::RecordIdx>(base_size + i)]);
    }
    serve::ResolutionIndex final_index(resolver.Resolution(),
                                       resolver.dataset().size());
    reference = final_index.Checksum();
  }

  const std::vector<std::vector<size_t>> splits = {
      {kAppends},                        // one batch, one generation
      {kAppends / 2, kAppends / 2},      // two coarse waves
      std::vector<size_t>(kAppends, 1),  // a generation per record
  };
  for (size_t split_idx = 0; split_idx < splits.size(); ++split_idx) {
    for (size_t num_threads : {size_t{1}, size_t{2}, size_t{8}}) {
      auto initial = std::make_shared<const serve::ResolutionIndex>(
          core::RankedResolution(), base.size());
      auto service = std::make_shared<serve::ResolutionService>(initial);
      auto resolver = std::make_unique<core::IncrementalResolver>(
          base, core::RankedResolution(), ml::AdTree());
      serve::LiveIndexBuilder builder(service, std::move(resolver));

      size_t next = 0;
      for (size_t batch : splits[split_idx]) {
        for (size_t i = 0; i < batch; ++i) {
          auto idx = builder.Submit(corpus.dataset[static_cast<data::RecordIdx>(
              base_size + next)]);
          ASSERT_TRUE(idx.ok()) << idx.status().ToString();
          ++next;
        }
        // The barrier between batches is what makes the splits genuinely
        // different publish histories.
        ASSERT_TRUE(builder.WaitForIdle().ok());
        // Queries in flight against whatever generation is current: they
        // must not perturb the ingest path.
        std::vector<serve::Query> probes;
        for (size_t q = 0; q < 32; ++q) {
          serve::Query probe;
          probe.record = static_cast<data::RecordIdx>(q % base.size());
          probes.push_back(probe);
        }
        serve::QueryStrided(*service, probes, num_threads);
      }
      ASSERT_EQ(next, kAppends);

      auto pin = service->PinIndex();
      EXPECT_EQ(pin->num_records(), total);
      EXPECT_EQ(pin->Checksum(), reference)
          << "split " << split_idx << " at " << num_threads
          << " thread(s) diverged from the reference index";
    }
  }
}

TEST(DeterminismTest, BatchApisMatchScalarPaths) {
  const synth::GeneratedData& corpus = Corpus();
  synth::Gazetteer gazetteer;
  core::UncertainErPipeline pipeline(corpus.dataset,
                                     gazetteer.MakeGeoResolver());
  blocking::MfiBlocksConfig blocking_config;
  blocking_config.expert_weighting = true;
  auto blocked = pipeline.RunBlocking(blocking_config, 1);
  ASSERT_FALSE(blocked.pairs.empty());

  std::vector<data::RecordPair> pairs;
  for (size_t i = 0; i < std::min<size_t>(blocked.pairs.size(), 256); ++i) {
    pairs.push_back(blocked.pairs[i].pair);
  }
  util::ThreadPool pool(4);
  auto batch = pipeline.extractor().ExtractBatch(pairs, &pool);
  ASSERT_EQ(batch.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    auto scalar = pipeline.extractor().Extract(pairs[i].a, pairs[i].b);
    // Compare as bit patterns: NaN (missing) must equal NaN.
    ASSERT_EQ(batch[i].values.size(), scalar.values.size());
    for (size_t f = 0; f < scalar.values.size(); ++f) {
      EXPECT_EQ(std::isnan(batch[i].values[f]), std::isnan(scalar.values[f]))
          << "pair " << i << " feature " << f;
      if (!std::isnan(scalar.values[f])) {
        EXPECT_EQ(batch[i].values[f], scalar.values[f])
            << "pair " << i << " feature " << f;
      }
    }
  }
}

}  // namespace
}  // namespace yver

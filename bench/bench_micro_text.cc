// A2 — Micro-benchmarks (google-benchmark) of the similarity kernels,
// MFI mining, feature extraction and block scoring that dominate
// pipeline runtime.

#include <benchmark/benchmark.h>

#include "blocking/block_scoring.h"
#include "data/item_dictionary.h"
#include "features/feature_extractor.h"
#include "mining/vertical_miner.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "text/jaccard.h"
#include "text/jaro_winkler.h"
#include "text/levenshtein.h"

namespace {

using namespace yver;

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::JaroWinklerSimilarity("kirszenbaum", "kirshenboym"));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_Levenshtein(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::LevenshteinDistance("kirszenbaum", "kirshenboym"));
  }
}
BENCHMARK(BM_Levenshtein);

void BM_QGramJaccard(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        text::QGramJaccard("kirszenbaum", "kirshenboym"));
  }
}
BENCHMARK(BM_QGramJaccard);

void BM_MineMaximal1K(benchmark::State& state) {
  auto generated =
      synth::Generate([] {
        auto c = synth::ItalyConfig();
        c.num_persons = 450;
        return c;
      }());
  auto encoded = data::EncodeDataset(generated.dataset);
  mining::MinerOptions options;
  options.minsup = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::MineItemsets(encoded.bags, options));
  }
}
BENCHMARK(BM_MineMaximal1K)->Arg(2)->Arg(3)->Arg(5);

void BM_FeatureExtraction(benchmark::State& state) {
  auto generated = synth::Generate([] {
    auto c = synth::ItalyConfig();
    c.num_persons = 450;
    return c;
  }());
  synth::Gazetteer gazetteer;
  auto encoded =
      data::EncodeDataset(generated.dataset, gazetteer.MakeGeoResolver());
  features::FeatureExtractor extractor(encoded);
  data::RecordIdx i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(i, i + 1));
    i = (i + 2) % static_cast<data::RecordIdx>(generated.dataset.size() - 2);
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_ClusterJaccardScore(benchmark::State& state) {
  auto generated = synth::Generate([] {
    auto c = synth::ItalyConfig();
    c.num_persons = 450;
    return c;
  }());
  auto encoded = data::EncodeDataset(generated.dataset);
  blocking::Block block;
  block.key = {0, 1};
  for (data::RecordIdx r = 0; r < 6; ++r) block.records.push_back(r);
  auto weights = blocking::DefaultExpertWeights();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        blocking::ClusterJaccardScore(encoded, block, weights));
  }
}
BENCHMARK(BM_ClusterJaccardScore);

}  // namespace

BENCHMARK_MAIN();

// Resolution quality as a regression-checked number. Two fixed-seed
// generated corpora are resolved with core::RecommendedConfig(), and six
// numbers per corpus are compared with the ones committed in
// BENCH_quality.json at the repository root:
//   - MFIBlocks pair completeness (recall of the candidate pairs), pair
//     quality (their precision) and reduction ratio;
//   - precision, recall and F1 of the ranked matches.
// Each must stay within the file's absolute `tolerance`. The corpus sizes
// must match exactly, so a generator change shows up as such and not as
// a quality drift.
//
// A change that moves quality on purpose re-measures both corpora (the
// test prints what it measured) and commits the new numbers with the
// reason. Equivalent CLI runs:
//   yver_cli generate --region italy --out c.csv
//   yver_cli generate --persons 2000 --mv --seed 7 --out c.csv
//   yver_cli resolve --in c.csv --out m.csv

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"

namespace yver {
namespace {

std::string ReadQualityFile() {
  std::ifstream f(YVER_QUALITY_JSON, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot read " << YVER_QUALITY_JSON;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// The number after `"key":` at or after `from` in `json`. The file is a
// fixed shape written by hand, so a key lookup from the corpus's "name"
// onwards is all the parsing it needs.
double NumberAfter(const std::string& json, size_t from,
                   const std::string& key) {
  const std::string quoted = "\"" + key + "\":";
  const size_t at = json.find(quoted, from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "BENCH_quality.json has no \"" << key << "\"";
    return 0.0;
  }
  return std::strtod(json.c_str() + at + quoted.size(), nullptr);
}

struct Quality {
  size_t records = 0;
  double pair_completeness = 0.0;
  double pair_quality = 0.0;
  double reduction_ratio = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
};

Quality Measure(const synth::GeneratorConfig& generator) {
  const synth::GeneratedData corpus = synth::Generate(generator);
  const data::Dataset& dataset = corpus.dataset;
  synth::Gazetteer gazetteer;
  core::UncertainErPipeline pipeline(dataset, gazetteer.MakeGeoResolver());
  core::PipelineConfig config = core::RecommendedConfig();
  config.num_threads = 2;  // output is the same for every thread count
  synth::TagOracle oracle(&dataset);
  const core::PipelineResult result = pipeline.Run(
      config, [&oracle](data::RecordIdx a, data::RecordIdx b) {
        return oracle.Tag(a, b);
      });
  const core::PairQuality blocking =
      core::EvaluatePairs(dataset, result.blocking.pairs);
  const core::PairQuality matches =
      core::EvaluateMatches(dataset, result.resolution.matches());
  Quality q;
  q.records = dataset.size();
  q.pair_completeness = blocking.Recall();
  q.pair_quality = blocking.Precision();
  q.reduction_ratio =
      core::ReductionRatio(dataset.size(), result.blocking.pairs.size());
  q.precision = matches.Precision();
  q.recall = matches.Recall();
  q.f1 = matches.F1();
  return q;
}

void ExpectWithinGate(const std::string& name,
                      const synth::GeneratorConfig& generator) {
  const std::string json = ReadQualityFile();
  const size_t at = json.find("\"name\": \"" + name + "\"");
  ASSERT_NE(at, std::string::npos)
      << "BENCH_quality.json has no corpus \"" << name << "\"";
  const double tolerance = NumberAfter(json, 0, "tolerance");
  ASSERT_GT(tolerance, 0.0);
  ASSERT_LE(tolerance, 0.01);

  const Quality got = Measure(generator);
  std::printf(
      "quality %s: records %zu pair_completeness %.6f pair_quality %.6f "
      "reduction_ratio %.6f precision %.6f recall %.6f f1 %.6f\n",
      name.c_str(), got.records, got.pair_completeness, got.pair_quality,
      got.reduction_ratio, got.precision, got.recall, got.f1);

  EXPECT_EQ(got.records,
            static_cast<size_t>(NumberAfter(json, at, "records")))
      << name << ": the generated corpus changed";
  const struct {
    const char* key;
    double value;
  } metrics[] = {
      {"pair_completeness", got.pair_completeness},
      {"pair_quality", got.pair_quality},
      {"reduction_ratio", got.reduction_ratio},
      {"precision", got.precision},
      {"recall", got.recall},
      {"f1", got.f1},
  };
  for (const auto& m : metrics) {
    EXPECT_NEAR(m.value, NumberAfter(json, at, m.key), tolerance)
        << name << " " << m.key << " drifted beyond the quality gate";
  }
}

TEST(QualityGateTest, ItalyPreset) {
  ExpectWithinGate("italy", synth::ItalyConfig());
}

TEST(QualityGateTest, AllRegionsMvSample) {
  synth::GeneratorConfig generator;
  generator.num_persons = 2000;
  generator.include_mv = true;
  generator.seed = 7;
  ExpectWithinGate("all_regions_mv_2000", generator);
}

}  // namespace
}  // namespace yver

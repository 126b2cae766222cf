// Byte-equality of the columnar FeatureExtractor against the preserved
// string-path reference (tests/support/reference_extractor.*). The PR-2
// determinism contract extends to representation refactors: the columnar
// comparison corpus must not change a single bit of any of the 48
// features, including NaN missing-value patterns, on any pair.

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/comparison_corpus.h"
#include "data/item_dictionary.h"
#include "features/feature_extractor.h"
#include "features/feature_schema.h"
#include "support/reference_extractor.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"
#include "util/rng.h"

namespace yver::features {
namespace {

using data::AttributeId;
using data::Dataset;
using data::Record;

// Byte comparison of two feature vectors: identical doubles bit-for-bit,
// which also pins NaN payloads (EXPECT_DOUBLE_EQ would treat any NaN pair
// as unequal and 0.0 == -0.0 as equal).
void ExpectByteIdentical(const FeatureVector& expected,
                         const FeatureVector& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.values.size(), actual.values.size()) << context;
  ASSERT_EQ(0, std::memcmp(expected.values.data(), actual.values.data(),
                           expected.values.size() * sizeof(double)))
      << context << ": feature vectors differ; first mismatch at index "
      << [&] {
           for (size_t i = 0; i < expected.values.size(); ++i) {
             if (std::memcmp(&expected.values[i], &actual.values[i],
                             sizeof(double)) != 0) {
               return i;
             }
           }
           return expected.values.size();
         }();
}

void ExpectAllPairsIdentical(const Dataset& dataset,
                             const data::GeoResolver& geo_resolver,
                             size_t max_pairs = 0) {
  auto encoded = data::EncodeDataset(dataset, geo_resolver);
  ReferenceFeatureExtractor reference(encoded);
  FeatureExtractor columnar(encoded);
  ReferenceFeatureExtractor::Scratch ref_scratch;
  FeatureExtractor::Scratch col_scratch;
  size_t compared = 0;
  for (data::RecordIdx a = 0; a < dataset.size(); ++a) {
    for (data::RecordIdx b = a + 1; b < dataset.size(); ++b) {
      FeatureVector expected;
      FeatureVector actual;
      reference.ExtractInto(a, b, &ref_scratch, &expected);
      columnar.ExtractInto(a, b, &col_scratch, &actual);
      ExpectByteIdentical(expected, actual,
                          "pair (" + std::to_string(a) + ", " +
                              std::to_string(b) + ")");
      if (max_pairs != 0 && ++compared >= max_pairs) return;
    }
  }
}

TEST(FeatureEquivalenceTest, HandBuiltEdgeCases) {
  Dataset dataset;
  {
    // Multi-valued names with case collisions and duplicates.
    Record r;
    r.source_id = 1;
    r.Add(AttributeId::kFirstName, "John");
    r.Add(AttributeId::kFirstName, "JOHN");
    r.Add(AttributeId::kFirstName, "Harris");
    r.Add(AttributeId::kLastName, "Foa");
    r.Add(AttributeId::kBirthDay, "2");
    r.Add(AttributeId::kBirthMonth, "8");
    r.Add(AttributeId::kBirthYear, "1936");
    r.Add(AttributeId::kBirthCity, "Torino");
    r.Add(AttributeId::kBirthCity, "Torino");
    r.Add(AttributeId::kGender, "M");
    dataset.Add(std::move(r));
  }
  {
    // Overlapping value set, unknown geo city, non-numeric date part.
    Record r;
    r.source_id = 2;
    r.Add(AttributeId::kFirstName, "john");
    r.Add(AttributeId::kLastName, "FOA");
    r.Add(AttributeId::kBirthDay, "not-a-number");
    r.Add(AttributeId::kBirthYear, "1920");
    r.Add(AttributeId::kBirthCity, "Atlantis");
    r.Add(AttributeId::kBirthCountry, "Italia");
    r.Add(AttributeId::kGender, "m");  // case-sensitive: differs from "M"
    r.Add(AttributeId::kProfession, "tailor");
    dataset.Add(std::move(r));
  }
  {
    // Empty-ish record: only one attribute, shared source with record 0.
    Record r;
    r.source_id = 1;
    r.Add(AttributeId::kProfession, "tailor");
    dataset.Add(std::move(r));
  }
  {
    // Record with no comparable attributes at all.
    Record r;
    r.source_id = 3;
    dataset.Add(std::move(r));
  }
  {
    // Multi-valued places across all four place types.
    Record r;
    r.source_id = 4;
    r.Add(AttributeId::kBirthCity, "Moncalieri");
    r.Add(AttributeId::kPermCity, "Torino");
    r.Add(AttributeId::kPermCity, "Moncalieri");
    r.Add(AttributeId::kPermCountry, "Italia");
    r.Add(AttributeId::kWarCity, "Roma");
    r.Add(AttributeId::kWarRegion, "Lazio");
    r.Add(AttributeId::kDeathCity, "Auschwitz");
    r.Add(AttributeId::kBirthMonth, "8");
    dataset.Add(std::move(r));
  }
  auto geo = [](AttributeId, std::string_view v)
      -> std::optional<geo::GeoPoint> {
    if (v == "Torino") return geo::GeoPoint{45.07, 7.69};
    if (v == "Moncalieri") return geo::GeoPoint{45.00, 7.68};
    if (v == "Roma") return geo::GeoPoint{41.90, 12.50};
    return std::nullopt;
  };
  ExpectAllPairsIdentical(dataset, geo);
}

TEST(FeatureEquivalenceTest, RandomizedSyntheticPairs) {
  // Italy-like corpus with the MV bulk submitter: multi-valued attributes,
  // realistic missingness, geo-coded places.
  auto config = synth::ItalyConfig();
  config.num_persons = 220;
  config.include_mv = true;
  config.seed = 9;
  auto generated = synth::Generate(config);
  synth::Gazetteer gazetteer;
  auto encoded =
      data::EncodeDataset(generated.dataset, gazetteer.MakeGeoResolver());
  ReferenceFeatureExtractor reference(encoded);
  FeatureExtractor columnar(encoded);
  ReferenceFeatureExtractor::Scratch ref_scratch;
  FeatureExtractor::Scratch col_scratch;
  util::Rng rng(1234);
  const auto n = static_cast<int>(generated.dataset.size());
  ASSERT_GE(n, 2);
  for (int trial = 0; trial < 4000; ++trial) {
    auto a = static_cast<data::RecordIdx>(rng.UniformInt(0, n - 1));
    auto b = static_cast<data::RecordIdx>(rng.UniformInt(0, n - 1));
    if (a == b) continue;
    FeatureVector expected;
    FeatureVector actual;
    reference.ExtractInto(a, b, &ref_scratch, &expected);
    columnar.ExtractInto(a, b, &col_scratch, &actual);
    ExpectByteIdentical(expected, actual,
                        "trial " + std::to_string(trial) + " pair (" +
                            std::to_string(a) + ", " + std::to_string(b) +
                            ")");
  }
}

TEST(FeatureEquivalenceTest, BatchMatchesReferenceScalar) {
  auto config = synth::ItalyConfig();
  config.num_persons = 120;
  config.seed = 31;
  auto generated = synth::Generate(config);
  synth::Gazetteer gazetteer;
  auto encoded =
      data::EncodeDataset(generated.dataset, gazetteer.MakeGeoResolver());
  ReferenceFeatureExtractor reference(encoded);
  FeatureExtractor columnar(encoded);

  util::Rng rng(77);
  const auto n = static_cast<int>(generated.dataset.size());
  std::vector<data::RecordPair> pairs;
  for (int i = 0; i < 2000; ++i) {
    auto a = static_cast<data::RecordIdx>(rng.UniformInt(0, n - 1));
    auto b = static_cast<data::RecordIdx>(rng.UniformInt(0, n - 1));
    if (a == b) continue;
    pairs.emplace_back(a, b);
  }

  util::ThreadPool pool(4);
  auto batch = columnar.ExtractBatch(pairs, &pool);
  ASSERT_EQ(batch.size(), pairs.size());
  ReferenceFeatureExtractor::Scratch scratch;
  for (size_t i = 0; i < pairs.size(); ++i) {
    FeatureVector expected;
    reference.ExtractInto(pairs[i].a, pairs[i].b, &scratch, &expected);
    ExpectByteIdentical(expected, batch[i], "pair index " + std::to_string(i));
  }
}

// Masked extraction (FeatureMask): every masked-in feature is bit-equal
// to a full extraction and every masked-out one is missing, for the masks
// of trained models, for random masks, and for masks that keep only the
// features that reuse another group's comparison (41..43 reuse the date
// distances of 15..17, 44..47 the place-part comparisons of 18..33).
void ExpectMaskedMatchesFull(const FeatureExtractor& extractor,
                             std::span<const data::RecordPair> pairs,
                             const FeatureMask& mask,
                             const std::string& context) {
  FeatureExtractor::Scratch scratch;
  FeatureVector masked;
  util::ThreadPool pool(3);
  std::vector<FeatureVector> batch = extractor.ExtractBatch(pairs, &pool, mask);
  ASSERT_EQ(batch.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    FeatureVector full = extractor.Extract(pairs[i].a, pairs[i].b);
    extractor.ExtractInto(pairs[i].a, pairs[i].b, &scratch, &masked, mask);
    ExpectByteIdentical(masked, batch[i],
                        context + ": batch, pair index " + std::to_string(i));
    ASSERT_EQ(masked.values.size(), kNumFeatures);
    for (size_t f = 0; f < kNumFeatures; ++f) {
      if (mask.test(f)) {
        ASSERT_EQ(0, std::memcmp(&full.values[f], &masked.values[f],
                                 sizeof(double)))
            << context << ": feature " << f << ", pair index " << i;
      } else {
        ASSERT_TRUE(masked.IsMissing(f))
            << context << ": masked-out feature " << f << ", pair index "
            << i;
      }
    }
  }
}

TEST(MaskedExtractionTest, MaskedInFeaturesEqualAFullExtraction) {
  auto config = synth::ItalyConfig();
  config.num_persons = 400;
  config.include_mv = true;
  config.seed = 17;
  auto generated = synth::Generate(config);
  synth::Gazetteer gazetteer;
  core::UncertainErPipeline pipeline(generated.dataset,
                                     gazetteer.MakeGeoResolver());
  const FeatureExtractor& extractor = pipeline.extractor();

  // Random pairs, plus the blocked candidates, where names, dates and
  // places agree often enough to reach every branch of each feature.
  util::Rng rng(4242);
  const auto n = static_cast<int>(generated.dataset.size());
  std::vector<data::RecordPair> pairs;
  for (int i = 0; i < 1500; ++i) {
    auto a = static_cast<data::RecordIdx>(rng.UniformInt(0, n - 1));
    auto b = static_cast<data::RecordIdx>(rng.UniformInt(0, n - 1));
    if (a != b) pairs.emplace_back(a, b);
  }

  std::vector<std::pair<std::string, FeatureMask>> masks;
  synth::TagOracle oracle(&generated.dataset);
  auto tagger = [&](data::RecordIdx a, data::RecordIdx b) {
    return oracle.Tag(a, b);
  };
  for (size_t rounds : {10, 25}) {
    core::PipelineConfig pipeline_config = core::RecommendedConfig();
    pipeline_config.trainer.num_rounds = rounds;
    core::PipelineResult resolved = pipeline.Run(pipeline_config, tagger);
    ASSERT_FALSE(resolved.model.empty());
    FeatureMask used = MaskOf(resolved.model.UsedFeatures());
    EXPECT_GE(used.count(), 3u);
    EXPECT_LT(used.count(), kNumFeatures / 2);
    masks.emplace_back("model of " + std::to_string(rounds) + " rounds", used);
    for (size_t i = 0; i < resolved.candidates.size() && i < 1500; ++i) {
      pairs.push_back(resolved.candidates[i].pair);
    }
  }
  FeatureMask date_sims;
  for (size_t f = 40; f < 43; ++f) date_sims.set(f);
  masks.emplace_back("only 41..43", date_sims);
  FeatureMask whole_places;
  for (size_t f = 43; f < 47; ++f) whole_places.set(f);
  masks.emplace_back("only 44..47", whole_places);
  masks.emplace_back("none", FeatureMask());
  masks.emplace_back("all", kAllFeatures);
  for (int m = 0; m < 12; ++m) {
    FeatureMask random;
    for (size_t f = 0; f < kNumFeatures; ++f) {
      if (rng.UniformInt(0, 3) == 0) random.set(f);
    }
    masks.emplace_back("random mask " + std::to_string(m), random);
  }
  for (const auto& [name, mask] : masks) {
    ExpectMaskedMatchesFull(extractor, pairs, mask, name);
    if (HasFatalFailure()) return;
  }
}

TEST(MaskedExtractionTest, FullMaskIsTheDefault) {
  EXPECT_TRUE(kAllFeatures.all());
  EXPECT_EQ(kAllFeatures.size(), FeatureSchema::Get().size());
  const size_t used[] = {0, 7, 47};
  FeatureMask mask = MaskOf(used);
  EXPECT_EQ(mask.count(), 3u);
  EXPECT_TRUE(mask.test(0) && mask.test(7) && mask.test(47));
}

TEST(FeatureEquivalenceTest, CorpusViewsAreConsistent) {
  Dataset dataset;
  Record r;
  r.Add(AttributeId::kFirstName, "Guido");
  r.Add(AttributeId::kFirstName, "guido");
  r.Add(AttributeId::kFirstName, "Massimo");
  r.Add(AttributeId::kLastName, "Foa");
  dataset.Add(std::move(r));
  auto encoded = data::EncodeDataset(dataset);
  data::ComparisonCorpus corpus(encoded);
  // Case collisions dedup to one token; spans are sorted unique.
  auto first = corpus.Tokens(0, AttributeId::kFirstName);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  // Equal strings across attributes share token ids.
  auto last = corpus.Tokens(0, AttributeId::kLastName);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(corpus.TokenString(last[0]), "foa");
  // Per-token q-gram sets are sorted unique and non-empty.
  for (data::TokenId t : first) {
    auto grams = corpus.TokenQGrams(t);
    EXPECT_FALSE(grams.empty());
    EXPECT_TRUE(std::is_sorted(grams.begin(), grams.end()));
    EXPECT_TRUE(std::adjacent_find(grams.begin(), grams.end()) == grams.end());
  }
  // Absent attributes give empty spans and missing codes.
  EXPECT_TRUE(corpus.Tokens(0, AttributeId::kSpouseName).empty());
  EXPECT_EQ(corpus.GenderCode(0), data::kNoValueCode);
  EXPECT_TRUE(std::isnan(corpus.BirthParts(0)[2]));
}

}  // namespace
}  // namespace yver::features

// Bit-identity of the column-major ADTree trainer (ml::TrainAdTree)
// against the instance-major reference
// (tests/support/reference_adtree_trainer.*), which sums each condition's
// weights through the same per-bucket histograms. The parallel split
// search must give the same tree for every pool size — same structure,
// same conditions, and the same bits in every prediction value and
// threshold — on inputs chosen to hit its edge cases: NaN-heavy columns,
// nominal features, duplicated values whose conditions tie on Z, one or
// two instances, a single label class, and real pipeline instances.
//
// Every case also bounds the change from the member-by-member sums the
// histograms replaced (MemberSumTrainAdTree): the same splitters, and
// prediction values within a small relative error.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "features/feature_schema.h"
#include "ml/adtree.h"
#include "ml/adtree_trainer.h"
#include "ml/instances.h"
#include "support/reference_adtree_trainer.h"
#include "synth/gazetteer.h"
#include "synth/generator.h"
#include "synth/tag_oracle.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace yver::ml {
namespace {

using features::FeatureKind;
using features::FeatureSchema;

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectSameTree(const AdTree& expected, const AdTree& actual,
                    const std::string& context) {
  EXPECT_EQ(expected.ToString(), actual.ToString()) << context;
  ASSERT_EQ(expected.predictions().size(), actual.predictions().size())
      << context;
  for (size_t i = 0; i < expected.predictions().size(); ++i) {
    const auto& e = expected.predictions()[i];
    const auto& a = actual.predictions()[i];
    EXPECT_TRUE(SameBits(e.value, a.value))
        << context << ": prediction " << i << " " << e.value << " vs "
        << a.value;
    EXPECT_EQ(e.child_splitters, a.child_splitters) << context;
  }
  ASSERT_EQ(expected.splitters().size(), actual.splitters().size()) << context;
  for (size_t i = 0; i < expected.splitters().size(); ++i) {
    const auto& e = expected.splitters()[i];
    const auto& a = actual.splitters()[i];
    EXPECT_EQ(e.condition.feature, a.condition.feature) << context;
    EXPECT_EQ(e.condition.is_nominal, a.condition.is_nominal) << context;
    EXPECT_EQ(e.condition.nominal_value, a.condition.nominal_value) << context;
    EXPECT_TRUE(SameBits(e.condition.threshold, a.condition.threshold))
        << context << ": splitter " << i << " threshold "
        << e.condition.threshold << " vs " << a.condition.threshold;
    EXPECT_EQ(e.order, a.order) << context;
    EXPECT_EQ(e.true_prediction, a.true_prediction) << context;
    EXPECT_EQ(e.false_prediction, a.false_prediction) << context;
  }
}

// How far a prediction value may move from the member-by-member sums'
// value: relative to max(1, |value|), since values near zero carry the
// absolute error of the weight sums they are logs of.
constexpr double kMaxPredictionError = 1e-12;

// The member-by-member tree and the histogram tree must have the same
// splitters (feature, condition, order, attachment), the same children
// under every prediction node, and prediction values within
// kMaxPredictionError.
void ExpectWithinBound(const AdTree& member_sums, const AdTree& actual,
                       const std::string& context) {
  ASSERT_EQ(member_sums.splitters().size(), actual.splitters().size())
      << context;
  for (size_t i = 0; i < actual.splitters().size(); ++i) {
    const auto& e = member_sums.splitters()[i];
    const auto& a = actual.splitters()[i];
    EXPECT_EQ(e.condition.feature, a.condition.feature) << context;
    EXPECT_EQ(e.condition.is_nominal, a.condition.is_nominal) << context;
    EXPECT_EQ(e.condition.nominal_value, a.condition.nominal_value) << context;
    EXPECT_TRUE(SameBits(e.condition.threshold, a.condition.threshold))
        << context << ": splitter " << i;
    EXPECT_EQ(e.order, a.order) << context;
    EXPECT_EQ(e.true_prediction, a.true_prediction) << context;
    EXPECT_EQ(e.false_prediction, a.false_prediction) << context;
  }
  ASSERT_EQ(member_sums.predictions().size(), actual.predictions().size())
      << context;
  for (size_t i = 0; i < actual.predictions().size(); ++i) {
    EXPECT_EQ(member_sums.predictions()[i].child_splitters,
              actual.predictions()[i].child_splitters)
        << context;
    const double e = member_sums.predictions()[i].value;
    const double a = actual.predictions()[i].value;
    if (a == e) continue;  // including equal infinities (no smoothing)
    EXPECT_LE(std::abs(a - e),
              kMaxPredictionError * std::max(1.0, std::abs(e)))
        << context << ": prediction " << i << " " << e << " vs " << a;
  }
}

// Trains with the reference, then with the production trainer serially and
// on pools of 1, 2 and 8 workers; every tree must match the reference, and
// the reference must stay within the bound of the member-by-member sums.
void ExpectEquivalent(const std::vector<Instance>& instances,
                      const AdTreeTrainerOptions& options,
                      const std::string& context) {
  AdTree expected = ReferenceTrainAdTree(instances, options);
  ExpectWithinBound(MemberSumTrainAdTree(instances, options), expected,
                    context + " (member-by-member sums)");
  ExpectSameTree(expected, TrainAdTree(instances, options),
                 context + " (no pool)");
  for (size_t threads : {1, 2, 8}) {
    util::ThreadPool pool(threads);
    ExpectSameTree(expected, TrainAdTree(instances, options, &pool),
                   context + " (" + std::to_string(threads) + " threads)");
  }
}

struct RandomSpec {
  size_t n = 200;
  double missing_rate = 0.2;
  // Numeric values drawn from this many distinct levels; 0 = continuous.
  int levels = 0;
  // Probability a label follows feature 0's sign instead of a coin flip.
  double signal = 0.7;
  // Every label +1 (a single class).
  bool single_class = false;
};

std::vector<Instance> RandomInstances(const RandomSpec& spec, uint64_t seed) {
  const FeatureSchema& schema = FeatureSchema::Get();
  util::Rng rng(seed);
  std::vector<Instance> out(spec.n);
  for (Instance& inst : out) {
    inst.features.values.resize(schema.size());
    for (size_t f = 0; f < schema.size(); ++f) {
      double& v = inst.features.values[f];
      if (rng.Bernoulli(spec.missing_rate)) {
        v = features::MissingValue();
      } else if (schema.def(f).kind == FeatureKind::kNominal) {
        v = rng.UniformInt(0, schema.def(f).num_nominal_values - 1);
      } else if (spec.levels > 0) {
        v = rng.UniformInt(0, spec.levels - 1) / static_cast<double>(spec.levels);
      } else {
        v = rng.UniformDouble();
      }
    }
    if (spec.single_class) {
      inst.label = +1;
    } else if (rng.Bernoulli(spec.signal)) {
      double v = inst.features.values[0];
      inst.label = (v == v && v > 0.5) ? +1 : -1;
    } else {
      inst.label = rng.Bernoulli(0.5) ? +1 : -1;
    }
  }
  return out;
}

TEST(AdTreeTrainerEquivalenceTest, RandomizedInstanceSets) {
  AdTreeTrainerOptions options;
  options.num_rounds = 12;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RandomSpec spec;
    spec.n = 100 + 70 * seed;
    spec.missing_rate = 0.1 * static_cast<double>(seed % 3);
    ExpectEquivalent(RandomInstances(spec, seed), options,
                     "random seed " + std::to_string(seed));
  }
}

TEST(AdTreeTrainerEquivalenceTest, NanHeavyColumns) {
  AdTreeTrainerOptions options;
  options.num_rounds = 10;
  for (double missing : {0.8, 0.95, 0.99}) {
    RandomSpec spec;
    spec.n = 300;
    spec.missing_rate = missing;
    ExpectEquivalent(RandomInstances(spec, 17), options,
                     "missing " + std::to_string(missing));
  }
  // Whole columns missing, others fully present.
  RandomSpec spec;
  spec.missing_rate = 0.0;
  std::vector<Instance> instances = RandomInstances(spec, 18);
  for (Instance& inst : instances) {
    for (size_t f = 0; f < inst.features.values.size(); f += 3) {
      inst.features.values[f] = features::MissingValue();
    }
  }
  ExpectEquivalent(instances, options, "every third column missing");
}

TEST(AdTreeTrainerEquivalenceTest, DuplicatedValuesTieOnZ) {
  // Few distinct levels make many conditions split the members the same
  // way; copying one column into several others makes whole features tie,
  // so the first-minimum rule across tasks decides every round.
  AdTreeTrainerOptions options;
  options.num_rounds = 10;
  const FeatureSchema& schema = FeatureSchema::Get();
  for (int levels : {2, 3, 5}) {
    RandomSpec spec;
    spec.n = 250;
    spec.levels = levels;
    spec.missing_rate = 0.1;
    std::vector<Instance> instances = RandomInstances(spec, 40 + levels);
    for (Instance& inst : instances) {
      for (size_t f = 1; f < schema.size(); ++f) {
        if (schema.def(f).kind == FeatureKind::kNumeric && f % 2 == 0) {
          inst.features.values[f] = inst.features.values[0];
        }
      }
    }
    // Duplicate instances too, so equal weights meet in the same sums.
    std::vector<Instance> doubled = instances;
    doubled.insert(doubled.end(), instances.begin(), instances.end());
    ExpectEquivalent(doubled, options, "levels " + std::to_string(levels));
  }
}

TEST(AdTreeTrainerEquivalenceTest, TinyAndSingleClassSets) {
  AdTreeTrainerOptions options;
  for (size_t n : {1, 2}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      RandomSpec spec;
      spec.n = n;
      spec.missing_rate = 0.3;
      ExpectEquivalent(RandomInstances(spec, seed), options,
                       "n=" + std::to_string(n));
    }
  }
  RandomSpec spec;
  spec.single_class = true;
  ExpectEquivalent(RandomInstances(spec, 9), options, "single class");
}

TEST(AdTreeTrainerEquivalenceTest, ThresholdCapsAndSmoothing) {
  RandomSpec spec;
  spec.n = 400;
  std::vector<Instance> instances = RandomInstances(spec, 77);
  for (size_t cap : {1, 2, 7, 1000}) {
    AdTreeTrainerOptions options;
    options.max_numeric_thresholds = cap;
    options.smoothing = cap == 7 ? 0.0 : 1.0;
    ExpectEquivalent(instances, options, "cap " + std::to_string(cap));
  }
}

TEST(AdTreeTrainerEquivalenceTest, PipelineInstances) {
  synth::GeneratorConfig config = synth::ItalyConfig();
  config.num_persons = 300;
  config.seed = 5;
  synth::GeneratedData corpus = synth::Generate(config);
  synth::Gazetteer gazetteer;
  core::UncertainErPipeline pipeline(corpus.dataset,
                                     gazetteer.MakeGeoResolver());
  core::PipelineConfig pipeline_config = core::RecommendedConfig();
  pipeline_config.num_threads = 1;
  synth::TagOracle oracle(&corpus.dataset);
  core::PipelineResult result = pipeline.Run(
      pipeline_config, [&oracle](data::RecordIdx a, data::RecordIdx b) {
        return oracle.Tag(a, b);
      });
  ASSERT_GT(result.training_instances.size(), 100u)
      << "corpus too small to train on";
  ExpectEquivalent(result.training_instances, pipeline_config.trainer,
                   "pipeline instances");
  AdTreeTrainerOptions deep = pipeline_config.trainer;
  deep.num_rounds = 25;
  ExpectEquivalent(result.training_instances, deep,
                   "pipeline instances, 25 rounds");
}

}  // namespace
}  // namespace yver::ml

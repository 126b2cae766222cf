#include <cmath>

#include <gtest/gtest.h>

#include "ml/adtree.h"
#include "ml/adtree_trainer.h"
#include "ml/instances.h"
#include "ml/metrics.h"
#include "util/rng.h"

namespace yver::ml {
namespace {

using features::FeatureSchema;
using features::FeatureVector;

FeatureVector MakeVector(std::initializer_list<std::pair<const char*, double>>
                             values) {
  FeatureVector fv;
  fv.values.assign(FeatureSchema::Get().size(), features::MissingValue());
  for (const auto& [name, v] : values) {
    fv.values[FeatureSchema::Get().IndexOf(name)] = v;
  }
  return fv;
}

// ---------------------------------------------------------------------------
// AdTree scoring semantics

TEST(AdTreeTest, PriorOnlyTree) {
  AdTree tree(0.42);
  FeatureVector fv = MakeVector({});
  EXPECT_DOUBLE_EQ(tree.Score(fv), 0.42);
  EXPECT_TRUE(tree.Classify(fv));
}

TEST(AdTreeTest, NumericSplitterRouting) {
  AdTree tree(-0.289);
  AdtCondition cond;
  cond.feature = FeatureSchema::Get().IndexOf("B3dist");
  cond.is_nominal = false;
  cond.threshold = 1.5;
  tree.AddSplitter(tree.root(), cond, +1.142, -0.29, 1);
  EXPECT_NEAR(tree.Score(MakeVector({{"B3dist", 0.0}})), -0.289 + 1.142,
              1e-9);
  EXPECT_NEAR(tree.Score(MakeVector({{"B3dist", 16.0}})), -0.289 - 0.29,
              1e-9);
}

TEST(AdTreeTest, NominalSplitterRouting) {
  AdTree tree(0.0);
  AdtCondition cond;
  cond.feature = FeatureSchema::Get().IndexOf("sameFFN");
  cond.is_nominal = true;
  cond.nominal_value = 0;  // "no"
  tree.AddSplitter(tree.root(), cond, -1.314, +0.539, 1);
  EXPECT_DOUBLE_EQ(tree.Score(MakeVector({{"sameFFN", 0.0}})), -1.314);
  EXPECT_DOUBLE_EQ(tree.Score(MakeVector({{"sameFFN", 2.0}})), +0.539);
}

TEST(AdTreeTest, MissingFeatureSkipsSubtree) {
  // Reproduces the paper's §5.2 example: a pair with different father
  // names (sameFFN = no), father-name distance 0.2, and NO mother first
  // name scores -1.3 + -0.25 = -1.55.
  AdTree tree(0.0);
  AdtCondition same_ffn;
  same_ffn.feature = FeatureSchema::Get().IndexOf("sameFFN");
  same_ffn.is_nominal = true;
  same_ffn.nominal_value = 0;
  tree.AddSplitter(tree.root(), same_ffn, -1.3, +0.54, 1);
  // Under the "no" prediction: MFNdist splitter (missing in our instance)
  // and FFNdist splitter.
  AdtCondition mfn;
  mfn.feature = FeatureSchema::Get().IndexOf("MFNdist");
  mfn.is_nominal = false;
  mfn.threshold = 0.728;
  tree.AddSplitter(1, mfn, -0.72, +1.53, 2);  // prediction node 1 = "no"
  AdtCondition ffn;
  ffn.feature = FeatureSchema::Get().IndexOf("FFNdist");
  ffn.is_nominal = false;
  ffn.threshold = 0.47;
  tree.AddSplitter(1, ffn, -0.25, -0.86, 3);
  auto fv = MakeVector({{"sameFFN", 0.0}, {"FFNdist", 0.2}});
  EXPECT_NEAR(tree.Score(fv), -1.3 - 0.25, 1e-9);
  EXPECT_FALSE(tree.Classify(fv));
}

TEST(AdTreeTest, MultipleChildrenUnderOnePredictionSum) {
  // The "general alternating tree" semantics (Fig. 6): all reachable
  // splitter children contribute.
  AdTree tree(0.5);
  AdtCondition c1;
  c1.feature = FeatureSchema::Get().IndexOf("B3dist");
  c1.is_nominal = false;
  c1.threshold = 4.5;
  tree.AddSplitter(tree.root(), c1, 0.3, -0.7, 1);
  AdtCondition c2;
  c2.feature = FeatureSchema::Get().IndexOf("LNdist");
  c2.is_nominal = false;
  c2.threshold = 1.0;
  tree.AddSplitter(tree.root(), c2, -0.2, 0.1, 2);
  auto fv = MakeVector({{"B3dist", 3.9}, {"LNdist", 0.9}});
  EXPECT_NEAR(tree.Score(fv), 0.5 + 0.3 - 0.2, 1e-9);
}

TEST(AdTreeTest, ToStringHasPaperLayout) {
  AdTree tree(-0.289);
  AdtCondition cond;
  cond.feature = FeatureSchema::Get().IndexOf("sameFFN");
  cond.is_nominal = true;
  cond.nominal_value = 0;
  tree.AddSplitter(tree.root(), cond, -1.314, 0.539, 1);
  std::string s = tree.ToString();
  EXPECT_NE(s.find(": -0.289"), std::string::npos);
  EXPECT_NE(s.find("(1)sameFFN = no: -1.314"), std::string::npos);
  EXPECT_NE(s.find("(1)sameFFN != no: 0.539"), std::string::npos);
}

TEST(AdTreeTest, UsedFeaturesListsSplitterFeatures) {
  AdTree tree(0.0);
  AdtCondition cond;
  cond.feature = 5;
  tree.AddSplitter(tree.root(), cond, 1, -1, 1);
  auto used = tree.UsedFeatures();
  ASSERT_EQ(used.size(), 1u);
  EXPECT_EQ(used[0], 5u);
}

// ---------------------------------------------------------------------------
// Trainer

std::vector<Instance> SeparableInstances(size_t n, util::Rng& rng,
                                         double flip = 0.0) {
  // Positive iff LNdist > 0.6; add optional label noise.
  std::vector<Instance> out;
  for (size_t i = 0; i < n; ++i) {
    Instance inst;
    double v = rng.UniformDouble();
    inst.features = MakeVector({{"LNdist", v},
                                {"B3dist", rng.UniformDouble() * 20}});
    inst.label = v > 0.6 ? +1 : -1;
    if (rng.Bernoulli(flip)) inst.label = -inst.label;
    inst.tag = inst.label > 0 ? ExpertTag::kYes : ExpertTag::kNo;
    out.push_back(std::move(inst));
  }
  return out;
}

TEST(AdTreeTrainerTest, LearnsSeparableConcept) {
  util::Rng rng(5);
  auto train = SeparableInstances(400, rng);
  auto test = SeparableInstances(200, rng);
  AdTreeTrainerOptions options;
  options.num_rounds = 5;
  AdTree tree = TrainAdTree(train, options);
  auto confusion = EvaluateBinary(tree, test);
  EXPECT_GT(confusion.Accuracy(), 0.97);
}

TEST(AdTreeTrainerTest, RobustToLabelNoise) {
  util::Rng rng(6);
  auto train = SeparableInstances(400, rng, /*flip=*/0.1);
  auto test = SeparableInstances(200, rng);
  AdTreeTrainerOptions options;
  AdTree tree = TrainAdTree(train, options);
  EXPECT_GT(EvaluateBinary(tree, test).Accuracy(), 0.9);
}

TEST(AdTreeTrainerTest, HandlesMissingFeatureTraining) {
  // Half the instances miss the discriminative feature; a secondary
  // feature carries them.
  util::Rng rng(7);
  std::vector<Instance> train;
  for (int i = 0; i < 400; ++i) {
    Instance inst;
    bool positive = rng.Bernoulli(0.5);
    if (i % 2 == 0) {
      inst.features = MakeVector({{"LNdist", positive ? 0.9 : 0.1}});
    } else {
      inst.features = MakeVector({{"FNdist", positive ? 0.95 : 0.2}});
    }
    inst.label = positive ? +1 : -1;
    train.push_back(std::move(inst));
  }
  AdTree tree = TrainAdTree(train, {});
  EXPECT_GT(EvaluateBinary(tree, train).Accuracy(), 0.95);
}

TEST(AdTreeTrainerTest, NumRoundsBoundsSplitters) {
  util::Rng rng(8);
  auto train = SeparableInstances(100, rng);
  AdTreeTrainerOptions options;
  options.num_rounds = 3;
  AdTree tree = TrainAdTree(train, options);
  EXPECT_LE(tree.num_splitters(), 3u);
}

TEST(AdTreeTrainerTest, ScoresRankPositivesAboveNegatives) {
  util::Rng rng(9);
  auto train = SeparableInstances(300, rng);
  AdTree tree = TrainAdTree(train, {});
  double clear_pos = tree.Score(MakeVector({{"LNdist", 0.99}}));
  double clear_neg = tree.Score(MakeVector({{"LNdist", 0.01}}));
  EXPECT_GT(clear_pos, clear_neg);
  EXPECT_GT(clear_pos, 0.0);
  EXPECT_LT(clear_neg, 0.0);
}

TEST(AdTreeTrainerDeathTest, RejectsZeroThresholdCap) {
  // The numeric threshold stride divides by the cap; zero must be a
  // checked precondition, not a SIGFPE.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  util::Rng rng(10);
  auto train = SeparableInstances(20, rng);
  AdTreeTrainerOptions options;
  options.max_numeric_thresholds = 0;
  EXPECT_DEATH(TrainAdTree(train, options), "max_numeric_thresholds");
}

// ---------------------------------------------------------------------------
// Instances / policies / metrics

TEST(InstancesTest, MaybePolicySemantics) {
  std::vector<Instance> instances(5);
  instances[0].tag = ExpertTag::kYes;
  instances[1].tag = ExpertTag::kProbablyYes;
  instances[2].tag = ExpertTag::kMaybe;
  instances[3].tag = ExpertTag::kProbablyNo;
  instances[4].tag = ExpertTag::kNo;
  auto as_no = ApplyMaybePolicy(instances, MaybePolicy::kAsNo);
  ASSERT_EQ(as_no.size(), 5u);
  EXPECT_EQ(as_no[0].label, +1);
  EXPECT_EQ(as_no[1].label, +1);
  EXPECT_EQ(as_no[2].label, -1);
  EXPECT_EQ(as_no[4].label, -1);
  auto omitted = ApplyMaybePolicy(instances, MaybePolicy::kOmit);
  EXPECT_EQ(omitted.size(), 4u);
}

TEST(InstancesTest, SplitIsStratifiedAndComplete) {
  util::Rng rng(11);
  std::vector<Instance> instances;
  for (int i = 0; i < 100; ++i) {
    Instance inst;
    inst.label = i < 30 ? +1 : -1;
    instances.push_back(inst);
  }
  auto split = SplitTrainTest(instances, 0.7, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), 100u);
  size_t train_pos = 0;
  for (const auto& inst : split.train) train_pos += inst.label > 0;
  EXPECT_NEAR(static_cast<double>(train_pos) / split.train.size(), 0.3,
              0.05);
}

TEST(InstancesTest, KFoldsPartitionTestSets) {
  util::Rng rng(13);
  std::vector<Instance> instances(50);
  for (size_t i = 0; i < 50; ++i) instances[i].label = i % 3 ? -1 : +1;
  auto folds = KFolds(instances, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  size_t total_test = 0;
  for (const auto& fold : folds) {
    total_test += fold.test.size();
    EXPECT_EQ(fold.train.size() + fold.test.size(), 50u);
  }
  EXPECT_EQ(total_test, 50u);
}

TEST(MetricsTest, ConfusionArithmetic) {
  Confusion c;
  c.true_pos = 40;
  c.false_pos = 10;
  c.true_neg = 45;
  c.false_neg = 5;
  EXPECT_DOUBLE_EQ(c.Accuracy(), 0.85);
  EXPECT_DOUBLE_EQ(c.Precision(), 0.8);
  EXPECT_DOUBLE_EQ(c.Recall(), 40.0 / 45.0);
  EXPECT_NEAR(c.F1(), 2 * 0.8 * (40.0 / 45.0) / (0.8 + 40.0 / 45.0), 1e-9);
}

TEST(MetricsTest, EmptyConfusionIsZero) {
  Confusion c;
  EXPECT_DOUBLE_EQ(c.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(c.Precision(), 0.0);
  EXPECT_DOUBLE_EQ(c.Recall(), 0.0);
  EXPECT_DOUBLE_EQ(c.F1(), 0.0);
}

TEST(ThreeClassTest, PredictsMaybeWhenDetectorFires) {
  util::Rng rng(17);
  std::vector<Instance> train;
  // Yes: LNdist high; No: low; Maybe: mid with few features.
  for (int i = 0; i < 300; ++i) {
    Instance inst;
    int cls = i % 3;
    if (cls == 0) {
      inst.tag = ExpertTag::kYes;
      inst.features = MakeVector({{"LNdist", 0.9 + 0.1 * rng.UniformDouble()},
                                  {"bagJaccard", 0.8}});
    } else if (cls == 1) {
      inst.tag = ExpertTag::kNo;
      inst.features = MakeVector({{"LNdist", 0.2 * rng.UniformDouble()},
                                  {"bagJaccard", 0.1}});
    } else {
      inst.tag = ExpertTag::kMaybe;
      inst.features = MakeVector({{"bagJaccard", 0.45}});
    }
    train.push_back(std::move(inst));
  }
  auto model = TrainThreeClass(train, {});
  EXPECT_EQ(model.Predict(MakeVector({{"LNdist", 0.95},
                                      {"bagJaccard", 0.8}})),
            ExpertTag::kYes);
  EXPECT_EQ(model.Predict(MakeVector({{"LNdist", 0.05},
                                      {"bagJaccard", 0.1}})),
            ExpertTag::kNo);
  EXPECT_EQ(model.Predict(MakeVector({{"bagJaccard", 0.45}})),
            ExpertTag::kMaybe);
}

TEST(TagTest, Names) {
  EXPECT_STREQ(ExpertTagName(ExpertTag::kYes), "Yes");
  EXPECT_STREQ(ExpertTagName(ExpertTag::kMaybe), "Maybe");
  EXPECT_STREQ(ExpertTagName(ExpertTag::kProbablyNo), "Probably No");
}

}  // namespace
}  // namespace yver::ml

// Tests for the decision-tree layer: gini arithmetic, boundary search,
// pruning, the tree model itself, and the five training modes.

#include <cmath>

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "perturb/randomizer.h"
#include "synth/generator.h"
#include "tree/decision_tree.h"
#include "tree/gini.h"
#include "tree/prune.h"
#include "tree/trainer.h"

namespace ppdm::tree {
namespace {

// -------------------------------------------------------------------- Gini

TEST(GiniTest, PureNodeIsZero) {
  EXPECT_DOUBLE_EQ(GiniImpurity({10.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniImpurity({0.0, 7.0}), 0.0);
}

TEST(GiniTest, BalancedBinaryIsHalf) {
  EXPECT_DOUBLE_EQ(GiniImpurity({5.0, 5.0}), 0.5);
}

TEST(GiniTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(GiniImpurity({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniImpurity({}), 0.0);
}

TEST(GiniTest, ThreeClassUniform) {
  EXPECT_NEAR(GiniImpurity({1.0, 1.0, 1.0}), 2.0 / 3.0, 1e-12);
}

TEST(GiniTest, ToleratesRoundoffNegatives) {
  EXPECT_GE(GiniImpurity({5.0, -1e-12}), 0.0);
}

// ------------------------------------------------------- BestBoundarySplit

TEST(SplitTest, FindsPerfectSeparation) {
  // class 0 in intervals 0-1, class 1 in intervals 2-3: boundary at 2.
  const std::vector<std::vector<double>> counts{{10.0, 10.0, 0.0, 0.0},
                                                {0.0, 0.0, 10.0, 10.0}};
  const SplitCandidate best = BestBoundarySplit(counts, 1.0);
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.edge, 2u);
  EXPECT_NEAR(best.gain, 0.5, 1e-12);  // parent gini 0.5, children pure
  EXPECT_DOUBLE_EQ(best.left_weight, 20.0);
  EXPECT_DOUBLE_EQ(best.right_weight, 20.0);
}

TEST(SplitTest, NoSplitWhenSingleInterval) {
  const std::vector<std::vector<double>> counts{{5.0}, {5.0}};
  EXPECT_FALSE(BestBoundarySplit(counts, 1.0).valid);
}

TEST(SplitTest, RespectsMinSideWeight) {
  const std::vector<std::vector<double>> counts{{1.0, 0.0, 0.0, 0.0},
                                                {0.0, 10.0, 10.0, 10.0}};
  // Separating interval 0 leaves only one record on the left.
  const SplitCandidate best = BestBoundarySplit(counts, 5.0);
  if (best.valid) {
    EXPECT_GE(best.left_weight, 5.0);
    EXPECT_GE(best.right_weight, 5.0);
  }
}

TEST(SplitTest, AlternatingPatternGainIsWeak) {
  // Classes alternate across intervals: the best single boundary only
  // peels off one band, so its gain is far below the 0.5 of a clean split.
  const std::vector<std::vector<double>> counts{{10.0, 0.0, 10.0, 0.0},
                                                {0.0, 10.0, 0.0, 10.0}};
  const SplitCandidate best = BestBoundarySplit(counts, 1.0);
  ASSERT_TRUE(best.valid);
  EXPECT_LT(best.gain, 0.2);
  EXPECT_GT(best.gain, 0.0);
}

TEST(SplitTest, FractionalCountsWork) {
  const std::vector<std::vector<double>> counts{{2.5, 2.5, 0.1, 0.1},
                                                {0.1, 0.1, 2.5, 2.5}};
  const SplitCandidate best = BestBoundarySplit(counts, 0.5);
  ASSERT_TRUE(best.valid);
  EXPECT_EQ(best.edge, 2u);
}

TEST(SplitTest, ZeroWeightTable) {
  const std::vector<std::vector<double>> counts{{0.0, 0.0}, {0.0, 0.0}};
  EXPECT_FALSE(BestBoundarySplit(counts, 0.0).valid);
}

// ----------------------------------------------------------- DecisionTree

DecisionTree StumpTree() {
  // x0 < 5 -> class 0 else class 1.
  std::vector<Node> nodes(3);
  nodes[0].attribute = 0;
  nodes[0].threshold = 5.0;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[0].label = 0;
  nodes[0].num_records = 10;
  nodes[1].label = 0;
  nodes[1].num_records = 5;
  nodes[2].label = 1;
  nodes[2].num_records = 5;
  return DecisionTree(std::move(nodes));
}

TEST(DecisionTreeTest, PredictFollowsThresholds) {
  const DecisionTree t = StumpTree();
  EXPECT_EQ(t.Predict({4.9}), 0);
  EXPECT_EQ(t.Predict({5.0}), 1);  // boundary value goes right
  EXPECT_EQ(t.Predict({7.3}), 1);
}

TEST(DecisionTreeTest, Shape) {
  const DecisionTree t = StumpTree();
  EXPECT_EQ(t.NumNodes(), 3u);
  EXPECT_EQ(t.NumLeaves(), 2u);
  EXPECT_EQ(t.Depth(), 2u);
}

TEST(DecisionTreeTest, DescribeMentionsAttributeName) {
  const DecisionTree t = StumpTree();
  data::Schema schema({{"age", data::AttributeKind::kContinuous, 0.0, 10.0}});
  const std::string text = t.Describe(schema);
  EXPECT_NE(text.find("age < 5"), std::string::npos);
  EXPECT_NE(text.find("class 1"), std::string::npos);
}

// ---------------------------------------------------------------- Pruning

TEST(PruneTest, PessimisticRateGrowsWithZ) {
  const double a = PessimisticErrorRate(5.0, 100.0, 0.5);
  const double b = PessimisticErrorRate(5.0, 100.0, 2.0);
  EXPECT_GT(b, a);
  EXPECT_GT(a, 0.05);  // above the raw rate
}

TEST(PruneTest, PessimisticRateShrinksWithN) {
  const double small_n = PessimisticErrorRate(1.0, 10.0, 0.6745);
  const double large_n = PessimisticErrorRate(10.0, 100.0, 0.6745);
  EXPECT_GT(small_n, large_n);  // same rate, less certain at small n
}

TEST(PruneTest, ReducedErrorPrunesUselessSplit) {
  // Both children predict the SAME as the parent majority would; holdout
  // shows no benefit, so the split must be pruned.
  std::vector<Node> nodes(3);
  nodes[0] = {0, 5.0, 1, 2, 0, 100};
  nodes[1] = {-1, 0.0, Node::kNoChild, Node::kNoChild, 0, 50};
  nodes[2] = {-1, 0.0, Node::kNoChild, Node::kNoChild, 0, 50};
  const std::vector<std::vector<double>> records{{3.0}, {7.0}};
  const std::vector<int> labels{0, 0};
  const auto pruned = ReducedErrorPrune(std::move(nodes), records, labels);
  EXPECT_EQ(pruned.size(), 1u);
  EXPECT_TRUE(pruned[0].IsLeaf());
}

TEST(PruneTest, ReducedErrorKeepsUsefulSplit) {
  std::vector<Node> nodes(3);
  nodes[0] = {0, 5.0, 1, 2, 0, 100};
  nodes[1] = {-1, 0.0, Node::kNoChild, Node::kNoChild, 0, 50};
  nodes[2] = {-1, 0.0, Node::kNoChild, Node::kNoChild, 1, 50};
  // Holdout agrees with the children and disagrees with the root label.
  const std::vector<std::vector<double>> records{{3.0}, {7.0}, {8.0}};
  const std::vector<int> labels{0, 1, 1};
  const auto pruned = ReducedErrorPrune(std::move(nodes), records, labels);
  EXPECT_EQ(pruned.size(), 3u);
  EXPECT_FALSE(pruned[0].IsLeaf());
}

TEST(PruneTest, CompactionKeepsPredictions) {
  // A deep chain where only the top split is useful.
  std::vector<Node> nodes(5);
  nodes[0] = {0, 5.0, 1, 2, 0, 100};
  nodes[1] = {-1, 0.0, Node::kNoChild, Node::kNoChild, 0, 50};
  nodes[2] = {0, 7.0, 3, 4, 1, 50};
  nodes[3] = {-1, 0.0, Node::kNoChild, Node::kNoChild, 1, 25};
  nodes[4] = {-1, 0.0, Node::kNoChild, Node::kNoChild, 1, 25};
  const std::vector<std::vector<double>> records{{3.0}, {6.0}, {8.0}};
  const std::vector<int> labels{0, 1, 1};
  const auto pruned = ReducedErrorPrune(std::move(nodes), records, labels);
  const DecisionTree t(pruned);
  EXPECT_EQ(t.Predict({3.0}), 0);
  EXPECT_EQ(t.Predict({8.0}), 1);
  EXPECT_EQ(t.NumNodes(), 3u);  // useless second split removed
}

// ---------------------------------------------------------- TrainingModes

TEST(TrainerTest, ModeNames) {
  EXPECT_EQ(TrainingModeName(TrainingMode::kOriginal), "Original");
  EXPECT_EQ(TrainingModeName(TrainingMode::kByClass), "ByClass");
  EXPECT_EQ(TrainingModeName(TrainingMode::kLocal), "Local");
}

TEST(TrainerTest, ModeUsesReconstruction) {
  EXPECT_FALSE(ModeUsesReconstruction(TrainingMode::kOriginal));
  EXPECT_FALSE(ModeUsesReconstruction(TrainingMode::kRandomized));
  EXPECT_TRUE(ModeUsesReconstruction(TrainingMode::kGlobal));
  EXPECT_TRUE(ModeUsesReconstruction(TrainingMode::kByClass));
  EXPECT_TRUE(ModeUsesReconstruction(TrainingMode::kLocal));
}

class TrainerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorOptions gen;
    gen.num_records = 6000;
    gen.function = synth::Function::kF1;
    gen.seed = 31;
    train_ = std::make_unique<data::Dataset>(synth::Generate(gen));
    gen.num_records = 1500;
    gen.seed = 32;
    test_ = std::make_unique<data::Dataset>(synth::Generate(gen));
  }

  std::unique_ptr<data::Dataset> train_, test_;
};

TEST_F(TrainerFixture, OriginalLearnsF1Perfectly) {
  TreeOptions options;
  const DecisionTree t =
      TrainDecisionTree(*train_, TrainingMode::kOriginal, options);
  EXPECT_GE(core::EvaluateTree(t, *test_).Accuracy(), 0.99);
  EXPECT_LE(t.Depth(), kMaxDepth);
}

TEST_F(TrainerFixture, ByClassSurvivesHeavyNoise) {
  perturb::RandomizerOptions noise;
  noise.kind = perturb::NoiseKind::kUniform;
  noise.privacy_fraction = 1.0;
  const perturb::Randomizer rz(train_->schema(), noise);
  const data::Dataset perturbed = rz.Perturb(*train_);
  const DecisionTree t = TrainDecisionTree(perturbed, TrainingMode::kByClass,
                                           {}, &rz);
  EXPECT_GE(core::EvaluateTree(t, *test_).Accuracy(), 0.85);
}

TEST_F(TrainerFixture, ReconstructionBeatsRandomizedUnderHeavyNoise) {
  perturb::RandomizerOptions noise;
  noise.kind = perturb::NoiseKind::kUniform;
  noise.privacy_fraction = 1.0;
  const perturb::Randomizer rz(train_->schema(), noise);
  const data::Dataset perturbed = rz.Perturb(*train_);
  const double byclass =
      core::EvaluateTree(TrainDecisionTree(perturbed, TrainingMode::kByClass,
                                           {}, &rz),
                         *test_)
          .Accuracy();
  const double randomized = core::EvaluateTree(
      TrainDecisionTree(perturbed, TrainingMode::kRandomized, {}), *test_)
                                .Accuracy();
  EXPECT_GT(byclass, randomized + 0.1);
}

TEST_F(TrainerFixture, LocalRecoversF1Structure) {
  perturb::RandomizerOptions noise;
  noise.kind = perturb::NoiseKind::kUniform;
  noise.privacy_fraction = 0.5;
  const perturb::Randomizer rz(train_->schema(), noise);
  const data::Dataset perturbed = rz.Perturb(*train_);
  const DecisionTree t = TrainDecisionTree(perturbed, TrainingMode::kLocal,
                                           {}, &rz);
  // Per-node reconstruction locates the two age boundaries to within one
  // interval at this scale (6k records).
  EXPECT_GE(core::EvaluateTree(t, *test_).Accuracy(), 0.85);
}

TEST_F(TrainerFixture, GlobalRunsAndIsReasonable) {
  perturb::RandomizerOptions noise;
  noise.kind = perturb::NoiseKind::kGaussian;
  noise.privacy_fraction = 0.5;
  const perturb::Randomizer rz(train_->schema(), noise);
  const data::Dataset perturbed = rz.Perturb(*train_);
  const DecisionTree t = TrainDecisionTree(perturbed, TrainingMode::kGlobal,
                                           {}, &rz);
  EXPECT_GE(core::EvaluateTree(t, *test_).Accuracy(), 0.6);
}

TEST_F(TrainerFixture, LowNoiseModesConvergeToOriginal) {
  perturb::RandomizerOptions noise;
  noise.kind = perturb::NoiseKind::kGaussian;
  noise.privacy_fraction = 0.1;
  const perturb::Randomizer rz(train_->schema(), noise);
  const data::Dataset perturbed = rz.Perturb(*train_);
  for (TrainingMode mode : {TrainingMode::kRandomized, TrainingMode::kByClass,
                            TrainingMode::kGlobal}) {
    const DecisionTree t = TrainDecisionTree(
        perturbed, mode, {},
        ModeUsesReconstruction(mode) ? &rz : nullptr);
    EXPECT_GE(core::EvaluateTree(t, *test_).Accuracy(), 0.9)
        << TrainingModeName(mode);
  }
}

TEST_F(TrainerFixture, PruningShrinksRandomizedTree) {
  perturb::RandomizerOptions noise;
  noise.privacy_fraction = 1.0;
  const perturb::Randomizer rz(train_->schema(), noise);
  const data::Dataset perturbed = rz.Perturb(*train_);
  TreeOptions unpruned;
  unpruned.pruning = PruningMode::kNone;
  TreeOptions pruned;  // default reduced-error
  const DecisionTree big =
      TrainDecisionTree(perturbed, TrainingMode::kRandomized, unpruned);
  const DecisionTree small =
      TrainDecisionTree(perturbed, TrainingMode::kRandomized, pruned);
  EXPECT_LT(small.NumNodes(), big.NumNodes());
}

TEST_F(TrainerFixture, DeterministicTraining) {
  TreeOptions options;
  const DecisionTree a =
      TrainDecisionTree(*train_, TrainingMode::kOriginal, options);
  const DecisionTree b =
      TrainDecisionTree(*train_, TrainingMode::kOriginal, options);
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    EXPECT_EQ(a.nodes()[i].attribute, b.nodes()[i].attribute);
    EXPECT_DOUBLE_EQ(a.nodes()[i].threshold, b.nodes()[i].threshold);
  }
}

TEST(TrainerEdgeTest, SingleClassDataYieldsLeaf) {
  data::Schema schema({{"x", data::AttributeKind::kContinuous, 0.0, 1.0}});
  data::Dataset d(schema, 2);
  Rng rng(1);
  for (int i = 0; i < 100; ++i) d.AddRow({rng.UniformDouble()}, 0);
  const DecisionTree t = TrainDecisionTree(d, TrainingMode::kOriginal, {});
  EXPECT_EQ(t.NumNodes(), 1u);
  EXPECT_EQ(t.Predict({0.3}), 0);
}

TEST(TrainerEdgeTest, ThreeClassProblemIsLearnable) {
  // The paper's benchmark is binary, but nothing in the library is: gini,
  // routing, and prediction must handle k classes. Three bands of x.
  data::Schema schema({{"x", data::AttributeKind::kContinuous, 0.0, 3.0}});
  data::Dataset d(schema, 3);
  Rng rng(2);
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.UniformReal(0.0, 3.0);
    d.AddRow({x}, static_cast<int>(x));  // class = band index
  }
  TreeOptions options;
  options.intervals = 30;
  const DecisionTree t = TrainDecisionTree(d, TrainingMode::kOriginal,
                                           options);
  EXPECT_EQ(t.Predict({0.5}), 0);
  EXPECT_EQ(t.Predict({1.5}), 1);
  EXPECT_EQ(t.Predict({2.5}), 2);
}

TEST(TrainerEdgeTest, ThreeClassByClassReconstruction) {
  data::Schema schema({{"x", data::AttributeKind::kContinuous, 0.0, 3.0}});
  data::Dataset d(schema, 3);
  Rng rng(3);
  perturb::RandomizerOptions noise_options;
  noise_options.kind = perturb::NoiseKind::kGaussian;
  noise_options.privacy_fraction = 0.3;
  const perturb::Randomizer rz(schema, noise_options);
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.UniformReal(0.0, 3.0);
    std::vector<double> record{x};
    Rng noise_rng(static_cast<std::uint64_t>(i) + 99);
    record[0] += rz.ModelFor(0).Sample(&noise_rng);
    d.AddRow(record, static_cast<int>(x));
  }
  const DecisionTree t = TrainDecisionTree(d, TrainingMode::kByClass, {},
                                           &rz);
  int correct = 0;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.UniformReal(0.0, 3.0);
    if (t.Predict({x}) == static_cast<int>(x)) ++correct;
  }
  EXPECT_GE(correct, 240);  // >=80% on a 3-class problem under noise
}

TEST(TrainerEdgeTest, TinyDatasetDoesNotCrash) {
  data::Schema schema({{"x", data::AttributeKind::kContinuous, 0.0, 1.0}});
  data::Dataset d(schema, 2);
  d.AddRow({0.1}, 0);
  d.AddRow({0.9}, 1);
  const DecisionTree t = TrainDecisionTree(d, TrainingMode::kOriginal, {});
  EXPECT_GE(t.NumNodes(), 1u);
}

}  // namespace
}  // namespace ppdm::tree

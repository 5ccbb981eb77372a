// ML tests: each learner on separable synthetic problems, determinism,
// serialization round trips, cross-validation plumbing, PCA correctness.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <tuple>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/classifier.hpp"
#include "ml/crossval.hpp"
#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/mlp.hpp"
#include "ml/normalizer.hpp"
#include "ml/pca.hpp"
#include "ml/random_forest.hpp"
#include "ml/two_stage.hpp"

namespace tp::ml {
namespace {

/// Three Gaussian blobs in 2-D, one per class; the "group" cycles through
/// three pseudo-programs so LOGO-CV has something to hold out.
Dataset blobs(std::size_t perClass, double spread, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  data.featureNames = {"x", "y"};
  const double centers[3][2] = {{0, 0}, {6, 0}, {0, 6}};
  for (int c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < perClass; ++i) {
      data.add({centers[c][0] + rng.gaussian(0.0, spread),
                centers[c][1] + rng.gaussian(0.0, spread)},
               c, "prog" + std::to_string(i % 3));
    }
  }
  data.numClasses = 3;
  return data;
}

double accuracyOn(const Classifier& model, const Dataset& data) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (model.predict(data.X[i]) == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

TEST(Dataset, AddValidateSubset) {
  Dataset d = blobs(10, 0.5, 1);
  EXPECT_EQ(d.size(), 30u);
  EXPECT_EQ(d.numClasses, 3);
  EXPECT_NO_THROW(d.validate());
  const auto sub = d.subset({0, 5, 10});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub.numFeatures(), 2u);
  EXPECT_EQ(d.uniqueGroups().size(), 3u);
}

TEST(Dataset, MajorityLabel) {
  Dataset d;
  d.featureNames = {"x"};
  d.add({0.0}, 2, "g");
  d.add({0.0}, 2, "g");
  d.add({0.0}, 1, "g");
  EXPECT_EQ(d.majorityLabel(), 2);
}

TEST(Normalizer, ZeroMeanUnitVariance) {
  Normalizer norm;
  std::vector<std::vector<double>> X;
  common::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    X.push_back({rng.uniform(0, 1e6), rng.gaussian(5.0, 2.0)});
  }
  norm.fit(X);
  common::RunningStats s0, s1;
  for (const auto& row : norm.transformAll(X)) {
    s0.add(row[0]);
    s1.add(row[1]);
  }
  EXPECT_NEAR(s0.mean(), 0.0, 1e-9);
  EXPECT_NEAR(s1.mean(), 0.0, 1e-9);
  EXPECT_NEAR(s0.stddev(), 1.0, 0.01);
  EXPECT_NEAR(s1.stddev(), 1.0, 0.01);
}

TEST(Normalizer, ConstantFeatureMapsToZero) {
  Normalizer norm;
  norm.fit({{7.0, 1.0}, {7.0, 2.0}, {7.0, 3.0}});
  for (const auto& row : norm.transformAll({{7.0, 1.5}, {7.0, 2.5}})) {
    EXPECT_DOUBLE_EQ(row[0], 0.0);
  }
}

TEST(Normalizer, DegenerateFeaturesStayFinite) {
  // Column 0 is constant at a large magnitude, column 1 is constant at 0,
  // column 2 varies. No output may be non-finite and the degenerate
  // columns must map to exactly 0 for *any* input value.
  Normalizer norm;
  norm.fit({{1e9, 0.0, 1.0}, {1e9, 0.0, 2.0}, {1e9, 0.0, 3.0}});
  for (const auto& x : {std::vector<double>{1e9, 0.0, 2.0},
                        std::vector<double>{2e9, 5.0, -7.0},
                        std::vector<double>{0.0, -1e12, 1e12}}) {
    const auto out = norm.transform(x);
    for (const double v : out) EXPECT_TRUE(std::isfinite(v));
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 0.0);
  }
}

TEST(Normalizer, NearConstantFeatureDoesNotExplode) {
  // A column whose variation is pure floating-point jitter (relative
  // ~1e-10) must be treated as constant: inverting its tiny stddev would
  // produce a ~1e10 scale factor that turns a moderate input difference
  // into an astronomically standardized value.
  Normalizer norm;
  std::vector<std::vector<double>> X;
  for (int i = 0; i < 8; ++i) {
    const double jitter = 1.0 + 1e-10 * static_cast<double>(i % 2);
    X.push_back({1e9 * jitter, static_cast<double>(i)});
  }
  norm.fit(X);
  const auto out = norm.transform({2e9, 4.0});  // 2x the near-constant value
  EXPECT_TRUE(std::isfinite(out[0]));
  EXPECT_DOUBLE_EQ(out[0], 0.0);  // no signal -> no contribution
  // The genuinely varying column still standardizes normally.
  EXPECT_TRUE(std::isfinite(out[1]));
  EXPECT_LT(std::fabs(out[1]), 10.0);
}

TEST(Normalizer, LoadRejectsNonFiniteParameters) {
  std::stringstream ss;
  ss << "normalizer 1\n0.0 inf\n";
  Normalizer norm;
  EXPECT_THROW(norm.load(ss), Error);
}

TEST(Normalizer, SerializationRoundTrip) {
  Normalizer norm;
  norm.fit({{1.0, 10.0}, {2.0, 20.0}, {3.0, 35.0}});
  std::stringstream ss;
  norm.save(ss);
  Normalizer back;
  back.load(ss);
  EXPECT_EQ(back.transform({2.5, 17.0}), norm.transform({2.5, 17.0}));
}

// --- learners on separable data ---------------------------------------------

class LearnerSeparable : public ::testing::TestWithParam<std::string> {};

TEST_P(LearnerSeparable, FitsBlobs) {
  const Dataset train = blobs(60, 0.7, 11);
  const Dataset test = blobs(30, 0.7, 99);
  auto model = makeClassifier(GetParam(), 42);
  model->train(train);
  EXPECT_GE(accuracyOn(*model, test), 0.95) << GetParam();
}

TEST_P(LearnerSeparable, DeterministicAcrossRuns) {
  const Dataset train = blobs(40, 1.0, 5);
  auto m1 = makeClassifier(GetParam(), 7);
  auto m2 = makeClassifier(GetParam(), 7);
  m1->train(train);
  m2->train(train);
  common::Rng rng(123);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.uniform(-2, 8), rng.uniform(-2, 8)};
    EXPECT_EQ(m1->predict(x), m2->predict(x));
  }
}

TEST_P(LearnerSeparable, SerializationPreservesPredictions) {
  if (GetParam() == "mostfreq") GTEST_SKIP();
  const Dataset train = blobs(40, 0.8, 21);
  auto model = makeClassifier(GetParam(), 42);
  model->train(train);

  const std::string path =
      ::testing::TempDir() + "/model_" + GetParam().substr(0, 4) + ".txt";
  if (GetParam().rfind("knn", 0) == 0 || GetParam().rfind("mlp", 0) == 0) {
    // Comparison-only kinds are never deployed and have no file format.
    EXPECT_THROW(model->saveFile(path), Error);
    std::istringstream is(GetParam().substr(0, 3) + " 2 5 1 1\n");
    EXPECT_THROW(model->load(is), Error);
    return;
  }
  model->saveFile(path);
  std::unique_ptr<Classifier> loaded;
  if (GetParam() == "tree") {
    // A tree is serialized only inside a forest: the deployment loader
    // rejects a bare tree, and the tree's own load() reads it back.
    EXPECT_THROW(loadClassifierFile(path), Error);
    std::ifstream is(path);
    loaded = std::make_unique<DecisionTree>();
    loaded->load(is);
  } else {
    loaded = loadClassifierFile(path);
  }

  common::Rng rng(55);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x = {rng.uniform(-2, 8), rng.uniform(-2, 8)};
    EXPECT_EQ(loaded->predict(x), model->predict(x));
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, LearnerSeparable,
                         ::testing::Values("tree", "forest:32", "knn:5",
                                           "mlp:16"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == ':' || c == ',') c = '_';
                           }
                           return name;
                         });

TEST(DecisionTree, PureLeafShortCircuit) {
  Dataset d;
  d.featureNames = {"x"};
  for (int i = 0; i < 10; ++i) d.add({static_cast<double>(i)}, 1, "g");
  DecisionTree tree;
  tree.train(d);
  EXPECT_EQ(tree.nodeCount(), 1u);
  EXPECT_EQ(tree.predict({3.0}), 1);
}

TEST(DecisionTree, RespectsMaxDepth) {
  const Dataset train = blobs(100, 2.5, 31);  // overlapping blobs
  TreeOptions opts;
  opts.maxDepth = 3;
  DecisionTree tree(opts, 42);
  tree.train(train);
  EXPECT_LE(tree.depth(), 3);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  const Dataset train = blobs(80, 2.2, 41);
  const Dataset test = blobs(60, 2.2, 142);
  DecisionTree tree(TreeOptions{}, 42);
  tree.train(train);
  RandomForest forest(ForestOptions{.numTrees = 64}, 42);
  forest.train(train);
  EXPECT_GE(accuracyOn(forest, test) + 0.02, accuracyOn(tree, test));
  EXPECT_EQ(forest.numTrees(), 64u);
}

TEST(RandomForest, ScoresSumToOne) {
  const Dataset train = blobs(30, 1.0, 51);
  RandomForest forest(ForestOptions{.numTrees = 16}, 42);
  forest.train(train);
  const auto s = forest.scores({1.0, 1.0});
  double sum = 0.0;
  for (const double v : s) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

/// Eight overlapping classes in 4-D; class 7 has only two rows, so it is
/// absent from about one bootstrap in seven. Three features are rounded
/// to integers, so rows of different classes coincide and some leaves
/// stay mixed (fractions such as 1/3 whose sums depend on the order).
Dataset skewedBlobs(std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  data.featureNames = {"a", "b", "c", "d"};
  for (int c = 0; c < 8; ++c) {
    const std::size_t rows = c == 7 ? 2 : 20;
    for (std::size_t i = 0; i < rows; ++i) {
      data.add({std::round(c + rng.gaussian(0.0, 1.5)),
                std::round((c % 3) + rng.gaussian(0.0, 1.0)),
                rng.uniform(0.0, 1e6),
                std::round((c * c) % 5 + rng.gaussian(0.0, 1.0))},
               c, "prog" + std::to_string(i % 3));
    }
  }
  data.numClasses = 8;
  return data;
}

/// The dense per-tree reference: every member tree's full leaf
/// distribution on the normalized input, summed in tree order, divided by
/// the tree count. The compiled forest must reproduce it bit for bit, and
/// predict() must be its first-maximum argmax.
void expectMatchesPerTreeSum(const RandomForest& forest,
                             const std::vector<std::vector<double>>& probes) {
  for (const auto& x : probes) {
    const auto z = forest.normalizer().transform(x);
    std::vector<double> reference(
        static_cast<std::size_t>(forest.numClasses()), 0.0);
    for (std::size_t t = 0; t < forest.numTrees(); ++t) {
      const auto s = forest.tree(t).scores(z);
      for (std::size_t c = 0; c < reference.size(); ++c) reference[c] += s[c];
    }
    for (double& v : reference) v /= static_cast<double>(forest.numTrees());

    const auto scores = forest.scores(x);
    ASSERT_EQ(scores.size(), reference.size());
    EXPECT_EQ(std::memcmp(scores.data(), reference.data(),
                          scores.size() * sizeof(double)),
              0);
    EXPECT_EQ(forest.predict(x),
              std::max_element(reference.begin(), reference.end()) -
                  reference.begin());
  }
}

/// Doubles at the edges of the format: signed zeros, infinities, NaN,
/// subnormals, the smallest normals and the largest finite values.
const std::vector<double>& specialValues() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::min(),
      -std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max()};
  return values;
}

/// Probes around every folded threshold: for each raw threshold T on each
/// feature, a few seeded base rows with that feature set to the doubles
/// just below T, T itself and just above T. Plus every special value in
/// every feature of a few base rows, and rows made only of one special
/// value.
std::vector<std::vector<double>> edgeProbes(
    const RandomForest& forest, const std::vector<std::vector<double>>& rows,
    std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  common::Rng rng(seed);
  std::vector<std::vector<double>> probes;
  const std::size_t width = rows.front().size();
  for (std::size_t f = 0; f < width; ++f) {
    for (const double t : forest.rawThresholds(static_cast<int>(f))) {
      for (int k = 0; k < 2; ++k) {
        std::vector<double> x = rows[rng.below(rows.size())];
        for (const double v :
             {std::nextafter(t, -kInf), t, std::nextafter(t, kInf)}) {
          x[f] = v;
          probes.push_back(x);
        }
      }
    }
    for (const double v : specialValues()) {
      std::vector<double> x = rows[rng.below(rows.size())];
      x[f] = v;
      probes.push_back(x);
    }
  }
  for (const double v : specialValues()) {
    probes.emplace_back(width, v);
  }
  return probes;
}

TEST(RandomForest, CompiledScoresEqualThePerTreeSumBitForBit) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const Dataset& train : {blobs(40, 1.5, seed), skewedBlobs(seed)}) {
      auto model = makeClassifier("forest:32", seed);
      model->train(train);
      const auto& forest = dynamic_cast<const RandomForest&>(*model);
      std::vector<std::vector<double>> probes = train.X;
      const Dataset unseen =
          train.numClasses == 3 ? blobs(20, 3.0, seed + 100)
                                : skewedBlobs(seed + 100);
      probes.insert(probes.end(), unseen.X.begin(), unseen.X.end());
      const auto edges = edgeProbes(forest, train.X, seed);
      probes.insert(probes.end(), edges.begin(), edges.end());
      expectMatchesPerTreeSum(forest, probes);

      // load() compiles too: the reloaded forest matches its own trees and
      // the original bit for bit, and saves the same bytes back.
      std::stringstream text;
      model->save(text);
      const std::string saved = text.str();
      const auto loaded = loadClassifier(text);
      const auto& back = dynamic_cast<const RandomForest&>(*loaded);
      expectMatchesPerTreeSum(back, probes);
      for (const auto& x : probes) {
        const auto a = forest.scores(x);
        const auto b = back.scores(x);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                  0);
      }
      std::ostringstream again;
      loaded->save(again);
      EXPECT_EQ(again.str(), saved);
    }
  }
}

TEST(RandomForest, UntrainableForestIsRejected) {
  RandomForest forest(ForestOptions{.numTrees = 0}, 42);
  EXPECT_THROW(forest.train(blobs(10, 1.0, 5)), Error);
}

/// A one-feature, one-tree forest whose root splits at 0.5 into a class-0
/// and a class-1 leaf; `tree` replaces the tree section.
std::string oneTreeForest(const std::string& tree) {
  return "forest 2 1\nnormalizer 1\n0 1\n" + tree;
}

const char* const kValidTree =
    "tree 2 3 0\n"
    "0 0.5 1 2 0 0.5 0.5\n"
    "-1 0 -1 -1 0 1 0\n"
    "-1 0 -1 -1 1 0 1\n";

std::unique_ptr<Classifier> loadText(const std::string& text) {
  std::istringstream is(text);
  return loadClassifier(is);
}

/// A standalone tree, read by the tree's own load() (the deployment
/// loader accepts trees only inside a forest).
std::unique_ptr<Classifier> loadTree(const std::string& text) {
  std::istringstream is(text);
  auto tree = std::make_unique<DecisionTree>();
  tree->load(is);
  return tree;
}

/// A two-feature, one-tree forest: the root splits feature `feature` at
/// normalized threshold `threshold` into a class-0 and a class-1 leaf.
/// Feature 0 has mean 0.3 and scale 2.5; feature 1 is a zero-variance
/// column (mean 5, scale `zeroScale`, 0 or -0).
std::string oneSplitForest(int feature, const std::string& threshold,
                           const std::string& zeroScale = "0") {
  return "forest 2 1\nnormalizer 2\n0.3 2.5\n5 " + zeroScale +
         "\ntree 2 3 0\n" + std::to_string(feature) + " " + threshold +
         " 1 2 0 0.5 0.5\n-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 0 1\n";
}

TEST(RandomForest, FoldedThresholdIsTheLastRawDoubleSentLeft) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Model files carry finite thresholds (the text loader rejects inf and
  // NaN), from tiny to the largest double.
  for (const char* t : {"0.5", "-0.5", "0", "-0", "1e-300", "-3.75", "250",
                        "1e300", "-1e300", "1.7976931348623157e308",
                        "-1.7976931348623157e308"}) {
    const auto model = loadText(oneSplitForest(0, t));
    const auto& forest = dynamic_cast<const RandomForest&>(*model);
    const double threshold = std::stod(t);
    const auto raw = forest.rawThresholds(0);
    ASSERT_EQ(raw.size(), 1u) << t;
    const double fold = raw[0];
    const auto left = [&](double x) {
      return forest.normalizer().transformOne(0, x) <= threshold;
    };
    if (std::isnan(fold)) {
      EXPECT_FALSE(left(-kInf)) << t;  // nothing goes left
    } else {
      EXPECT_TRUE(left(fold)) << t;
      if (fold != kInf) {
        EXPECT_FALSE(left(std::nextafter(fold, kInf))) << t;
      }
    }
    std::vector<std::vector<double>> probes;
    for (const double v : specialValues()) probes.push_back({v, 1.0});
    if (std::isfinite(fold)) {
      for (const double v : {std::nextafter(fold, -kInf), fold,
                             std::nextafter(fold, kInf)}) {
        probes.push_back({v, 1.0});
      }
    }
    expectMatchesPerTreeSum(forest, probes);
  }
}

TEST(RandomForest, PredictIsTheFirstMaximumOfTheDividedScores) {
  // Two single-leaf trees. Exact ties go to the first label; so do votes
  // that differ but divide to the same score: a subnormal vote halves to
  // 0, the score of the empty label before it.
  const std::string leaf = "tree 2 1 0\n-1 0 -1 -1 0 ";
  for (const auto& [a, b, expected] :
       std::vector<std::tuple<std::string, std::string, int>>{
           {"0.5 0.5", "0.5 0.5", 0},
           {"0.25 0.75", "0.5 0.5", 1},
           {"0 4.9406564584124654e-324", "0 0", 0},
           {"0 1e-310", "0 0", 1}}) {
    const auto model = loadText("forest 2 2\nnormalizer 1\n0 1\n" + leaf +
                                a + "\n" + leaf + b + "\n");
    const auto& forest = dynamic_cast<const RandomForest&>(*model);
    expectMatchesPerTreeSum(forest, {{0.0}, {-1.0}});
    EXPECT_EQ(forest.predict({0.0}), expected) << a << " + " << b;
  }
}

TEST(RandomForest, ZeroVarianceSplitsSendInfinitiesRight) {
  // A zero-variance column standardizes every finite input to ±0 and ±inf
  // to NaN: a split at t >= 0 sends finite inputs left and ±inf right, a
  // split at t < 0 sends everything right.
  for (const char* scale : {"0", "-0"}) {
    for (const char* t : {"0.5", "0", "-0", "-0.5", "1e300"}) {
      const auto model = loadText(oneSplitForest(1, t, scale));
      const auto& forest = dynamic_cast<const RandomForest&>(*model);
      std::vector<std::vector<double>> probes;
      for (const double v : specialValues()) {
        probes.push_back({0.0, v});
        probes.push_back({v, v});
      }
      probes.push_back({0.0, 5.0});
      probes.push_back({0.0, -7.0});
      expectMatchesPerTreeSum(forest, probes);
      const bool finiteLeft = std::stod(t) >= 0.0;
      EXPECT_EQ(forest.predict({0.0, 1e300}), finiteLeft ? 0 : 1) << t;
      EXPECT_EQ(forest.predict({0.0, -1e300}), finiteLeft ? 0 : 1) << t;
      EXPECT_EQ(forest.predict(
                    {0.0, -std::numeric_limits<double>::infinity()}),
                1)
          << t;
      // The compiled form round-trips through the unchanged file format.
      std::ostringstream saved;
      forest.save(saved);
      const auto back = loadText(saved.str());
      expectMatchesPerTreeSum(dynamic_cast<const RandomForest&>(*back),
                              probes);
    }
  }
}

TEST(ModelLoad, ValidHandWrittenForestLoadsAndPredicts) {
  const auto model = loadText(oneTreeForest(kValidTree));
  EXPECT_EQ(model->predict({0.0}), 0);
  EXPECT_EQ(model->predict({5.0}), 1);
}

TEST(ModelLoad, StructurallyInvalidTreesAreRejected) {
  const std::vector<std::pair<const char*, std::string>> hostile = {
      // The root is its own left child: a walk would never end.
      {"self loop", "tree 2 3 0\n0 0.5 0 2 0 0.5 0.5\n"
                    "-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 0 1\n"},
      // Node 1 points back at the root.
      {"back edge", "tree 2 3 0\n0 0.5 1 2 0 0.5 0.5\n"
                    "0 0.5 0 2 0 0.5 0.5\n-1 0 -1 -1 1 0 1\n"},
      {"child out of range", "tree 2 3 0\n0 0.5 1 7000000 0 0.5 0.5\n"
                             "-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 0 1\n"},
      {"feature out of range", "tree 2 3 0\n90000000 0.5 1 2 0 0.5 0.5\n"
                               "-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 0 1\n"},
      {"class-count mismatch", "tree 3 3 0\n0 0.5 1 2 0 0.5 0.5 0\n"
                               "-1 0 -1 -1 0 1 0 0\n-1 0 -1 -1 1 0 1 0\n"},
      {"negative fraction", "tree 2 3 0\n0 0.5 1 2 0 0.5 0.5\n"
                            "-1 0 -1 -1 0 1 -0.5\n-1 0 -1 -1 1 0 1\n"},
      {"label out of range", "tree 2 3 0\n0 0.5 1 2 0 0.5 0.5\n"
                             "-1 0 -1 -1 5 1 0\n-1 0 -1 -1 1 0 1\n"},
      {"empty tree", "tree 2 0 0\n"},
      // Both children are node 1: a DAG, not a tree.
      {"shared child", "tree 2 3 0\n0 0.5 1 1 0 0.5 0.5\n"
                       "-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 0 1\n"},
      // Nodes 0 and 1 both claim node 2.
      {"two parents", "tree 2 4 0\n0 0.5 1 2 0 0.5 0.5\n"
                      "0 0.7 2 3 0 0.5 0.5\n-1 0 -1 -1 0 1 0\n"
                      "-1 0 -1 -1 1 0 1\n"},
  };
  for (const auto& [what, tree] : hostile) {
    EXPECT_THROW(loadText(oneTreeForest(tree)), Error) << what;
  }
  EXPECT_THROW(loadText("forest 2 0\nnormalizer 1\n0 1\n"), Error)
      << "no trees";
  // A negative scale would make the standardization decreasing.
  EXPECT_THROW(loadText("forest 2 1\nnormalizer 1\n0 -1\n" +
                        std::string(kValidTree)),
               Error)
      << "negative scale";
  // A standalone tree is held to the same structure.
  EXPECT_THROW(loadTree("tree 2 3 1\n0 0.5 0 2 0 0.5 0.5\n"
                        "-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 0 1\n"
                        "normalizer 1\n0 1\n"),
               Error)
      << "standalone self loop";
  // A tree saved without its own normalizer cannot know the input width
  // at load, so its walk checks each split feature against the input.
  const auto bare = loadTree(
      "tree 2 3 0\n5 0.5 1 2 0 0.5 0.5\n"
      "-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 0 1\n");
  EXPECT_THROW(bare->predict({0.0}), Error);
}

TEST(ModelLoad, HostileCountsThrowInsteadOfAllocating) {
  // Each length field below once sized an allocation before any data was
  // read (10^8 nodes reached gigabytes); each must surface as tp::Error
  // from reading the first missing element or from the bound check.
  EXPECT_THROW(loadText(oneTreeForest("tree 2 100000000 0\n")), Error);
  EXPECT_THROW(loadText(oneTreeForest("tree 2000000000 1 0\n"
                                      "-1 0 -1 -1 0 1\n")),
               Error);
  EXPECT_THROW(loadText("forest 2 4000000000\nnormalizer 1\n0 1\n"), Error);
  EXPECT_THROW(loadText("forest 2 1\nnormalizer 1000000000000\n0 1\n"),
               Error);
  std::istringstream normalizer("normalizer 18446744073709551615\n0 1\n");
  Normalizer norm;
  EXPECT_THROW(norm.load(normalizer), Error);
  // Kinds that are never deployed are rejected by their tag, before any
  // count is read: this 31-byte MLP blob once asked for more than 1 GB.
  const std::string mlpBlob = "mlp 2 20000000 normalizer 1 0 1";
  ASSERT_EQ(mlpBlob.size(), 31u);
  EXPECT_THROW(loadText(mlpBlob), Error);
  EXPECT_THROW(loadText("knn 2 5 4000000000 4000000000\nnormalizer 1\n0 1\n"),
               Error);
  EXPECT_THROW(loadText(kValidTree), Error) << "bare tree";
}

TEST(Mlp, ConvergesOnSeparableData) {
  const Dataset train = blobs(50, 0.6, 61);
  MlpClassifier mlp(MlpOptions{.hiddenLayers = {16}, .epochs = 200}, 42);
  mlp.train(train);
  EXPECT_LT(mlp.finalTrainingLoss(), 0.2);
}

TEST(Knn, ExactNeighborWins) {
  Dataset d;
  d.featureNames = {"x", "y"};
  d.add({0.0, 0.0}, 0, "g");
  d.add({10.0, 10.0}, 1, "g");
  d.numClasses = 2;
  KnnClassifier knn(1);
  knn.train(d);
  EXPECT_EQ(knn.predict({0.1, 0.1}), 0);
  EXPECT_EQ(knn.predict({9.5, 9.9}), 1);
}

TEST(MostFrequent, PredictsMajorityEverywhere) {
  Dataset d = blobs(10, 1.0, 71);
  d.y.assign(d.size(), 2);
  auto model = makeClassifier("mostfreq");
  model->train(d);
  EXPECT_EQ(model->predict({100.0, -100.0}), 2);
  // The base scores(): one-hot on the predicted label.
  std::vector<double> oneHot(static_cast<std::size_t>(d.numClasses), 0.0);
  oneHot[2] = 1.0;
  EXPECT_EQ(model->scores({100.0, -100.0}), oneHot);
  // A deployable kind: it loads back and saves the same bytes.
  std::ostringstream saved, resaved;
  model->save(saved);
  loadText(saved.str())->save(resaved);
  EXPECT_EQ(resaved.str(), saved.str());
}

TEST(Factory, RejectsUnknownSpec) {
  EXPECT_THROW(makeClassifier("svm"), Error);
}

TEST(TwoStage, RefinesWithinFamilies) {
  // 4 fine labels in 2 families: {0,1} → family 0 (x < 3), {2,3} → family 1.
  common::Rng rng(81);
  Dataset d;
  d.featureNames = {"x", "y"};
  for (int i = 0; i < 400; ++i) {
    const double x = rng.uniform(0.0, 6.0);
    const double y = rng.uniform(0.0, 1.0);
    const int family = x < 3.0 ? 0 : 1;
    const int fine = family * 2 + (y < 0.5 ? 0 : 1);
    d.add({x, y}, fine, "g" + std::to_string(i % 4));
  }
  d.numClasses = 4;

  TwoStageClassifier model(
      {0, 0, 1, 1}, [] { return makeClassifier("tree", 1); },
      [] { return makeClassifier("tree", 2); });
  model.train(d);
  EXPECT_EQ(model.numFamilies(), 2);
  EXPECT_GE(accuracyOn(model, d), 0.95);
  EXPECT_THROW(
      [&] {
        std::stringstream ss;
        model.save(ss);
      }(),
      Error);
}

TEST(CrossVal, KFoldCoversEverySample) {
  const Dataset d = blobs(30, 0.8, 91);
  const auto result =
      kFoldCrossVal(d, 5, [] { return makeClassifier("tree"); });
  EXPECT_EQ(result.predictions.size(), d.size());
  for (const int p : result.predictions) EXPECT_GE(p, 0);
  EXPECT_GE(result.accuracy, 0.9);
}

TEST(CrossVal, LeaveOneGroupOutHoldsOutGroups) {
  const Dataset d = blobs(30, 0.8, 101);
  const auto result =
      leaveOneGroupOut(d, [] { return makeClassifier("knn:3"); });
  EXPECT_EQ(result.perGroup.size(), 3u);
  EXPECT_GE(result.accuracy, 0.9);
  for (const auto& [group, acc] : result.perGroup) {
    EXPECT_GE(acc, 0.8) << group;
  }
}

TEST(CrossVal, ConfusionMatrixCounts) {
  const auto m = confusionMatrix({0, 0, 1, 1, 2}, {0, 1, 1, 1, 0}, 3);
  EXPECT_EQ(m[0][0], 1);
  EXPECT_EQ(m[0][1], 1);
  EXPECT_EQ(m[1][1], 2);
  EXPECT_EQ(m[2][0], 1);
  EXPECT_EQ(m[2][2], 0);
}

TEST(Pca, RecoversDominantDirection) {
  // Points along y = 2x with small noise: first component ∝ (1, 2)/√5.
  common::Rng rng(111);
  std::vector<std::vector<double>> X;
  for (int i = 0; i < 500; ++i) {
    const double t = rng.gaussian(0.0, 3.0);
    X.push_back({t + rng.gaussian(0.0, 0.05), 2 * t + rng.gaussian(0.0, 0.05)});
  }
  Pca pca;
  pca.fit(X, 0.99);
  ASSERT_GE(pca.numComponents(), 1u);
  const auto z = pca.transform({1.0, 2.0});
  const auto z0 = pca.transform({0.0, 0.0});
  EXPECT_NEAR(std::fabs(z[0] - z0[0]), std::sqrt(5.0), 0.05);
}

TEST(Pca, ExplainedVarianceDescending) {
  common::Rng rng(121);
  std::vector<std::vector<double>> X;
  for (int i = 0; i < 200; ++i) {
    X.push_back({rng.gaussian(0, 5), rng.gaussian(0, 2), rng.gaussian(0, 1)});
  }
  Pca pca;
  pca.fit(X, 1.0);
  const auto& ev = pca.explainedVariance();
  for (std::size_t i = 1; i < ev.size(); ++i) EXPECT_GE(ev[i - 1], ev[i]);
  EXPECT_NEAR(ev[0], 25.0, 5.0);
}

TEST(Pca, SymmetricEigenIdentity) {
  std::vector<double> eigenvalues;
  std::vector<std::vector<double>> eigenvectors;
  Pca::symmetricEigen({{2, 0}, {0, 3}}, eigenvalues, eigenvectors);
  EXPECT_NEAR(eigenvalues[0], 3.0, 1e-9);
  EXPECT_NEAR(eigenvalues[1], 2.0, 1e-9);
}

}  // namespace
}  // namespace tp::ml

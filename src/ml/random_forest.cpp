#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/error.hpp"

namespace tp::ml {

void RandomForest::train(const Dataset& data) {
  data.validate();
  TP_REQUIRE(data.size() > 0, "RandomForest: empty training set");
  numClasses_ = data.numClasses;
  trees_.clear();

  normalizer_.fit(data.X);
  Dataset normalized;
  normalized.featureNames = data.featureNames;
  normalized.numClasses = data.numClasses;
  normalized.X = normalizer_.transformAll(data.X);
  normalized.y = data.y;
  normalized.groups = data.groups;

  const int mtry =
      options_.featuresPerSplit > 0
          ? options_.featuresPerSplit
          : std::max(1, static_cast<int>(std::round(
                            std::sqrt(static_cast<double>(data.numFeatures())))));

  trees_.reserve(static_cast<std::size_t>(options_.numTrees));
  for (int t = 0; t < options_.numTrees; ++t) {
    // Bootstrap sample (with replacement).
    std::vector<std::size_t> sample(normalized.size());
    for (auto& s : sample) s = rng_.below(normalized.size());
    Dataset bag = normalized.subset(sample);
    bag.numClasses = numClasses_;  // keep full class range even if unseen

    TreeOptions treeOptions;
    treeOptions.maxDepth = options_.maxDepth;
    treeOptions.minSamplesLeaf = options_.minSamplesLeaf;
    treeOptions.featuresPerSplit = mtry;
    treeOptions.normalizeInputs = false;  // normalized once, here
    auto tree = std::make_unique<DecisionTree>(treeOptions, rng_());
    tree->train(bag);
    trees_.push_back(std::move(tree));
  }
  compile();
}

void RandomForest::compile() {
  TP_REQUIRE(!trees_.empty(), "random forest: no trees");
  nodes_.clear();
  roots_.clear();
  leafVotes_.clear();
  for (const auto& tree : trees_) {
    TP_REQUIRE(tree->numClasses() == numClasses_,
               "random forest: a " << tree->numClasses()
                                   << "-class tree in a " << numClasses_
                                   << "-class forest");
    tree->validate(normalizer_.numFeatures());
    const int root = static_cast<int>(nodes_.size());
    roots_.push_back(root);
    for (const auto& n : tree->nodes_) {
      FlatNode flat{n.feature, n.threshold, 0, 0};
      if (n.feature >= 0) {
        flat.left = root + n.left;
        flat.right = root + n.right;
      } else {
        flat.left = static_cast<int>(leafVotes_.size());
        for (std::size_t c = 0; c < n.classFractions.size(); ++c) {
          const double f = n.classFractions[c];
          if (f != 0.0) leafVotes_.push_back({static_cast<int>(c), f});
        }
        flat.right = static_cast<int>(leafVotes_.size());
      }
      nodes_.push_back(flat);
    }
  }
}

std::vector<double> RandomForest::scores(const std::vector<double>& x) const {
  TP_ASSERT_MSG(!roots_.empty(), "predict called on untrained forest");
  const std::vector<double> z = normalizer_.transform(x);
  std::vector<double> votes(static_cast<std::size_t>(numClasses_), 0.0);
  // Each leaf adds only its nonzero fractions, tree by tree: every vote
  // gets the same additions in the same order as summing the dense leaf
  // distributions, minus additions of +0.0, which never change a sum that
  // starts at +0.0 — so the scores are bit-identical to the dense sum.
  for (const int root : roots_) {
    const FlatNode* node = &nodes_[static_cast<std::size_t>(root)];
    while (node->feature >= 0) {
      const double v = z[static_cast<std::size_t>(node->feature)];
      node = &nodes_[static_cast<std::size_t>(
          v <= node->threshold ? node->left : node->right)];
    }
    for (int i = node->left; i < node->right; ++i) {
      const LeafVote& vote = leafVotes_[static_cast<std::size_t>(i)];
      votes[static_cast<std::size_t>(vote.label)] += vote.fraction;
    }
  }
  for (double& v : votes) v /= static_cast<double>(roots_.size());
  return votes;
}

int RandomForest::predict(const std::vector<double>& x) const {
  const auto s = scores(x);
  return static_cast<int>(std::max_element(s.begin(), s.end()) - s.begin());
}

void RandomForest::save(std::ostream& os) const {
  os << "forest " << numClasses_ << ' ' << trees_.size() << "\n";
  normalizer_.save(os);
  for (const auto& tree : trees_) tree->save(os);
}

void RandomForest::load(std::istream& is) {
  std::string tag;
  std::size_t count = 0;
  is >> tag >> numClasses_ >> count;
  TP_REQUIRE(is && tag == "forest", "bad random-forest header");
  normalizer_.load(is);
  trees_.clear();
  for (std::size_t t = 0; t < count; ++t) {
    auto tree = std::make_unique<DecisionTree>();
    tree->load(is);
    trees_.push_back(std::move(tree));
  }
  compile();
}

}  // namespace tp::ml

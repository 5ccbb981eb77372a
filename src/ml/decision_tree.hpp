#pragma once

// CART decision tree (Gini impurity, axis-aligned splits).
//
// Deterministic given (data, seed). Supports per-node feature subsampling
// so RandomForest can reuse it directly as its base learner.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ml/classifier.hpp"
#include "ml/normalizer.hpp"

namespace tp::ml {

struct TreeOptions {
  int maxDepth = 16;
  int minSamplesLeaf = 1;
  /// Features examined per split; 0 = all (plain CART), >0 = random subset
  /// (random-forest mode).
  int featuresPerSplit = 0;
  /// Skip input normalization (the forest normalizes once on the outside).
  bool normalizeInputs = true;
};

class DecisionTree final : public Classifier {
public:
  explicit DecisionTree(TreeOptions options = {}, std::uint64_t seed = 42)
      : options_(options), rng_(seed) {}

  void train(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;
  std::vector<double> scores(const std::vector<double>& x) const override;
  std::string name() const override { return "tree"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  /// Number of nodes (diagnostics/tests).
  std::size_t nodeCount() const noexcept { return nodes_.size(); }
  int depth() const;

private:
  friend class RandomForest;  // compiles its trees into one flat array

  struct Node {
    int feature = -1;      ///< -1 for leaves
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    int label = -1;              ///< majority label (valid for all nodes)
    std::vector<double> classFractions;  ///< leaf class distribution
  };

  int build(const std::vector<std::vector<double>>& X,
            const std::vector<int>& y, std::vector<std::size_t>& indices,
            int depth);
  const Node& descend(const std::vector<double>& x) const;
  /// Throws tp::Error unless the nodes form a tree a walk can follow over
  /// `numFeatures` inputs: every split's feature lies in [0, numFeatures)
  /// and its children in (self, nodeCount) (so every walk is acyclic and
  /// in range), every label in [0, numClasses), and every class fraction
  /// is finite and non-negative.
  void validate(std::size_t numFeatures) const;

  TreeOptions options_;
  common::Rng rng_;
  Normalizer normalizer_;
  std::vector<Node> nodes_;
};

}  // namespace tp::ml

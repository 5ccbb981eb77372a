#pragma once

// Random forest: bagged CART trees with per-node feature subsampling and
// soft (class-fraction) voting. The default model of the reproduction —
// robust on the small, heterogeneous training sets the pipeline produces
// (a few hundred launches across 23 programs).
//
// Inference runs on a compiled form, built once by compile() at the end of
// both train() and load(): every tree's nodes in one contiguous array, and
// per leaf a range of only its nonzero class fractions (leaves grown on
// small bootstraps are nearly one-hot). compile() is also the model's
// validator, so a hostile model file fails at load with tp::Error rather
// than at predict. The trees themselves remain the serialization form.

#include <memory>

#include "ml/decision_tree.hpp"

namespace tp::ml {

struct ForestOptions {
  int numTrees = 64;
  int maxDepth = 16;
  int minSamplesLeaf = 1;
  /// 0 = sqrt(numFeatures), chosen at train time.
  int featuresPerSplit = 0;
};

class RandomForest final : public Classifier {
public:
  explicit RandomForest(ForestOptions options = {}, std::uint64_t seed = 42)
      : options_(options), rng_(seed) {}

  void train(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;
  std::vector<double> scores(const std::vector<double>& x) const override;
  std::string name() const override { return "forest"; }
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  std::size_t numTrees() const noexcept { return trees_.size(); }
  /// Member tree `t` and the normalizer applied once before every tree:
  /// the per-tree reference that decision-equivalence tests sum.
  const DecisionTree& tree(std::size_t t) const { return *trees_.at(t); }
  const Normalizer& normalizer() const noexcept { return normalizer_; }

private:
  /// A compiled node. For a split, `left`/`right` are absolute indices
  /// into nodes_; for a leaf (feature < 0) they are the [begin, end) range
  /// of its votes in leafVotes_.
  struct FlatNode {
    int feature;
    double threshold;
    int left;
    int right;
  };
  /// One nonzero class fraction of a leaf.
  struct LeafVote {
    int label;
    double fraction;
  };

  /// Validate trees_ against the normalizer and class count (tp::Error on
  /// any violation) and rebuild nodes_, roots_ and leafVotes_ from them.
  void compile();

  ForestOptions options_;
  common::Rng rng_;
  Normalizer normalizer_;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  std::vector<FlatNode> nodes_;
  std::vector<int> roots_;  ///< each tree's root in nodes_
  std::vector<LeafVote> leafVotes_;
};

}  // namespace tp::ml

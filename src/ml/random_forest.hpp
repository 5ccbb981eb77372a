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
//
// Raw-threshold contract: the compiled form reads raw features, with the
// normalizer folded into the splits. A tree split sends
// z = normalizer.transformOne(f, x) left when z <= t. For a column with a
// positive scale, z is non-decreasing in x, so that test equals x <= T for
// T, the largest double with z(T) <= t. compile() finds T against the
// exact normalizer function, by a search over the ordered doubles that
// starts from an approximate inverse; T is NaN when no double qualifies
// and +inf when every one does. NaN goes right on both sides. A
// zero-variance column maps every finite x to ±0 and ±inf to NaN, so its
// split sends all finite x one way and ±inf right; the compiled form tests
// |x| <= DBL_MAX on an appended |x| column for it. predict() and scores()
// therefore equal the normalized per-tree walk bit for bit, for every
// input. The walk visits the trees in blocks, side by side and branch-free,
// and predict() tallies votes into per-thread scratch, so a warm predict
// allocates nothing.

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
  void save(std::ostream& os) const override;
  void load(std::istream& is) override;

  std::size_t numTrees() const noexcept { return trees_.size(); }
  /// Member tree `t` and the normalizer applied once before every tree:
  /// the per-tree reference that decision-equivalence tests sum.
  const DecisionTree& tree(std::size_t t) const { return *trees_.at(t); }
  const Normalizer& normalizer() const noexcept { return normalizer_; }
  /// The raw thresholds the compiled splits on input feature `f` compare
  /// against, in node order (tests probe the doubles next to each).
  std::vector<double> rawThresholds(int f) const;

private:
  /// A compiled node. A split sends x to `child` when
  /// x[feature] <= threshold and to `child + 1` otherwise, on raw features
  /// (the normalizer is folded into the threshold). A leaf goes right to
  /// itself (threshold NaN, child = its own index - 1), so a walk of fixed
  /// length parks on it.
  struct FlatNode {
    double threshold;
    int feature;
    int child;
  };
  /// One nonzero class fraction of a leaf.
  struct LeafVote {
    int label;
    double fraction;
  };

  /// Validate trees_ against the normalizer and class count (tp::Error on
  /// any violation) and rebuild the compiled form from them.
  void compile();
  /// Add every tree's leaf fractions for `x` to `votes` (numClasses_
  /// entries, zeroed by the caller), tree by tree.
  void tally(const std::vector<double>& x, double* votes) const;

  ForestOptions options_;
  common::Rng rng_;
  Normalizer normalizer_;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  std::vector<FlatNode> nodes_;  ///< each tree's nodes in breadth-first order
  std::vector<int> roots_;       ///< each tree's root in nodes_
  /// Per block of kLanes trees: the walk length, its deepest leaf's depth.
  std::vector<int> blockDepths_;
  /// Leaf i's votes are leafVotes_[voteBegin_[i], voteBegin_[i + 1]).
  std::vector<int> voteBegin_;
  std::vector<LeafVote> leafVotes_;
  /// Source feature of each |x| column appended after the raw features
  /// (zero-variance splits only; empty for every trained forest).
  std::vector<int> absColumns_;
};

}  // namespace tp::ml

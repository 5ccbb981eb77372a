#pragma once

// Two-stage hierarchical model, following the structure used in the
// Insieme task-partitioning work: a first-stage classifier picks a coarse
// partitioning *family* (e.g. CPU-only / GPU-only / mixed), then a
// per-family second-stage classifier refines to the exact partitioning.
//
// The label→family mapping is supplied by the caller (the runtime derives
// it from the partitioning space), keeping the learner agnostic to
// scheduling semantics.

#include <functional>
#include <memory>

#include "ml/classifier.hpp"

namespace tp::ml {

using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

class TwoStageClassifier final : public Classifier {
public:
  /// `labelToFamily[label]` gives the coarse family of each fine label.
  TwoStageClassifier(std::vector<int> labelToFamily,
                     ClassifierFactory stage1Factory,
                     ClassifierFactory stage2Factory);

  void train(const Dataset& data) override;
  int predict(const std::vector<double>& x) const override;

  int numFamilies() const noexcept { return numFamilies_; }

private:
  std::vector<int> labelToFamily_;
  int numFamilies_ = 0;
  ClassifierFactory stage1Factory_;
  ClassifierFactory stage2Factory_;
  std::unique_ptr<Classifier> stage1_;
  /// One refiner per family; null when a family has a single label or no
  /// training samples (falls back to the family's majority label).
  std::vector<std::unique_ptr<Classifier>> stage2_;
  std::vector<int> familyFallbackLabel_;
};

}  // namespace tp::ml

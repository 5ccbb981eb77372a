#include "ml/two_stage.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tp::ml {

TwoStageClassifier::TwoStageClassifier(std::vector<int> labelToFamily,
                                       ClassifierFactory stage1Factory,
                                       ClassifierFactory stage2Factory)
    : labelToFamily_(std::move(labelToFamily)),
      stage1Factory_(std::move(stage1Factory)),
      stage2Factory_(std::move(stage2Factory)) {
  TP_REQUIRE(!labelToFamily_.empty(), "TwoStage: empty label→family map");
  for (const int f : labelToFamily_) {
    TP_REQUIRE(f >= 0, "TwoStage: negative family id");
    numFamilies_ = std::max(numFamilies_, f + 1);
  }
}

void TwoStageClassifier::train(const Dataset& data) {
  data.validate();
  TP_REQUIRE(data.numClasses <= static_cast<int>(labelToFamily_.size()),
             "TwoStage: dataset has labels outside the family map");
  numClasses_ = static_cast<int>(labelToFamily_.size());

  // Stage 1: same features, family labels.
  Dataset familyData;
  familyData.featureNames = data.featureNames;
  familyData.numClasses = numFamilies_;
  for (std::size_t i = 0; i < data.size(); ++i) {
    familyData.add(data.X[i],
                   labelToFamily_[static_cast<std::size_t>(data.y[i])],
                   data.groups[i]);
  }
  familyData.numClasses = numFamilies_;
  stage1_ = stage1Factory_();
  stage1_->train(familyData);

  // Stage 2: one refiner per family over that family's samples.
  stage2_.clear();
  stage2_.resize(static_cast<std::size_t>(numFamilies_));
  familyFallbackLabel_.assign(static_cast<std::size_t>(numFamilies_), 0);

  for (int f = 0; f < numFamilies_; ++f) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (labelToFamily_[static_cast<std::size_t>(data.y[i])] == f) {
        indices.push_back(i);
      }
    }
    // Fallback label: the family's most frequent fine label in training, or
    // the first label belonging to the family if unseen.
    int fallback = -1;
    if (!indices.empty()) {
      Dataset sub = data.subset(indices);
      sub.numClasses = numClasses_;
      fallback = sub.majorityLabel();
      const bool multipleLabels =
          std::any_of(sub.y.begin(), sub.y.end(),
                      [&](int label) { return label != sub.y.front(); });
      if (multipleLabels) {
        stage2_[static_cast<std::size_t>(f)] = stage2Factory_();
        stage2_[static_cast<std::size_t>(f)]->train(sub);
      }
    } else {
      for (std::size_t label = 0; label < labelToFamily_.size(); ++label) {
        if (labelToFamily_[label] == f) {
          fallback = static_cast<int>(label);
          break;
        }
      }
    }
    TP_ASSERT(fallback >= 0);
    familyFallbackLabel_[static_cast<std::size_t>(f)] = fallback;
  }
}

int TwoStageClassifier::predict(const std::vector<double>& x) const {
  TP_ASSERT_MSG(stage1_ != nullptr, "predict called on untrained two-stage");
  const int family = stage1_->predict(x);
  const auto& refiner = stage2_[static_cast<std::size_t>(family)];
  if (refiner == nullptr) {
    return familyFallbackLabel_[static_cast<std::size_t>(family)];
  }
  return refiner->predict(x);
}

}  // namespace tp::ml

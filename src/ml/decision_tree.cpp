#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>

#include "common/error.hpp"

namespace tp::ml {

namespace {

/// Loader bound on a model's class count (the partitioning spaces in use
/// have a few dozen classes): each loaded node holds this many fractions.
constexpr int kMaxClasses = 1 << 16;

double giniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sumSq = 0.0;
  for (const double c : counts) sumSq += c * c;
  return 1.0 - sumSq / (total * total);
}

}  // namespace

void DecisionTree::train(const Dataset& data) {
  data.validate();
  TP_REQUIRE(data.size() > 0, "DecisionTree: empty training set");
  numClasses_ = data.numClasses;
  nodes_.clear();

  std::vector<std::vector<double>> X;
  if (options_.normalizeInputs) {
    normalizer_.fit(data.X);
    X = normalizer_.transformAll(data.X);
  } else {
    X = data.X;
  }

  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), 0);
  build(X, data.y, indices, 0);
}

int DecisionTree::build(const std::vector<std::vector<double>>& X,
                        const std::vector<int>& y,
                        std::vector<std::size_t>& indices, int depth) {
  TP_ASSERT(!indices.empty());
  const std::size_t n = indices.size();
  const std::size_t d = X.front().size();

  std::vector<double> classCounts(static_cast<std::size_t>(numClasses_), 0.0);
  for (const std::size_t i : indices) ++classCounts[static_cast<std::size_t>(y[i])];
  const double parentGini = giniFromCounts(classCounts, static_cast<double>(n));

  Node node;
  node.label = static_cast<int>(
      std::max_element(classCounts.begin(), classCounts.end()) -
      classCounts.begin());
  node.classFractions.resize(classCounts.size());
  for (std::size_t c = 0; c < classCounts.size(); ++c) {
    node.classFractions[c] = classCounts[c] / static_cast<double>(n);
  }

  const bool pure = parentGini <= 1e-12;
  if (pure || depth >= options_.maxDepth ||
      n < 2 * static_cast<std::size_t>(options_.minSamplesLeaf)) {
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size() - 1);
  }

  // Candidate features: all or a random subset (random-forest mode).
  std::vector<std::size_t> candidates(d);
  std::iota(candidates.begin(), candidates.end(), 0);
  if (options_.featuresPerSplit > 0 &&
      static_cast<std::size_t>(options_.featuresPerSplit) < d) {
    rng_.shuffle(candidates);
    candidates.resize(static_cast<std::size_t>(options_.featuresPerSplit));
  }

  double bestGain = 1e-10;
  std::size_t bestFeature = 0;
  double bestThreshold = 0.0;

  std::vector<std::size_t> sorted = indices;
  std::vector<double> leftCounts(classCounts.size());
  for (const std::size_t f : candidates) {
    std::sort(sorted.begin(), sorted.end(),
              [&](std::size_t a, std::size_t b) { return X[a][f] < X[b][f]; });
    std::fill(leftCounts.begin(), leftCounts.end(), 0.0);
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const std::size_t i = sorted[k];
      ++leftCounts[static_cast<std::size_t>(y[i])];
      const double vk = X[i][f];
      const double vnext = X[sorted[k + 1]][f];
      if (vnext - vk <= 1e-12) continue;  // no threshold between equal values
      const double nl = static_cast<double>(k + 1);
      const double nr = static_cast<double>(n - k - 1);
      if (nl < options_.minSamplesLeaf || nr < options_.minSamplesLeaf) {
        continue;
      }
      double sumSqL = 0.0, sumSqR = 0.0;
      for (std::size_t c = 0; c < leftCounts.size(); ++c) {
        const double l = leftCounts[c];
        const double r = classCounts[c] - l;
        sumSqL += l * l;
        sumSqR += r * r;
      }
      const double giniL = 1.0 - sumSqL / (nl * nl);
      const double giniR = 1.0 - sumSqR / (nr * nr);
      const double gain =
          parentGini - (nl * giniL + nr * giniR) / static_cast<double>(n);
      if (gain > bestGain) {
        bestGain = gain;
        bestFeature = f;
        bestThreshold = 0.5 * (vk + vnext);
      }
    }
  }

  if (bestGain <= 1e-10) {  // no useful split found
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size() - 1);
  }

  std::vector<std::size_t> leftIdx, rightIdx;
  for (const std::size_t i : indices) {
    (X[i][bestFeature] <= bestThreshold ? leftIdx : rightIdx).push_back(i);
  }
  TP_ASSERT(!leftIdx.empty() && !rightIdx.empty());

  node.feature = static_cast<int>(bestFeature);
  node.threshold = bestThreshold;
  nodes_.push_back(std::move(node));
  const int self = static_cast<int>(nodes_.size() - 1);
  const int left = build(X, y, leftIdx, depth + 1);
  const int right = build(X, y, rightIdx, depth + 1);
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

const DecisionTree::Node& DecisionTree::descend(
    const std::vector<double>& x) const {
  TP_ASSERT_MSG(!nodes_.empty(), "predict called on untrained tree");
  const std::vector<double> z =
      options_.normalizeInputs ? normalizer_.transform(x) : x;
  const Node* node = &nodes_.front();
  while (node->feature >= 0) {
    // Loaded trees without their own normalizer are validated against no
    // input width, so the width is checked here.
    const auto feature = static_cast<std::size_t>(node->feature);
    TP_REQUIRE(feature < z.size(), "decision tree: split on feature "
                                       << feature << " of a " << z.size()
                                       << "-feature input");
    node = &nodes_[static_cast<std::size_t>(
        z[feature] <= node->threshold ? node->left : node->right)];
  }
  return *node;
}

int DecisionTree::predict(const std::vector<double>& x) const {
  return descend(x).label;
}

std::vector<double> DecisionTree::scores(const std::vector<double>& x) const {
  return descend(x).classFractions;
}

int DecisionTree::depth() const {
  // Depth by recomputation over the implicit tree structure.
  std::vector<int> depth(nodes_.size(), 0);
  int maxDepth = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& node = nodes_[i];
    if (node.feature >= 0) {
      depth[static_cast<std::size_t>(node.left)] = depth[i] + 1;
      depth[static_cast<std::size_t>(node.right)] = depth[i] + 1;
      maxDepth = std::max(maxDepth, depth[i] + 1);
    }
  }
  return maxDepth;
}

void DecisionTree::save(std::ostream& os) const {
  os.precision(17);
  os << "tree " << numClasses_ << ' ' << nodes_.size() << ' '
     << (options_.normalizeInputs ? 1 : 0) << "\n";
  for (const auto& n : nodes_) {
    os << n.feature << ' ' << n.threshold << ' ' << n.left << ' ' << n.right
       << ' ' << n.label;
    for (const double f : n.classFractions) os << ' ' << f;
    os << "\n";
  }
  if (options_.normalizeInputs) normalizer_.save(os);
}

void DecisionTree::load(std::istream& is) {
  std::string tag;
  std::size_t count = 0;
  int normalize = 0;
  is >> tag >> numClasses_ >> count >> normalize;
  TP_REQUIRE(is && tag == "tree", "bad decision-tree header");
  TP_REQUIRE(numClasses_ >= 1 && numClasses_ <= kMaxClasses,
             "decision tree: class count " << numClasses_ << " outside [1, "
                                           << kMaxClasses << "]");
  options_.normalizeInputs = normalize != 0;
  // One node at a time: a lying node count fails at the first missing
  // node instead of sizing an allocation.
  nodes_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Node n;
    is >> n.feature >> n.threshold >> n.left >> n.right >> n.label;
    n.classFractions.assign(static_cast<std::size_t>(numClasses_), 0.0);
    for (double& f : n.classFractions) is >> f;
    TP_REQUIRE(static_cast<bool>(is), "truncated decision-tree data");
    nodes_.push_back(std::move(n));
  }
  if (options_.normalizeInputs) normalizer_.load(is);
  validate(options_.normalizeInputs
               ? normalizer_.numFeatures()
               : std::numeric_limits<std::size_t>::max());
}

void DecisionTree::validate(std::size_t numFeatures) const {
  TP_REQUIRE(!nodes_.empty(), "decision tree: no nodes");
  const std::size_t count = nodes_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const Node& n = nodes_[i];
    TP_REQUIRE(n.label >= 0 && n.label < numClasses_,
               "decision tree: node " << i << " label " << n.label
                                      << " outside [0, " << numClasses_
                                      << ")");
    for (const double f : n.classFractions) {
      TP_REQUIRE(std::isfinite(f) && f >= 0.0,
                 "decision tree: node " << i << " class fraction " << f);
    }
    if (n.feature < 0) continue;  // leaf
    TP_REQUIRE(static_cast<std::size_t>(n.feature) < numFeatures,
               "decision tree: node " << i << " splits on feature "
                                      << n.feature << " of "
                                      << numFeatures);
    const auto below = [&](int child) {
      return child >= 0 && static_cast<std::size_t>(child) > i &&
             static_cast<std::size_t>(child) < count;
    };
    TP_REQUIRE(below(n.left) && below(n.right),
               "decision tree: node " << i << " children " << n.left << '/'
                                      << n.right << " outside (" << i
                                      << ", " << count << ")");
  }
}

}  // namespace tp::ml

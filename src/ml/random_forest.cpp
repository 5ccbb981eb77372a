#include "ml/random_forest.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <istream>
#include <limits>
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

namespace {

/// Trees walked side by side: their walks are independent, so the lanes
/// overlap each other's load and compare latencies (predicated,
/// interleaved traversal; Asadi, Lin and de Vries, TKDE 2014).
constexpr std::size_t kLanes = 8;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The non-NaN doubles as increasing unsigned keys, -inf first, then -0
/// just below +0, +inf last.
std::uint64_t orderedKey(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (1ull << 63);
}

double fromOrderedKey(std::uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0 ? key & ~(1ull << 63)
                                                : ~key);
}

/// The largest double T with below(T), for a predicate that holds on a
/// prefix of the non-NaN doubles in order: NaN when it holds for none,
/// +inf when it holds for all. Otherwise a search over the ordered keys
/// gallops out from `guess` (usually within an ulp or two of T) until it
/// brackets T, then bisects the bracket.
template <class Below>
double lastBelow(const Below& below, double guess) {
  if (!below(-kInf)) return kNaN;
  if (below(kInf)) return kInf;
  const std::uint64_t first = orderedKey(-kInf);
  const std::uint64_t last = orderedKey(kInf);
  std::uint64_t lo = first;  // below(lo)
  std::uint64_t hi = last;   // !below(hi)
  if (!std::isnan(guess)) {
    const std::uint64_t g = orderedKey(guess);
    if (below(fromOrderedKey(g))) {
      lo = g;
      for (std::uint64_t step = 1;; step *= 2) {
        const std::uint64_t next = last - lo <= step ? last : lo + step;
        if (!below(fromOrderedKey(next))) {
          hi = next;
          break;
        }
        lo = next;
      }
    } else {
      hi = g;
      for (std::uint64_t step = 1;; step *= 2) {
        const std::uint64_t next = hi - first <= step ? first : hi - step;
        if (below(fromOrderedKey(next))) {
          lo = next;
          break;
        }
        hi = next;
      }
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (below(fromOrderedKey(mid)) ? lo : hi) = mid;
  }
  return fromOrderedKey(lo);
}

}  // namespace

void RandomForest::compile() {
  TP_REQUIRE(!trees_.empty(), "random forest: no trees");
  const std::size_t width = normalizer_.numFeatures();
  nodes_.clear();
  roots_.clear();
  blockDepths_.clear();
  voteBegin_.assign(1, 0);
  leafVotes_.clear();
  absColumns_.clear();
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const DecisionTree& tree = *trees_[t];
    TP_REQUIRE(tree.numClasses() == numClasses_,
               "random forest: a " << tree.numClasses()
                                   << "-class tree in a " << numClasses_
                                   << "-class forest");
    tree.validate(width);
    const int root = static_cast<int>(nodes_.size());
    roots_.push_back(root);
    if (t % kLanes == 0) blockDepths_.push_back(0);
    // Breadth-first: each split's children are appended side by side, and
    // nodes are emitted in the order they are appended.
    std::vector<int> order{0};
    std::vector<int> depth{0};
    for (std::size_t k = 0; k < order.size(); ++k) {
      const auto& n = tree.nodes_[static_cast<std::size_t>(order[k])];
      const int self = root + static_cast<int>(k);
      if (n.feature < 0) {
        nodes_.push_back({kNaN, 0, self - 1});
        for (std::size_t c = 0; c < n.classFractions.size(); ++c) {
          const double f = n.classFractions[c];
          if (f != 0.0) leafVotes_.push_back({static_cast<int>(c), f});
        }
      } else {
        FlatNode flat{0.0, n.feature,
                      root + static_cast<int>(order.size())};
        const auto f = static_cast<std::size_t>(n.feature);
        if (normalizer_.inverseStd(f) > 0.0) {
          flat.threshold = lastBelow(
              [&](double x) {
                return normalizer_.transformOne(f, x) <= n.threshold;
              },
              normalizer_.inverseTransformOne(f, n.threshold));
        } else if (0.0 <= n.threshold) {
          // Zero variance: finite x go left, ±inf (z = NaN) right.
          auto column = std::find(absColumns_.begin(), absColumns_.end(),
                                  n.feature);
          if (column == absColumns_.end()) {
            column = absColumns_.insert(column, n.feature);
          }
          flat.feature = static_cast<int>(
              width + static_cast<std::size_t>(column - absColumns_.begin()));
          flat.threshold = std::numeric_limits<double>::max();
        } else {
          flat.threshold = kNaN;  // zero variance: every x goes right
        }
        nodes_.push_back(flat);
        order.push_back(n.left);
        order.push_back(n.right);
        depth.push_back(depth[k] + 1);
        depth.push_back(depth[k] + 1);
        blockDepths_.back() = std::max(blockDepths_.back(), depth[k] + 1);
      }
      voteBegin_.push_back(static_cast<int>(leafVotes_.size()));
    }
  }
}

void RandomForest::tally(const std::vector<double>& x, double* votes) const {
  TP_ASSERT_MSG(!roots_.empty(), "predict called on untrained forest");
  TP_REQUIRE(x.size() == normalizer_.numFeatures(),
             "random forest: expected " << normalizer_.numFeatures()
                                        << " features, got " << x.size());
  const double* in = x.data();
  if (!absColumns_.empty()) {
    thread_local std::vector<double> widened;
    widened.assign(x.begin(), x.end());
    for (const int f : absColumns_) {
      widened.push_back(std::fabs(x[static_cast<std::size_t>(f)]));
    }
    in = widened.data();
  }
  const FlatNode* nodes = nodes_.data();
  // Each leaf adds only its nonzero fractions, tree by tree: every vote
  // gets the same additions in the same order as summing the dense leaf
  // distributions, minus additions of +0.0, which never change a sum that
  // starts at +0.0 — so the scores are bit-identical to the dense sum.
  for (std::size_t b = 0; b < roots_.size(); b += kLanes) {
    const std::size_t lanes = std::min(kLanes, roots_.size() - b);
    int at[kLanes];
    for (std::size_t l = 0; l < lanes; ++l) at[l] = roots_[b + l];
    for (int step = blockDepths_[b / kLanes]; step > 0; --step) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const FlatNode& n = nodes[at[l]];
        at[l] = n.child + static_cast<int>(!(in[n.feature] <= n.threshold));
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto leaf = static_cast<std::size_t>(at[l]);
      for (int i = voteBegin_[leaf]; i < voteBegin_[leaf + 1]; ++i) {
        const LeafVote& vote = leafVotes_[static_cast<std::size_t>(i)];
        votes[vote.label] += vote.fraction;
      }
    }
  }
}

std::vector<double> RandomForest::rawThresholds(int f) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const FlatNode& n = nodes_[i];
    const bool split = n.child > static_cast<int>(i);  // a leaf loops back
    if (split && n.feature == f) out.push_back(n.threshold);
  }
  return out;
}

std::vector<double> RandomForest::scores(const std::vector<double>& x) const {
  std::vector<double> votes(static_cast<std::size_t>(numClasses_), 0.0);
  tally(x, votes.data());
  for (double& v : votes) v /= static_cast<double>(roots_.size());
  return votes;
}

int RandomForest::predict(const std::vector<double>& x) const {
  // Reused per thread: a warm predict allocates nothing.
  thread_local std::vector<double> votes;
  votes.assign(static_cast<std::size_t>(numClasses_), 0.0);
  tally(x, votes.data());
  // The first maximum of the scores (votes / trees), dividing only votes
  // near the top one: division by the tree count is monotone, so the top
  // vote has the top score, and a vote below `near` divides to a smaller
  // score. (Rounding moves a quotient by at most 2^-53 of it, or by 2^-1075
  // among subnormals; the relative and absolute slack in `near` are far
  // wider.)
  const double trees = static_cast<double>(roots_.size());
  const double top = *std::max_element(votes.begin(), votes.end());
  const double topScore = top / trees;
  const double near = top * 0.999999 - trees * 1e-300;
  std::size_t label = 0;
  while (!(votes[label] >= near && votes[label] / trees == topScore)) {
    ++label;
  }
  return static_cast<int>(label);
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

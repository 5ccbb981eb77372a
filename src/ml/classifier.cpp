#include "ml/classifier.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/str.hpp"
#include "ml/decision_tree.hpp"
#include "ml/knn.hpp"
#include "ml/mlp.hpp"
#include "ml/random_forest.hpp"

namespace tp::ml {

namespace {

/// Baseline: always predicts the most frequent training label. This is the
/// floor any learned model must beat.
class MostFrequentClassifier final : public Classifier {
public:
  void train(const Dataset& data) override {
    data.validate();
    TP_REQUIRE(data.size() > 0, "MostFrequent: empty training set");
    numClasses_ = data.numClasses;
    label_ = data.majorityLabel();
  }
  int predict(const std::vector<double>&) const override { return label_; }
  void save(std::ostream& os) const override {
    os << "mostfreq " << numClasses_ << ' ' << label_ << "\n";
  }
  void load(std::istream& is) override {
    std::string tag;
    is >> tag >> numClasses_ >> label_;
    TP_REQUIRE(is && tag == "mostfreq", "bad mostfreq header");
  }

private:
  int label_ = 0;
};

}  // namespace

std::vector<double> Classifier::scores(const std::vector<double>& x) const {
  std::vector<double> out(static_cast<std::size_t>(numClasses_), 0.0);
  const int label = predict(x);
  TP_ASSERT(label >= 0 && label < numClasses_);
  out[static_cast<std::size_t>(label)] = 1.0;
  return out;
}

void Classifier::save(std::ostream&) const {
  TP_THROW("this model kind is not deployable and has no serialization");
}

void Classifier::load(std::istream&) {
  TP_THROW("this model kind is not deployable and has no serialization");
}

void Classifier::saveFile(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw IoError("cannot open model file for writing: " + path);
  save(os);
  if (!os) throw IoError("write failed: " + path);
}

std::unique_ptr<Classifier> makeClassifier(const std::string& spec,
                                           std::uint64_t seed) {
  const auto parts = common::split(spec, ':');
  const std::string& kind = parts[0];
  const std::string arg = parts.size() > 1 ? parts[1] : "";

  if (kind == "tree") {
    TreeOptions options;
    if (!arg.empty()) options.maxDepth = std::stoi(arg);
    return std::make_unique<DecisionTree>(options, seed);
  }
  if (kind == "forest") {
    ForestOptions options;
    if (!arg.empty()) options.numTrees = std::stoi(arg);
    return std::make_unique<RandomForest>(options, seed);
  }
  if (kind == "knn") {
    return std::make_unique<KnnClassifier>(arg.empty() ? 5 : std::stoi(arg));
  }
  if (kind == "mlp") {
    MlpOptions options;
    if (!arg.empty()) {
      options.hiddenLayers.clear();
      for (const auto& layer : common::split(arg, ',')) {
        options.hiddenLayers.push_back(std::stoi(layer));
      }
    }
    return std::make_unique<MlpClassifier>(options, seed);
  }
  if (kind == "mostfreq") return std::make_unique<MostFrequentClassifier>();

  TP_THROW("unknown classifier spec '" << spec
                                       << "' (expected tree/forest/knn/mlp/"
                                          "mostfreq)");
}

bool isDeployableSpec(const std::string& spec) {
  const std::string kind = common::split(spec, ':')[0];
  return kind == "forest" || kind == "mostfreq";
}

std::unique_ptr<Classifier> loadClassifier(std::istream& is) {
  // Peek the header tag, then rewind so each model's load() sees its own
  // header (models validate it themselves).
  const std::istream::pos_type start = is.tellg();
  std::string tag;
  is >> tag;
  is.clear();
  is.seekg(start);
  std::unique_ptr<Classifier> model;
  if (tag == "forest") {
    model = std::make_unique<RandomForest>();
  } else if (tag == "mostfreq") {
    model = std::make_unique<MostFrequentClassifier>();
  } else {
    throw IoError("model tag '" + tag +
                  "' is not a deployable model (expected forest or "
                  "mostfreq)");
  }
  model->load(is);
  return model;
}

std::unique_ptr<Classifier> loadClassifierFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("cannot open model file: " + path);
  try {
    return loadClassifier(is);
  } catch (const IoError& e) {
    throw IoError(std::string(e.what()) + " in " + path);
  }
}

}  // namespace tp::ml

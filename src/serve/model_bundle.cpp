#include "serve/model_bundle.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dagt::serve {

namespace {

constexpr const char* kManifestFile = "manifest.dagtmf";
constexpr const char* kWeightsFile = "weights.dagtprm";

std::string joinNodes(const std::vector<netlist::TechNode>& nodes) {
  std::string out;
  for (const auto node : nodes) {
    if (!out.empty()) out += ',';
    out += netlist::techNodeName(node);
  }
  return out;
}

std::vector<netlist::TechNode> splitNodes(const std::string& joined) {
  std::vector<netlist::TechNode> nodes;
  std::stringstream ss(joined);
  std::string item;
  while (std::getline(ss, item, ',')) {
    nodes.push_back(netlist::techNodeFromName(item));
  }
  DAGT_CHECK_MSG(!nodes.empty(), "empty vocabulary node list");
  return nodes;
}

/// `token` as a whole-token integer: "64x" and "" are rejected, not
/// truncated to their numeric prefix.
std::int64_t parseInt(const std::string& token) {
  std::int64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  DAGT_CHECK_MSG(ec == std::errc() && ptr == end && !token.empty(),
                 "'" << token << "' is not an integer");
  return value;
}

std::int64_t parseDim(const std::string& token) {
  const std::int64_t value = parseInt(token);
  DAGT_CHECK_MSG(value > 0, "dimension " << value << " is not positive");
  return value;
}

/// A feature normalization constant: whole-token, finite and positive
/// (every served feature is divided by it).
float parseScale(const std::string& token) {
  float value = 0.0f;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  DAGT_CHECK_MSG(ec == std::errc() && ptr == end && !token.empty(),
                 "'" << token << "' is not a number");
  DAGT_CHECK_MSG(std::isfinite(value) && value > 0.0f,
                 "scale " << token << " is not finite and positive");
  return value;
}

}  // namespace

void ModelBundle::describeModel(const core::TimingModel& model,
                                BundleManifest* manifest) {
  if (const auto* dac23 = dynamic_cast<const core::Dac23Model*>(&model)) {
    manifest->modelKind = "dac23";
    manifest->variant = dac23->perNodeReadout() ? "per_node" : "shared";
    return;
  }
  if (const auto* ours = dynamic_cast<const core::OursModel*>(&model)) {
    manifest->modelKind = "ours";
    switch (ours->variant()) {
      case core::OursVariant::kFull: manifest->variant = "full"; break;
      case core::OursVariant::kDaOnly: manifest->variant = "da_only"; break;
      case core::OursVariant::kBayesOnly:
        manifest->variant = "bayes_only";
        break;
    }
    return;
  }
  DAGT_CHECK_MSG(false, "cannot bundle an unknown TimingModel subclass");
}

std::unique_ptr<core::TimingModel> ModelBundle::instantiate(
    const BundleManifest& manifest) {
  // Weight values are about to be overwritten by loadParameters; the seed
  // only shapes the throwaway init.
  Rng rng(1);
  if (manifest.modelKind == "dac23") {
    DAGT_CHECK_MSG(
        manifest.variant == "shared" || manifest.variant == "per_node",
        "unknown dac23 variant '" << manifest.variant << "'");
    return std::make_unique<core::Dac23Model>(
        manifest.pinFeatureDim, manifest.model,
        manifest.variant == "per_node", rng);
  }
  if (manifest.modelKind == "ours") {
    core::OursVariant variant;
    if (manifest.variant == "full") {
      variant = core::OursVariant::kFull;
    } else if (manifest.variant == "da_only") {
      variant = core::OursVariant::kDaOnly;
    } else if (manifest.variant == "bayes_only") {
      variant = core::OursVariant::kBayesOnly;
    } else {
      DAGT_CHECK_MSG(false,
                     "unknown ours variant '" << manifest.variant << "'");
    }
    return std::make_unique<core::OursModel>(manifest.pinFeatureDim,
                                             manifest.model, variant, rng);
  }
  DAGT_CHECK_MSG(false,
                 "unknown model kind '" << manifest.modelKind << "'");
}

void ModelBundle::save(const core::TimingModel& model,
                       BundleManifest manifest, const std::string& dir) {
  describeModel(model, &manifest);
  DAGT_CHECK_MSG(manifest.pinFeatureDim > 0,
                 "manifest.pinFeatureDim must be set before save");
  DAGT_CHECK_MSG(!manifest.vocabularyNodes.empty(),
                 "manifest.vocabularyNodes must be set before save");

  std::filesystem::create_directories(dir);
  const auto path = std::filesystem::path(dir);
  std::ofstream out(path / kManifestFile);
  DAGT_CHECK_MSG(out.good(),
                 "cannot open " << (path / kManifestFile).string());
  out << "dagt_bundle " << BundleManifest::kFormatVersion << '\n'
      << "model " << manifest.modelKind << '\n'
      << "variant " << manifest.variant << '\n'
      << "strategy " << manifest.strategy << '\n'
      << "target_node " << netlist::techNodeName(manifest.targetNode) << '\n'
      << "vocab_nodes " << joinNodes(manifest.vocabularyNodes) << '\n'
      << "pin_feature_dim " << manifest.pinFeatureDim << '\n'
      << "gnn_hidden " << manifest.model.gnnHidden << '\n'
      << "cnn_base_channels " << manifest.model.cnnBaseChannels << '\n'
      << "cnn_dim " << manifest.model.cnnDim << '\n'
      << "image_resolution " << manifest.model.imageResolution << '\n'
      << "head_hidden " << manifest.model.headHidden << '\n'
      << "distance_scale " << manifest.features.distanceScale << '\n'
      << "cap_scale " << manifest.features.capScale << '\n'
      << "fanout_scale " << manifest.features.fanoutScale << '\n';
  DAGT_CHECK_MSG(out.good(), "manifest write failed");
  out.close();

  // TimingModel::module() is non-const only because training mutates
  // parameters through it; serialization reads them.
  const_cast<core::TimingModel&>(model).module().saveParameters(
      (path / kWeightsFile).string());
}

ModelBundle ModelBundle::load(const std::string& dir) {
  const auto path = std::filesystem::path(dir);
  const std::string manifestPath = (path / kManifestFile).string();
  std::ifstream in(manifestPath);
  DAGT_CHECK_MSG(in.good(), dir << " has no " << kManifestFile
                                << " (not a model bundle?)");
  struct Field {
    std::string value;
    std::int64_t line = 0;
  };
  std::map<std::string, Field> kv;
  std::string line;
  std::int64_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string key, value;
    ls >> key;
    std::getline(ls, value);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    const auto [it, fresh] = kv.emplace(key, Field{value, lineNo});
    DAGT_CHECK_MSG(fresh, manifestPath << " line " << lineNo << ": key '"
                                       << key << "' duplicates line "
                                       << it->second.line);
  }
  // Parse one field; a failure is rethrown naming the manifest, the line
  // and the key.
  const auto field = [&](const std::string& k, auto&& parse) {
    const auto it = kv.find(k);
    DAGT_CHECK_MSG(it != kv.end(),
                   manifestPath << ": missing key '" << k << "'");
    try {
      return parse(it->second.value);
    } catch (const CheckError& e) {
      throw CheckError(manifestPath + " line " +
                       std::to_string(it->second.line) + ": key '" + k +
                       "': " + e.what());
    }
  };
  const auto text = [](const std::string& v) { return v; };
  field("dagt_bundle", [](const std::string& v) {
    const std::int64_t version = parseInt(v);
    DAGT_CHECK_MSG(version == BundleManifest::kFormatVersion,
                   "unsupported bundle format version " << version);
    return version;
  });

  ModelBundle bundle;
  BundleManifest& m = bundle.manifest_;
  m.modelKind = field("model", text);
  m.variant = field("variant", text);
  m.strategy = field("strategy", text);
  m.targetNode = field("target_node", netlist::techNodeFromName);
  m.vocabularyNodes = field("vocab_nodes", splitNodes);
  m.pinFeatureDim = field("pin_feature_dim", parseDim);
  m.model.gnnHidden = field("gnn_hidden", parseDim);
  m.model.cnnBaseChannels = field("cnn_base_channels", parseDim);
  m.model.cnnDim = field("cnn_dim", parseDim);
  m.model.imageResolution = field("image_resolution", parseDim);
  m.model.headHidden = field("head_hidden", parseDim);
  m.features.distanceScale = field("distance_scale", parseScale);
  m.features.capScale = field("cap_scale", parseScale);
  m.features.fanoutScale = field("fanout_scale", parseScale);

  bundle.model_ = instantiate(m);
  bundle.model_->module().loadParameters((path / kWeightsFile).string());
  return bundle;
}

}  // namespace dagt::serve

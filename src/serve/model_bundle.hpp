#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/model_config.hpp"
#include "core/models.hpp"
#include "features/feature_builder.hpp"
#include "netlist/cell_library.hpp"

namespace dagt::serve {

/// Everything needed to reconstruct a trained predictor away from its
/// training process: architecture, the merged gate-type vocabulary's node
/// set (the vocabulary itself is deterministic per node), and the feature
/// normalization constants the extractor was trained against.
///
/// Serialized as `manifest.dagtmf` (line-oriented `key value`, matching the
/// repo's other interchange formats) next to `weights.dagtprm`
/// (Module::saveParameters).
struct BundleManifest {
  static constexpr int kFormatVersion = 1;

  /// "dac23" or "ours" — which TimingModel subclass to instantiate.
  std::string modelKind;
  /// dac23: "shared" | "per_node"; ours: "full" | "da_only" | "bayes_only".
  std::string variant;
  /// Training strategy name, provenance only (not needed to reconstruct).
  std::string strategy;
  /// The node this predictor serves (the paper's advanced node).
  netlist::TechNode targetNode = netlist::TechNode::k7nm;
  /// Nodes of the merged gate-type vocabulary, ascending enum order. Must
  /// match training exactly or the one-hot feature layout shifts.
  std::vector<netlist::TechNode> vocabularyNodes;
  /// Width of one pin's input feature row (vocabulary + numeric features).
  std::int64_t pinFeatureDim = 0;
  core::ModelConfig model;
  features::FeatureConfig features;
};

/// A trained predictor plus its manifest, as a deployable directory:
///
///   bundle/
///     manifest.dagtmf   — BundleManifest
///     weights.dagtprm   — parameter tensors in registration order
///
/// save() and load() decouple training from serving: `dagt export` writes a
/// bundle once; any number of `dagt predict` processes (or in-process
/// PredictionEngines) load it without re-running the trainer.
class ModelBundle {
 public:
  /// Serialize a trained model under `dir` (created if absent). The
  /// manifest's modelKind/variant are overwritten from the model's actual
  /// type; the caller fills the data-pipeline fields.
  static void save(const core::TimingModel& model, BundleManifest manifest,
                   const std::string& dir);

  /// Read a bundle directory and reconstruct the predictor with the saved
  /// weights. Throws CheckError on a missing/corrupt manifest, unknown
  /// kind/variant, or weight-shape mismatch. Manifest numbers must be whole
  /// tokens, dims positive and scales finite and positive; a key may appear
  /// once. Manifest errors name the file, the line and the key.
  static ModelBundle load(const std::string& dir);

  /// Inspect a live model's concrete type (modelKind + variant fields).
  static void describeModel(const core::TimingModel& model,
                            BundleManifest* manifest);

  /// Instantiate an untrained model of the manifest's architecture.
  static std::unique_ptr<core::TimingModel> instantiate(
      const BundleManifest& manifest);

  const BundleManifest& manifest() const { return manifest_; }
  core::TimingModel& model() const { return *model_; }

  ModelBundle(ModelBundle&&) = default;
  ModelBundle& operator=(ModelBundle&&) = default;

 private:
  ModelBundle() = default;

  BundleManifest manifest_;
  std::unique_ptr<core::TimingModel> model_;
};

}  // namespace dagt::serve

#pragma once

#include "core/dataset.hpp"
#include "core/model_config.hpp"
#include "core/path_cnn.hpp"
#include "core/timing_gnn.hpp"

namespace dagt::core {

/// The timing-path feature extractor F(.) of Eq. (1):
///   u = F(G') = [ GNN(H), CNN(X) ]  in R^m,
/// where H is the design's heterogeneous pin graph and X the path-masked
/// layout image set. The GNN runs once per design; the endpoint rows of a
/// batch are then gathered and concatenated with the CNN embedding of each
/// path's masked image. A batch carrying precomputed GNN endpoint rows
/// skips the GNN.
class PathFeatureExtractor : public nn::Module {
 public:
  PathFeatureExtractor(std::int64_t pinFeatureDim, const ModelConfig& config,
                       Rng& rng);

  /// Path features u for one batch: [B, m].
  tensor::Tensor extract(const DesignBatch& batch) const;

  std::int64_t pathFeatureDim() const { return config_.pathFeatureDim(); }
  const ModelConfig& config() const { return config_; }
  const TimingGnn& gnn() const { return gnn_; }

 private:
  ModelConfig config_;
  TimingGnn gnn_;
  PathCnn cnn_;
};

}  // namespace dagt::core

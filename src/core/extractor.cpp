#include "core/extractor.hpp"

#include "common/check.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace dagt::core {

using tensor::Tensor;

PathFeatureExtractor::PathFeatureExtractor(std::int64_t pinFeatureDim,
                                           const ModelConfig& config,
                                           Rng& rng)
    : config_(config),
      gnn_(pinFeatureDim, config.gnnHidden, rng),
      cnn_(config.cnnBaseChannels, config.cnnDim, rng) {
  registerChild(gnn_);
  registerChild(cnn_);
}

Tensor PathFeatureExtractor::extract(const DesignBatch& batch) const {
  DAGT_CHECK(batch.design != nullptr);
  const auto& design = *batch.design;

  // Endpoint rows of the GNN embeddings: the batch's precomputed rows, or
  // one GNN sweep over the whole design.
  Tensor graphEmb = batch.gnnRows;
  if (!graphEmb.defined()) {
    DAGT_TRACE_SCOPE("model/gnn");
    const TimingGnn::Output gnnOut =
        gnn_.forward(*design.graph, design.pinFeatures);
    std::vector<netlist::PinId> endpointPins;
    endpointPins.reserve(batch.endpointIdx.size());
    for (const std::int64_t e : batch.endpointIdx) {
      endpointPins.push_back(
          design.paths()[static_cast<std::size_t>(e)].endpoint);
    }
    graphEmb = TimingGnn::select(gnnOut, endpointPins);
  }
  DAGT_CHECK_MSG(
      graphEmb.dim(0) == static_cast<std::int64_t>(batch.endpointIdx.size()),
      "GNN rows " << graphEmb.dim(0) << " != batch endpoints "
                  << batch.endpointIdx.size());

  // CNN over the batch of path-masked layout images.
  const Tensor layoutEmb = [&] {
    DAGT_TRACE_SCOPE("model/cnn");
    return cnn_.forward(batch.images);
  }();

  return tensor::concat1({graphEmb, layoutEmb});
}

}  // namespace dagt::core

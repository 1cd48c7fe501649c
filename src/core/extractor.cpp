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

  // GNN over the whole design once (or the batch's precomputed output);
  // endpoint rows for the batch.
  const Tensor graphEmb = [&] {
    DAGT_TRACE_SCOPE("model/gnn");
    TimingGnn::Output computed;
    const TimingGnn::Output* gnnOut = batch.gnn.get();
    if (gnnOut == nullptr) {
      computed = gnn_.forward(*design.graph, design.pinFeatures);
      gnnOut = &computed;
    }
    DAGT_CHECK_MSG(gnnOut->graph == design.graph.get(),
                   "batch GNN output belongs to another pin graph");
    std::vector<netlist::PinId> endpointPins;
    endpointPins.reserve(batch.endpointIdx.size());
    for (const std::int64_t e : batch.endpointIdx) {
      endpointPins.push_back(
          design.paths()[static_cast<std::size_t>(e)].endpoint);
    }
    return TimingGnn::select(*gnnOut, endpointPins);
  }();

  // CNN over the batch of path-masked layout images.
  const Tensor layoutEmb = [&] {
    DAGT_TRACE_SCOPE("model/cnn");
    return cnn_.forward(batch.images);
  }();

  return tensor::concat1({graphEmb, layoutEmb});
}

}  // namespace dagt::core

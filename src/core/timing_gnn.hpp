#pragma once

#include <vector>

#include "features/pin_graph.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

namespace dagt::core {

/// Timing-engine-inspired GNN (paper Section 3.1, after Guo et al. [3]):
/// one levelized sweep over the heterogeneous pin graph from primary
/// inputs to endpoints.
///
/// Per level L the embedding of its pins is
///   emb_L = relu( LayerNorm( X_L W_self
///               + mean-agg(net fanin) W_ns + max-agg(net fanin) W_nm
///               + mean-agg(cell fanin) W_cs + max-agg(cell fanin) W_cm ) )
/// where the aggregations gather source embeddings from *earlier levels* —
/// so a single sweep propagates information along arbitrarily deep timing
/// paths, exactly like an STA arrival pass (the max-aggregation mirrors the
/// max-plus semantics of arrival propagation). The shared LayerNorm keeps
/// the level-to-level recurrence contractive: without it, activations
/// compound exponentially over the tens of logic levels of a deep design.
///
/// Because the sweep is levelized, a pin's embedding depends only on its
/// own feature row and its fanin cone. forward() exploits that: given an
/// earlier output over the same graph, it recomputes only the rows whose
/// features changed plus their fanout, and shares every untouched level by
/// handle. Every op on the path (GEMM, LayerNorm, gather, segment reduce)
/// is row-independent under the kernel rounding contract, so an
/// incremental forward is bitwise equal to a cold one.
class TimingGnn : public nn::Module {
 public:
  TimingGnn(std::int64_t inputDim, std::int64_t hidden, Rng& rng);

  /// Embeddings of every pin, stored per level (level order matches the
  /// PinGraph). Keep the PinGraph alive while using the output.
  struct Output {
    std::vector<tensor::Tensor> levelEmbeddings;
    const features::PinGraph* graph = nullptr;
    /// The pin features the embeddings were computed from (a shared
    /// handle, not a copy): the diff base of a later incremental forward.
    tensor::Tensor pinFeatures;
    /// Rows this forward computed; numPins() for a cold forward.
    std::int64_t rowsRecomputed = 0;
  };

  /// pinFeatures: [numPins, inputDim] in pin-id order. With `previous` (an
  /// output over the same graph, inference only), a row is recomputed when
  /// its feature row differs from previous->pinFeatures or any fanin
  /// source was recomputed; all other rows and fully clean levels are
  /// taken from `previous`. Without it every row is recomputed.
  Output forward(const features::PinGraph& graph,
                 const tensor::Tensor& pinFeatures,
                 const Output* previous = nullptr) const;

  /// Rows of the per-level embeddings for the given pins: [pins.size(), D].
  static tensor::Tensor select(const Output& output,
                               const std::vector<netlist::PinId>& pins);

  std::int64_t hidden() const { return hidden_; }

 private:
  /// Embeddings of the given rows of `level` ([rows.size(), hidden]),
  /// gathering fanin sources from the finished levels in `done`.
  tensor::Tensor levelRows(const features::PinGraph& graph,
                           std::int32_t level,
                           const std::vector<std::int64_t>& rows,
                           const tensor::Tensor& pinFeatures,
                           const std::vector<tensor::Tensor>& done) const;

  std::int64_t inputDim_;
  std::int64_t hidden_;
  nn::Linear self_;
  nn::Linear netSum_;
  nn::Linear netMax_;
  nn::Linear cellSum_;
  nn::Linear cellMax_;
  nn::LayerNorm norm_;
};

}  // namespace dagt::core

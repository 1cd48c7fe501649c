#pragma once

#include <memory>
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
/// own feature row and its fanin cone. Memo exploits that for serving: it
/// keeps one design's level embeddings and recomputes, per query, only the
/// stale rows the queried pins read. Every op on the path (GEMM,
/// LayerNorm, gather, segment reduce) is row-independent under the kernel
/// rounding contract, so a refreshed row is bitwise equal to a cold one.
class TimingGnn : public nn::Module {
 public:
  TimingGnn(std::int64_t inputDim, std::int64_t hidden, Rng& rng);

  /// Embeddings of every pin, stored per level (level order matches the
  /// PinGraph). Keep the PinGraph alive while using the output.
  struct Output {
    std::vector<tensor::Tensor> levelEmbeddings;
    const features::PinGraph* graph = nullptr;
  };

  /// Cold forward over every pin. pinFeatures: [numPins, inputDim] in
  /// pin-id order. The reference path: training, full-design prediction
  /// and Memo's fill all run it.
  Output forward(const features::PinGraph& graph,
                 const tensor::Tensor& pinFeatures) const;

  /// Rows of the per-level embeddings for the given pins: [pins.size(), D].
  static tensor::Tensor select(const Output& output,
                               const std::vector<netlist::PinId>& pins);

  std::int64_t hidden() const { return hidden_; }

  /// Demand-driven inference memo of one design's embeddings.
  ///
  /// update() points the memo at a snapshot. A new pin graph costs one
  /// cold forward; a new feature tensor over the same graph is diffed
  /// against the last one, and its changed rows are marked stale and
  /// closed under fanout. refresh() then walks back from the queried pins
  /// through stale rows only (a clean row's fanin is clean, since stale
  /// rows are closed under fanout) and recomputes those rows level by
  /// level, patching them in place. A query outside every stale cone
  /// computes nothing; rows nobody queries stay stale across any number
  /// of snapshots.
  ///
  /// The memo keys on handles it holds (the graph's shared_ptr and the
  /// feature tensor's storage), so a freed and reused address can never
  /// pass for the memoized snapshot. Not thread-safe: callers serialize.
  class Memo {
   public:
    explicit Memo(const TimingGnn& gnn) : gnn_(gnn) {}

    /// Point the memo at (graph, pinFeatures). Returns true when this ran
    /// the cold forward (empty memo or another pin graph).
    bool update(std::shared_ptr<const features::PinGraph> graph,
                const tensor::Tensor& pinFeatures);
    /// Recompute the stale rows the given pins read; returns how many.
    std::int64_t refresh(const std::vector<netlist::PinId>& pins);
    /// Rows of the given pins, [pins.size(), hidden]. Refresh them first.
    tensor::Tensor select(const std::vector<netlist::PinId>& pins) const;

    /// Rows marked stale and not yet recomputed.
    std::int64_t staleRows() const;

   private:
    /// One cold forward over a new pin graph; builds the fanin index.
    void fill(std::shared_ptr<const features::PinGraph> graph,
              const tensor::Tensor& pinFeatures);
    std::int64_t rowOf(netlist::PinId pin) const;

    const TimingGnn& gnn_;
    std::shared_ptr<const features::PinGraph> graph_;
    tensor::Tensor features_;  // the feature tensor last diffed against
    std::vector<tensor::Tensor> levels_;
    /// Flat row index: level L's row r is row levelStart_[L] + r.
    std::vector<std::int64_t> levelStart_;
    /// Fanin sources of every flat row, both edge types (CSR).
    std::vector<std::int32_t> faninStart_;
    std::vector<std::int32_t> fanin_;
    std::vector<std::uint8_t> stale_;  // by flat row
  };

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

#include "core/timing_gnn.hpp"

#include <cstdint>
#include <cstring>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace dagt::core {

using tensor::Tensor;

TimingGnn::TimingGnn(std::int64_t inputDim, std::int64_t hidden, Rng& rng)
    : inputDim_(inputDim),
      hidden_(hidden),
      self_(inputDim, hidden, rng),
      netSum_(hidden, hidden, rng),
      netMax_(hidden, hidden, rng),
      cellSum_(hidden, hidden, rng),
      cellMax_(hidden, hidden, rng),
      norm_(hidden) {
  registerChild(self_);
  registerChild(netSum_);
  registerChild(netMax_);
  registerChild(cellSum_);
  registerChild(cellMax_);
  registerChild(norm_);
}

TimingGnn::Output TimingGnn::forward(const features::PinGraph& graph,
                                     const Tensor& pinFeatures,
                                     const Output* previous) const {
  DAGT_CHECK(pinFeatures.ndim() == 2);
  DAGT_CHECK_MSG(pinFeatures.dim(0) == graph.numPins(),
                 "pin feature rows " << pinFeatures.dim(0) << " != pins "
                                     << graph.numPins());
  DAGT_CHECK_MSG(pinFeatures.dim(1) == inputDim_,
                 "pin feature dim " << pinFeatures.dim(1) << " != "
                                    << inputDim_);
  if (previous != nullptr) {
    DAGT_CHECK_MSG(previous->graph == &graph,
                   "incremental GNN forward over a different pin graph");
    DAGT_CHECK_MSG(!tensor::NoGradGuard::gradEnabled(),
                   "incremental GNN forward is inference-only");
    DAGT_CHECK(previous->pinFeatures.shape() == pinFeatures.shape());
  }
  Output out;
  out.graph = &graph;
  out.pinFeatures = pinFeatures;
  out.levelEmbeddings.reserve(static_cast<std::size_t>(graph.numLevels()));

  // Pins whose feature row differs from the previous output's (all of them
  // for a cold forward; none when both alias one buffer).
  const auto numPins = static_cast<std::size_t>(graph.numPins());
  std::vector<std::uint8_t> changed(numPins, previous == nullptr ? 1 : 0);
  if (previous != nullptr &&
      !previous->pinFeatures.sharesStorageWith(pinFeatures)) {
    const auto inWidth = static_cast<std::size_t>(inputDim_);
    const float* now = pinFeatures.data();
    const float* before = previous->pinFeatures.data();
    for (std::size_t p = 0; p < numPins; ++p) {
      changed[p] = std::memcmp(now + p * inWidth, before + p * inWidth,
                               inWidth * sizeof(float)) != 0;
    }
  }

  // A row is dirty when its features changed or any fanin source is dirty;
  // sources sit in earlier levels, so one sweep closes the set under fanout.
  std::vector<std::vector<std::uint8_t>> dirty(
      static_cast<std::size_t>(graph.numLevels()));
  std::vector<std::int64_t> rows;
  const auto width = static_cast<std::size_t>(hidden_);
  for (std::int32_t level = 0; level < graph.numLevels(); ++level) {
    const auto& pins = graph.pinsAtLevel(level);
    auto& mark = dirty[static_cast<std::size_t>(level)];
    mark.resize(pins.size());
    for (std::size_t r = 0; r < pins.size(); ++r) {
      mark[r] = changed[static_cast<std::size_t>(pins[r])];
    }
    for (const features::LevelEdges* edges :
         {&graph.netEdgesInto(level), &graph.cellEdgesInto(level)}) {
      for (std::size_t e = 0; e < edges->size(); ++e) {
        const auto [srcLevel, srcRow] = edges->src[e];
        if (dirty[static_cast<std::size_t>(srcLevel)]
                 [static_cast<std::size_t>(srcRow)] != 0) {
          mark[static_cast<std::size_t>(edges->dstLocal[e])] = 1;
        }
      }
    }
    rows.clear();
    for (std::size_t r = 0; r < mark.size(); ++r) {
      if (mark[r] != 0) rows.push_back(static_cast<std::int64_t>(r));
    }
    if (rows.empty()) {
      // Clean level: share the previous tensor (levels are immutable).
      out.levelEmbeddings.push_back(
          previous->levelEmbeddings[static_cast<std::size_t>(level)]);
      continue;
    }
    Tensor fresh =
        levelRows(graph, level, rows, pinFeatures, out.levelEmbeddings);
    out.rowsRecomputed += static_cast<std::int64_t>(rows.size());
    if (rows.size() == pins.size()) {
      out.levelEmbeddings.push_back(std::move(fresh));
      continue;
    }
    // Patch the recomputed rows into a copy of the previous level.
    Tensor merged =
        previous->levelEmbeddings[static_cast<std::size_t>(level)].clone();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::memcpy(merged.data() + static_cast<std::size_t>(rows[i]) * width,
                  fresh.data() + i * width, width * sizeof(float));
    }
    out.levelEmbeddings.push_back(std::move(merged));
  }
  return out;
}

Tensor TimingGnn::levelRows(const features::PinGraph& graph,
                            std::int32_t level,
                            const std::vector<std::int64_t>& rows,
                            const Tensor& pinFeatures,
                            const std::vector<Tensor>& done) const {
  // Every Linear/LayerNorm here runs eagerly: row counts vary per level and
  // per edit, so compiled programs would be rebuilt instead of replayed, and
  // a recomputed row must come out of the same kernels as in a cold forward.
  const auto& pins = graph.pinsAtLevel(level);
  const auto n = static_cast<std::int64_t>(rows.size());
  const bool everyRow = rows.size() == pins.size();
  // Own features of the rows' pins.
  std::vector<std::int64_t> featureRows(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    featureRows[i] = pins[static_cast<std::size_t>(rows[i])];
  }
  Tensor h = self_.forwardEager(tensor::indexSelect0(pinFeatures, featureRows));

  // slot[r]: position of level row r among `rows`, -1 when not recomputed.
  std::vector<std::int64_t> slot;
  if (!everyRow) {
    slot.assign(pins.size(), -1);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      slot[static_cast<std::size_t>(rows[i])] = static_cast<std::int64_t>(i);
    }
  }

  // Fanin aggregation per edge type from earlier levels.
  const auto addAggregates = [&](const features::LevelEdges& edges,
                                 const nn::Linear& meanProj,
                                 const nn::Linear& maxProj) {
    // A level with edges of this type projects the aggregates of EVERY row,
    // fanin or not (an empty aggregate still adds the biases), so the rows
    // are projected even when no kept edge enters them.
    if (edges.size() == 0) return;
    features::LevelEdges kept;
    if (!everyRow) {
      // Edges into the recomputed rows, in their original order: segment
      // sums accumulate in edge order.
      for (std::size_t e = 0; e < edges.size(); ++e) {
        const std::int64_t s =
            slot[static_cast<std::size_t>(edges.dstLocal[e])];
        if (s < 0) continue;
        kept.src.push_back(edges.src[e]);
        kept.dstLocal.push_back(s);
      }
    }
    const features::LevelEdges& in = everyRow ? edges : kept;
    const Tensor sources = tensor::gatherRowsMulti(done, in.src);
    // Mean aggregation: divide the segment sums by per-pin fanin counts
    // (sum aggregation compounds with depth and overflows float32 on
    // deep designs).
    std::vector<float> invCount(static_cast<std::size_t>(n), 0.0f);
    for (const std::int64_t dst : in.dstLocal) {
      invCount[static_cast<std::size_t>(dst)] += 1.0f;
    }
    for (auto& c : invCount) c = c > 0.0f ? 1.0f / c : 0.0f;
    const Tensor aggMean = tensor::mulColVec(
        tensor::segmentSum(sources, in.dstLocal, n),
        Tensor::fromVector({n}, std::move(invCount)));
    const Tensor aggMax = tensor::segmentMax(sources, in.dstLocal, n);
    h = tensor::add(h, meanProj.forwardEager(aggMean));
    h = tensor::add(h, maxProj.forwardEager(aggMax));
  };
  addAggregates(graph.netEdgesInto(level), netSum_, netMax_);
  addAggregates(graph.cellEdgesInto(level), cellSum_, cellMax_);
  return tensor::relu(norm_.forwardEager(h));
}

Tensor TimingGnn::select(const Output& output,
                         const std::vector<netlist::PinId>& pins) {
  DAGT_CHECK(output.graph != nullptr);
  std::vector<std::pair<std::int32_t, std::int64_t>> coords;
  coords.reserve(pins.size());
  for (const netlist::PinId p : pins) {
    coords.push_back(output.graph->locate(p));
  }
  return tensor::gatherRowsMulti(output.levelEmbeddings, coords);
}

}  // namespace dagt::core

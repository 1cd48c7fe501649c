#include "core/timing_gnn.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

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
                                     const Tensor& pinFeatures) const {
  DAGT_CHECK(pinFeatures.ndim() == 2);
  DAGT_CHECK_MSG(pinFeatures.dim(0) == graph.numPins(),
                 "pin feature rows " << pinFeatures.dim(0) << " != pins "
                                     << graph.numPins());
  DAGT_CHECK_MSG(pinFeatures.dim(1) == inputDim_,
                 "pin feature dim " << pinFeatures.dim(1) << " != "
                                    << inputDim_);
  Output out;
  out.graph = &graph;
  out.levelEmbeddings.reserve(static_cast<std::size_t>(graph.numLevels()));
  std::vector<std::int64_t> rows;
  for (std::int32_t level = 0; level < graph.numLevels(); ++level) {
    rows.resize(graph.pinsAtLevel(level).size());
    std::iota(rows.begin(), rows.end(), std::int64_t{0});
    out.levelEmbeddings.push_back(
        levelRows(graph, level, rows, pinFeatures, out.levelEmbeddings));
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

bool TimingGnn::Memo::update(std::shared_ptr<const features::PinGraph> graph,
                             const Tensor& pinFeatures) {
  DAGT_CHECK(graph != nullptr);
  DAGT_CHECK_MSG(!tensor::NoGradGuard::gradEnabled(),
                 "the GNN memo is inference-only");
  if (graph != graph_) {
    fill(std::move(graph), pinFeatures);
    return true;
  }
  if (pinFeatures.sharesStorageWith(features_)) return false;
  DAGT_CHECK(pinFeatures.shape() == features_.shape());

  // Chunked diff: one compare per block of rows, row compares only inside
  // a block that differs. Changed rows (and their fanout) go stale.
  constexpr std::size_t kChunkRows = 64;
  const auto numPins = static_cast<std::size_t>(graph_->numPins());
  const auto width = static_cast<std::size_t>(pinFeatures.dim(1));
  const float* now = pinFeatures.data();
  const float* before = features_.data();
  std::size_t firstStale = numPins;
  for (std::size_t first = 0; first < numPins; first += kChunkRows) {
    const std::size_t count = std::min(kChunkRows, numPins - first);
    if (std::memcmp(now + first * width, before + first * width,
                    count * width * sizeof(float)) == 0) {
      continue;
    }
    for (std::size_t p = first; p < first + count; ++p) {
      if (std::memcmp(now + p * width, before + p * width,
                      width * sizeof(float)) == 0) {
        continue;
      }
      const auto row =
          static_cast<std::size_t>(rowOf(static_cast<netlist::PinId>(p)));
      stale_[row] = 1;
      firstStale = std::min(firstStale, row);
    }
  }
  features_ = pinFeatures;

  // Close under fanout. Every fanin source sits in an earlier level, so at
  // a lower flat row: one ascending pass reaches all of the fanout.
  for (std::size_t row = firstStale; row < numPins; ++row) {
    for (auto i = static_cast<std::size_t>(faninStart_[row]);
         i < static_cast<std::size_t>(faninStart_[row + 1]) && stale_[row] == 0;
         ++i) {
      stale_[row] = stale_[static_cast<std::size_t>(fanin_[i])];
    }
  }
  return false;
}

void TimingGnn::Memo::fill(std::shared_ptr<const features::PinGraph> graph,
                           const Tensor& pinFeatures) {
  DAGT_CHECK_MSG(graph->numPins() + graph->totalNetEdges() +
                         graph->totalCellEdges() <
                     std::numeric_limits<std::int32_t>::max(),
                 "pin graph too large for the GNN memo's 32-bit index");
  levels_.clear();  // the old graph's embeddings go before the new ones come
  levels_ = gnn_.forward(*graph, pinFeatures).levelEmbeddings;
  const std::int32_t numLevels = graph->numLevels();
  levelStart_.assign(static_cast<std::size_t>(numLevels) + 1, 0);
  for (std::int32_t level = 0; level < numLevels; ++level) {
    levelStart_[static_cast<std::size_t>(level) + 1] =
        levelStart_[static_cast<std::size_t>(level)] +
        static_cast<std::int64_t>(graph->pinsAtLevel(level).size());
  }

  // Fanin index: count per row, prefix-sum, then place each source.
  const auto forEachEdge = [&](const auto& visit) {
    for (std::int32_t level = 0; level < numLevels; ++level) {
      const std::int64_t base = levelStart_[static_cast<std::size_t>(level)];
      for (const features::LevelEdges* edges :
           {&graph->netEdgesInto(level), &graph->cellEdgesInto(level)}) {
        for (std::size_t e = 0; e < edges->size(); ++e) {
          const auto [srcLevel, srcRow] = edges->src[e];
          visit(static_cast<std::size_t>(base + edges->dstLocal[e]),
                static_cast<std::int32_t>(
                    levelStart_[static_cast<std::size_t>(srcLevel)] + srcRow));
        }
      }
    }
  };
  const auto numPins = static_cast<std::size_t>(graph->numPins());
  faninStart_.assign(numPins + 1, 0);
  forEachEdge([&](std::size_t dst, std::int32_t) { ++faninStart_[dst + 1]; });
  for (std::size_t r = 0; r < numPins; ++r) {
    faninStart_[r + 1] += faninStart_[r];
  }
  fanin_.resize(static_cast<std::size_t>(faninStart_.back()));
  std::vector<std::int32_t> next(faninStart_.begin(), faninStart_.end() - 1);
  forEachEdge([&](std::size_t dst, std::int32_t src) {
    fanin_[static_cast<std::size_t>(next[dst]++)] = src;
  });

  stale_.assign(numPins, 0);
  graph_ = std::move(graph);
  features_ = pinFeatures;
}

std::int64_t TimingGnn::Memo::refresh(
    const std::vector<netlist::PinId>& pins) {
  DAGT_CHECK_MSG(graph_ != nullptr, "GNN memo refreshed before update()");
  // Walk back from the queried rows through stale rows only. A row is
  // marked 2 once queued, so each is collected at most once.
  std::vector<std::int64_t> need;
  std::vector<std::int64_t> stack;
  for (const netlist::PinId pin : pins) {
    const std::int64_t row = rowOf(pin);
    if (stale_[static_cast<std::size_t>(row)] != 1) continue;
    stale_[static_cast<std::size_t>(row)] = 2;
    stack.push_back(row);
  }
  while (!stack.empty()) {
    const std::int64_t row = stack.back();
    stack.pop_back();
    need.push_back(row);
    for (std::int32_t i = faninStart_[static_cast<std::size_t>(row)];
         i < faninStart_[static_cast<std::size_t>(row) + 1]; ++i) {
      const std::int32_t src = fanin_[static_cast<std::size_t>(i)];
      if (stale_[static_cast<std::size_t>(src)] != 1) continue;
      stale_[static_cast<std::size_t>(src)] = 2;
      stack.push_back(src);
    }
  }
  if (need.empty()) return 0;

  // Flat rows sort level-major, so one pass splits them into levels; each
  // level reads only earlier levels, which are patched by then.
  std::sort(need.begin(), need.end());
  const auto width = static_cast<std::size_t>(gnn_.hidden());
  std::vector<std::int64_t> rows;
  std::int32_t level = 0;
  for (std::size_t i = 0; i < need.size();) {
    while (need[i] >= levelStart_[static_cast<std::size_t>(level) + 1]) {
      ++level;
    }
    const std::int64_t base = levelStart_[static_cast<std::size_t>(level)];
    const std::int64_t end = levelStart_[static_cast<std::size_t>(level) + 1];
    rows.clear();
    for (; i < need.size() && need[i] < end; ++i) {
      rows.push_back(need[i] - base);
      stale_[static_cast<std::size_t>(need[i])] = 0;
    }
    const Tensor fresh =
        gnn_.levelRows(*graph_, level, rows, features_, levels_);
    Tensor& patched = levels_[static_cast<std::size_t>(level)];
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::memcpy(patched.data() + static_cast<std::size_t>(rows[r]) * width,
                  fresh.data() + r * width, width * sizeof(float));
    }
  }
  return static_cast<std::int64_t>(need.size());
}

Tensor TimingGnn::Memo::select(const std::vector<netlist::PinId>& pins) const {
  DAGT_CHECK_MSG(graph_ != nullptr, "GNN memo selected before update()");
  std::vector<std::pair<std::int32_t, std::int64_t>> coords;
  coords.reserve(pins.size());
  for (const netlist::PinId p : pins) {
    DAGT_DCHECK_MSG(stale_[static_cast<std::size_t>(rowOf(p))] == 0,
                    "GNN memo row of pin " << p << " selected while stale");
    coords.push_back(graph_->locate(p));
  }
  return tensor::gatherRowsMulti(levels_, coords);
}

std::int64_t TimingGnn::Memo::staleRows() const {
  return static_cast<std::int64_t>(
      std::count_if(stale_.begin(), stale_.end(),
                    [](std::uint8_t s) { return s != 0; }));
}

std::int64_t TimingGnn::Memo::rowOf(netlist::PinId pin) const {
  const auto [level, row] = graph_->locate(pin);
  return levelStart_[static_cast<std::size_t>(level)] + row;
}

}  // namespace dagt::core

#include <gtest/gtest.h>

#include <set>

#include "common/check.hpp"
#include "features/design_data.hpp"
#include "features/feature_builder.hpp"
#include "features/path_extractor.hpp"
#include "features/pin_graph.hpp"

namespace dagt::features {
namespace {

/// One shared small pipeline for the whole file (data generation is the
/// expensive part).
const DataPipeline& pipeline() {
  static DataPipeline* p = [] {
    DataConfig config;
    config.designScale = 0.25f;
    return new DataPipeline(config);
  }();
  return *p;
}

const DesignData& arm9() {
  static DesignData d = pipeline().build("arm9");
  return d;
}

const DesignData& jpeg() {
  static DesignData d = pipeline().build("jpeg");
  return d;
}

TEST(PinGraph, CoversEveryPinExactlyOnce) {
  const auto& d = arm9();
  const PinGraph& g = *d.graph;
  std::set<netlist::PinId> seen;
  for (std::int32_t lv = 0; lv < g.numLevels(); ++lv) {
    for (const netlist::PinId p : g.pinsAtLevel(lv)) {
      EXPECT_TRUE(seen.insert(p).second) << "pin " << p << " duplicated";
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), d.netlist.numPins());
}

TEST(PinGraph, EdgesPointBackwardOnly) {
  const PinGraph& g = *arm9().graph;
  for (std::int32_t lv = 0; lv < g.numLevels(); ++lv) {
    for (const auto& [srcLevel, srcRow] : g.netEdgesInto(lv).src) {
      EXPECT_LT(srcLevel, lv);
      EXPECT_LT(srcRow, static_cast<std::int64_t>(
                            g.pinsAtLevel(srcLevel).size()));
    }
    for (const auto& [srcLevel, srcRow] : g.cellEdgesInto(lv).src) {
      EXPECT_LT(srcLevel, lv);
    }
  }
}

TEST(PinGraph, EdgeCountsMatchNetlistStats) {
  const auto& d = arm9();
  const auto stats = d.netlist.stats();
  EXPECT_EQ(d.graph->totalNetEdges(), stats.numNetEdges);
  EXPECT_EQ(d.graph->totalCellEdges(), stats.numCellEdges);
}

TEST(PinGraph, LocateRoundTrips) {
  const auto& d = arm9();
  const PinGraph& g = *d.graph;
  for (netlist::PinId p = 0; p < d.netlist.numPins(); p += 7) {
    const auto [lv, row] = g.locate(p);
    EXPECT_EQ(g.pinsAtLevel(lv)[static_cast<std::size_t>(row)], p);
  }
}

TEST(FeatureBuilder, RowsAreOneHotAndFinite) {
  const auto& d = arm9();
  const auto& t = d.pinFeatures;
  const std::int64_t dim = t.dim(1);
  const std::int64_t vocabSize = pipeline().vocabulary().size();
  ASSERT_EQ(dim, FeatureBuilder::kNumericFeatures + vocabSize);
  for (std::int64_t r = 0; r < t.dim(0); ++r) {
    float onehotSum = 0.0f;
    float kindSum = 0.0f;
    for (std::int64_t c = 0; c < dim; ++c) {
      const float v = t.at(r, c);
      EXPECT_TRUE(std::isfinite(v));
      if (c >= FeatureBuilder::kNumericFeatures) onehotSum += v;
      if (c >= 3 && c <= 6) kindSum += v;
    }
    EXPECT_FLOAT_EQ(onehotSum, 1.0f) << "row " << r;
    EXPECT_FLOAT_EQ(kindSum, 1.0f) << "row " << r;
  }
}

TEST(FeatureBuilder, NodesUseDisjointVocabularySlots) {
  // The same design area mapped to different nodes must activate different
  // one-hot slots — this is the node-dependent signal of the paper.
  const auto& d7 = arm9();
  const auto& d130 = jpeg();
  const std::int64_t base = FeatureBuilder::kNumericFeatures;
  const std::int64_t lib130Cells =
      pipeline().library(netlist::TechNode::k130nm).numCells();
  auto activeSlots = [&](const DesignData& d) {
    std::set<std::int64_t> slots;
    for (std::int64_t r = 0; r < d.pinFeatures.dim(0); ++r) {
      for (std::int64_t c = base; c < d.pinFeatures.dim(1); ++c) {
        if (d.pinFeatures.at(r, c) > 0.5f) slots.insert(c - base);
      }
    }
    return slots;
  };
  const std::int64_t portBase =
      pipeline().vocabulary().primaryInputIndex();
  for (const std::int64_t s : activeSlots(d130)) {
    if (s >= portBase) continue;  // port pseudo-gates are shared
    EXPECT_LT(s, lib130Cells);
  }
  for (const std::int64_t s : activeSlots(d7)) {
    if (s >= portBase) continue;
    EXPECT_GE(s, lib130Cells);
  }
}

TEST(PathExtractor, ConesContainEndpointAndReachStartpoints) {
  const auto& d = arm9();
  const auto endpoints = d.netlist.endpoints();
  ASSERT_EQ(d.paths().size(), endpoints.size());
  for (std::size_t i = 0; i < d.paths().size(); ++i) {
    const auto& path = d.paths()[i];
    EXPECT_EQ(path.endpoint, endpoints[i]);
    const auto& cone = *path.conePins;
    EXPECT_TRUE(std::binary_search(cone.begin(), cone.end(), path.endpoint));
    // Every cone pin's fanin must stay inside the cone (cone = closure).
    for (const netlist::PinId p : cone) {
      for (const netlist::PinId f : d.netlist.timingFanin(p)) {
        EXPECT_TRUE(std::binary_search(cone.begin(), cone.end(), f))
            << "fanin " << f << " of " << p << " escapes the cone";
      }
    }
  }
}

TEST(PathExtractor, MaskedImageZeroOutsideFootprint) {
  const auto& d = arm9();
  const auto& path = d.paths().front();
  const auto masked = PathExtractor::maskedImage(*d.maps, path);
  const std::int32_t res = d.maps->resolution();
  ASSERT_EQ(masked.size(),
            static_cast<std::size_t>(3 * res * res));
  // Build the dilated footprint and check complement is zero.
  std::set<std::int32_t> inMask;
  for (const std::int32_t bin : path.maskBins) {
    const std::int32_t gx = bin % res;
    const std::int32_t gy = bin / res;
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        if (gx + dx >= 0 && gx + dx < res && gy + dy >= 0 && gy + dy < res) {
          inMask.insert((gy + dy) * res + gx + dx);
        }
      }
    }
  }
  for (std::int32_t c = 0; c < 3; ++c) {
    for (std::int32_t bin = 0; bin < res * res; ++bin) {
      if (!inMask.count(bin)) {
        EXPECT_EQ(masked[static_cast<std::size_t>(c * res * res + bin)],
                  0.0f);
      }
    }
  }
}

TEST(DesignData, LabelsAlignWithEndpointsAndAreHarderThanElmore) {
  const auto& d = jpeg();
  ASSERT_EQ(d.labels.size(), d.paths().size());
  ASSERT_EQ(d.preRouteArrivals.size(), d.labels.size());
  // Sign-off (optimized but routed) arrival differs from the optimistic
  // pre-routing estimate — the gap the predictor learns.
  double signoffSum = 0.0, preSum = 0.0;
  for (std::size_t i = 0; i < d.labels.size(); ++i) {
    EXPECT_GT(d.labels[i], 0.0f);
    signoffSum += d.labels[i];
    preSum += d.preRouteArrivals[i];
  }
  EXPECT_NE(signoffSum, preSum);
}

TEST(DesignData, OptimizerActuallyRestructured) {
  const auto& d = jpeg();
  EXPECT_GT(d.optimizerReport.cellsResized, 0);
  EXPECT_LE(d.optimizerReport.worstArrivalAfter,
            d.optimizerReport.worstArrivalBefore);
}

TEST(DataPipeline, NodeGapVisibleInLabels) {
  // 130nm arrivals must sit roughly an order of magnitude above 7nm.
  const auto& d7 = arm9();
  const auto& d130 = jpeg();
  auto mean = [](const std::vector<float>& v) {
    double s = 0.0;
    for (const float x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  EXPECT_GT(mean(d130.labels) / mean(d7.labels), 4.0);
}

TEST(DataPipeline, UnknownDesignThrows) {
  EXPECT_THROW(pipeline().build("nope"), CheckError);
}

TEST(DataPipeline, UnconfiguredNodeThrows) {
  // The default pipeline covers 130nm + 7nm only.
  EXPECT_THROW(pipeline().library(netlist::TechNode::k45nm), CheckError);
}

TEST(DataPipeline, ThreeNodePipelineBuildsCustomDesigns) {
  DataConfig config;
  config.designScale = 0.15f;
  config.nodes = {netlist::TechNode::k130nm, netlist::TechNode::k7nm,
                  netlist::TechNode::k45nm};
  const DataPipeline multi(config);
  // Feature width grows by the 45nm cells.
  EXPECT_GT(multi.featureDim(), pipeline().featureDim());

  designgen::DesignEntry entry = multi.suite().entry("spiMaster");
  entry.node = netlist::TechNode::k45nm;
  entry.spec.name = "spiMaster_45";
  const DesignData d45 = multi.buildCustom(entry);
  EXPECT_EQ(d45.node, netlist::TechNode::k45nm);
  EXPECT_GT(d45.numEndpoints(), 0);
  // 45nm arrivals sit between the other nodes' scales.
  const DesignData d130 = multi.build("spiMaster");
  auto mean = [](const std::vector<float>& v) {
    double s = 0.0;
    for (const float x : v) s += x;
    return s / static_cast<double>(v.size());
  };
  EXPECT_LT(mean(d45.labels), mean(d130.labels));
}

}  // namespace
}  // namespace dagt::features

// Exploring what the learning stack actually sees: the merged gate-type
// vocabulary, the levelized pin graph, per-pin features, timing-path
// cones, masked layout images and the arrival-time distributions of the
// two technology nodes (the paper's Figure 4/6 intuition, in numbers).

#include <algorithm>
#include <cstdio>

#include "eval/kde.hpp"
#include "features/design_data.hpp"
#include "features/feature_builder.hpp"
#include "features/path_extractor.hpp"

int main() {
  using namespace dagt;
  features::DataConfig config;
  config.designScale = 0.5f;
  const features::DataPipeline pipeline(config);

  std::printf("merged gate-type vocabulary: %d entries "
              "(%d @130nm + %d @7nm + 2 port pseudo-gates)\n",
              pipeline.vocabulary().size(),
              pipeline.library(netlist::TechNode::k130nm).numCells(),
              pipeline.library(netlist::TechNode::k7nm).numCells());
  std::printf("per-pin feature width: %lld (%lld numeric + one-hot)\n\n",
              static_cast<long long>(pipeline.featureDim()),
              static_cast<long long>(
                  features::FeatureBuilder::kNumericFeatures));

  for (const char* name : {"smallboom", "jpeg"}) {
    const auto d = pipeline.build(name);
    std::printf("%s @ %s\n", d.name.c_str(),
                netlist::techNodeName(d.node).c_str());
    std::printf("  pins %lld, endpoints %lld, pin-graph levels %d\n",
                static_cast<long long>(d.stats.numPins),
                static_cast<long long>(d.stats.numEndpoints),
                d.graph->numLevels());

    // Timing-path cone sizes.
    std::size_t minCone = SIZE_MAX, maxCone = 0, sumCone = 0;
    for (const auto& path : d.paths()) {
      minCone = std::min(minCone, path.conePins->size());
      maxCone = std::max(maxCone, path.conePins->size());
      sumCone += path.conePins->size();
    }
    std::printf("  fanin cones: min %zu, avg %zu, max %zu pins\n", minCone,
                sumCone / d.paths().size(), maxCone);

    // Arrival-time distribution.
    const auto kde = eval::kernelDensity(d.labels, 32);
    double mode = 0.0, best = 0.0;
    for (std::size_t i = 0; i < kde.x.size(); ++i) {
      if (kde.density[i] > best) {
        best = kde.density[i];
        mode = kde.x[i];
      }
    }
    const auto [minIt, maxIt] =
        std::minmax_element(d.labels.begin(), d.labels.end());
    std::printf("  sign-off arrival: %.0f .. %.0f ps, mode ~%.0f ps\n",
                *minIt, *maxIt, mode);
    std::printf("  optimizer: %d resized, %d buffers\n\n",
                d.optimizerReport.cellsResized,
                d.optimizerReport.buffersInserted);
  }

  std::printf("The 130nm and 7nm arrival modes differ by roughly an order "
              "of magnitude — the Figure 6 distribution gap that makes\n"
              "naive 130nm+7nm data merging fail and motivates "
              "disentanglement, alignment and the Bayesian readout.\n");
  return 0;
}

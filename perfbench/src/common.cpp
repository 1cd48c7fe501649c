#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "core/bayesian_head.hpp"
#include "core/disentangler.hpp"
#include "core/path_cnn.hpp"
#include "core/timing_gnn.hpp"
#include "core/trainer.hpp"
#include "designgen/design_suite.hpp"
#include "features/design_data.hpp"
#include "obs/trace.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"
#include "tensor/expr.hpp"
#include "tensor/ops.hpp"
#include "tensor/storage.hpp"
#include "workloads.hpp"

namespace perfbench {

using dagt::JsonValue;
namespace core = dagt::core;
namespace tensor = dagt::tensor;

void writeServeBundle(const std::string& dir) {
  const dagt::features::DataConfig data;
  const dagt::features::DataPipeline pipeline(data);
  dagt::serve::BundleManifest manifest;
  manifest.modelKind = "ours";
  manifest.variant = "full";
  manifest.strategy = core::strategyName(core::Strategy::kOurs);
  manifest.targetNode = dagt::netlist::TechNode::k7nm;
  manifest.vocabularyNodes = data.nodes;
  manifest.pinFeatureDim = pipeline.featureDim();
  manifest.model.imageResolution = data.imageResolution;
  manifest.features = data.features;
  const auto model = dagt::serve::ModelBundle::instantiate(manifest);
  dagt::serve::ModelBundle::save(*model, manifest, dir);
}

PlacedDesign placeDesign(const std::string& name, float scale,
                         std::uint64_t seed) {
  const dagt::designgen::DesignSuite suite(scale);
  const auto& entry = suite.entry(name);
  PlacedDesign out;
  out.name = name;
  out.node = entry.node;
  out.library = std::make_unique<dagt::netlist::CellLibrary>(
      dagt::netlist::CellLibrary::makeNode(entry.node));
  out.netlist = std::make_unique<dagt::netlist::Netlist>(
      suite.buildNetlist(entry, *out.library));
  dagt::place::PlacerConfig placer;
  placer.seed = dagt::Rng(seed).next() ^ entry.spec.seed;
  out.placement = dagt::place::Placer::place(*out.netlist, placer);
  return out;
}

std::vector<std::int64_t> drawEndpoints(dagt::Rng& rng,
                                        std::int64_t numEndpoints,
                                        std::size_t count) {
  count = std::min(count, static_cast<std::size_t>(numEndpoints));
  std::vector<std::int64_t> out;
  std::unordered_set<std::int64_t> seen;
  while (out.size() < count) {
    const auto e = static_cast<std::int64_t>(
        rng.uniformInt(static_cast<std::uint64_t>(numEndpoints)));
    if (seen.insert(e).second) out.push_back(e);
  }
  return out;
}

LibraryCounters LibraryCounters::now() {
  LibraryCounters c;
  c.heapAllocs = tensor::BufferPool::global().stats().heapAllocs;
  c.fusionCompiles = tensor::expr::stats().programsCompiled;
  return c;
}

double TimedPhase::perOp(std::uint64_t LibraryCounters::*field) const {
  if (latencyMs.empty()) return 0.0;
  return static_cast<double>(after.*field - before.*field) /
         static_cast<double>(latencyMs.size());
}

void addEndToEnd(Result& result, const std::vector<double>& setupSamples,
                 const TimedPhase& timed) {
  result.endToEnd.push_back({"setup_s", median(setupSamples), "s"});
  result.endToEnd.push_back({"ops_per_s", timed.opsPerS(), "1/s"});
  result.endToEnd.push_back(
      {"latency_p50_ms", median(timed.latencyMs), "ms"});
  result.endToEnd.push_back({"peak_rss_mb", timed.peakRssMb, "MB"});

  JsonValue latency = JsonValue::object();
  const auto n = static_cast<std::int64_t>(timed.latencyMs.size());
  latency.set("samples", n);
  latency.set("p50_ms", median(timed.latencyMs));
  // A tail percentile is reported only when at least ten samples lie
  // beyond it.
  if (n >= 100) latency.set("p90_ms", quantile(timed.latencyMs, 0.9));
  latency.set("timed_s", timed.elapsedS);
  JsonValue samples = JsonValue::array();
  for (const double ms : timed.latencyMs) samples.push(ms);
  latency.set("samples_ms", std::move(samples));
  result.details.set("latency", std::move(latency));
  JsonValue setups = JsonValue::array();
  for (const double s : setupSamples) setups.push(s);
  result.details.set("setup_samples_s", std::move(setups));
}

void TimedPhase::append(const TimedPhase& part) {
  latencyMs.insert(latencyMs.end(), part.latencyMs.begin(),
                   part.latencyMs.end());
  elapsedS += part.elapsedS;
  peakRssMb = std::max(peakRssMb, part.peakRssMb);
  after.heapAllocs += part.after.heapAllocs - part.before.heapAllocs;
  after.fusionCompiles += part.after.fusionCompiles - part.before.fusionCompiles;
}

void addCommonLayers(Result& result, const TracedPhases& phases) {
  const TimedPhase& untraced = phases.untraced;
  const TimedPhase& traced = phases.traced;
  result.perLayer.push_back({"tensor.heap_allocs_per_op",
                             untraced.perOp(&LibraryCounters::heapAllocs),
                             "count"});
  result.perLayer.push_back({"tensor.fusion_compiles_per_op",
                             untraced.perOp(&LibraryCounters::fusionCompiles),
                             "count"});
  const double tracedRate = median(phases.tracedOpsPerS);
  const double untracedRate = median(phases.untracedOpsPerS);
  const double overhead =
      tracedRate > 0.0 ? (untracedRate / tracedRate - 1.0) * 100.0 : 0.0;
  result.perLayer.push_back({"obs.trace_overhead_pct", overhead, "%"});
  result.details.set("trace_overhead",
                     JsonValue::object()
                         .set("untraced_ops_per_s", untracedRate)
                         .set("traced_ops_per_s", tracedRate)
                         .set("untraced_ops",
                              static_cast<std::int64_t>(untraced.latencyMs.size()))
                         .set("traced_ops",
                              static_cast<std::int64_t>(traced.latencyMs.size()))
                         .set("traced_peak_rss_mb", traced.peakRssMb));
}

LayerProbe probeModelLayers(const core::TimingDataset& dataset,
                            const dagt::features::DesignData& design,
                            std::int64_t pinFeatureDim,
                            const core::ModelConfig& config,
                            std::uint64_t seed) {
  // Same construction order and widths as core::OursModel.
  dagt::Rng init(seed);
  const core::TimingGnn gnn(pinFeatureDim, config.gnnHidden, init);
  const core::PathCnn cnn(config.cnnBaseChannels, config.cnnDim, init);
  const core::Disentangler disentangler(config.pathFeatureDim(),
                                        config.headHidden, init);
  const core::BayesianHead head(config.pathFeatureDim(), config.headHidden,
                                init);

  constexpr int kWarm = 2;
  constexpr int kReps = 21;
  std::vector<double> assembly, gnnMs, cnnMs, disMs, headMs;
  dagt::Rng draws(seed);
  const tensor::NoGradGuard noGrad;
  for (int rep = 0; rep < kWarm + kReps; ++rep) {
    const tensor::Workspace workspace;
    const bool keep = rep >= kWarm;
    auto endpoints =
        drawEndpoints(draws, design.numEndpoints(), kQueryEndpoints);

    auto t = Clock::now();
    const core::DesignBatch batch = [&] {
      PERFBENCH_SPAN("core/batch_assembly");
      return dataset.batchFor(design, std::move(endpoints));
    }();
    if (keep) assembly.push_back(msSince(t));

    t = Clock::now();
    const tensor::Tensor graphEmb = [&] {
      PERFBENCH_SPAN("core/gnn");
      const auto out = gnn.forward(*design.graph, design.pinFeatures);
      std::vector<dagt::netlist::PinId> pins;
      for (const std::int64_t e : batch.endpointIdx) {
        pins.push_back(design.paths()[static_cast<std::size_t>(e)].endpoint);
      }
      return core::TimingGnn::select(out, pins);
    }();
    if (keep) gnnMs.push_back(msSince(t));

    t = Clock::now();
    const tensor::Tensor layoutEmb = [&] {
      PERFBENCH_SPAN("core/cnn");
      return cnn.forward(batch.images);
    }();
    if (keep) cnnMs.push_back(msSince(t));

    t = Clock::now();
    const tensor::Tensor joint = [&] {
      PERFBENCH_SPAN("core/disentangle");
      const auto split =
          disentangler.forward(tensor::concat1({graphEmb, layoutEmb}));
      return tensor::concat1({split.nodeDependent, split.designDependent});
    }();
    if (keep) disMs.push_back(msSince(t));

    t = Clock::now();
    {
      PERFBENCH_SPAN("core/head");
      dagt::Rng mc(seed + static_cast<std::uint64_t>(rep));
      const auto q = head.distribution(joint);
      const auto prediction =
          head.predict(joint, q, dagt::serve::EngineConfig{}.mcSamples, mc);
      (void)prediction;
    }
    if (keep) headMs.push_back(msSince(t));
  }
  LayerProbe probe;
  probe.batchAssemblyMs = median(assembly);
  probe.gnnMs = median(gnnMs);
  probe.cnnMs = median(cnnMs);
  probe.disentangleMs = median(disMs);
  probe.headMs = median(headMs);
  probe.reps = kReps;
  return probe;
}

void addProbeLayers(Result& result, const LayerProbe& probe) {
  result.perLayer.push_back({"core.batch_assembly_ms", probe.batchAssemblyMs, "ms"});
  result.perLayer.push_back({"core.gnn_ms", probe.gnnMs, "ms"});
  result.perLayer.push_back({"core.cnn_ms", probe.cnnMs, "ms"});
  result.perLayer.push_back({"core.disentangle_ms", probe.disentangleMs, "ms"});
  result.perLayer.push_back({"core.head_ms", probe.headMs, "ms"});
  result.details.set("probe_reps", probe.reps);
}

void setLibraryTracing(bool on) {
  auto& registry = dagt::obs::TraceRegistry::global();
  // Only the wrap-proof per-name aggregates are read, so small rings do:
  // parallelFor registers a ring for every fresh worker thread that emits.
  registry.setRingCapacity(1024);
  registry.setEnabled(on);
}

void addSpanTables(Result& result) {
  JsonValue own = JsonValue::array();
  std::fprintf(stderr, "%-28s %8s %12s %12s\n", "benchmark span", "count",
               "total ms", "self ms");
  for (const Spans::Row& row : Spans::global().table()) {
    std::fprintf(stderr, "%-28s %8lld %12.3f %12.3f\n", row.name.c_str(),
                 static_cast<long long>(row.count), row.totalMs, row.selfMs);
    own.push(JsonValue::object()
                 .set("name", row.name)
                 .set("count", row.count)
                 .set("total_ms", row.totalMs)
                 .set("self_ms", row.selfMs));
  }
  result.details.set("self_time", std::move(own));

  JsonValue lib = JsonValue::array();
  for (const auto& s : dagt::obs::TraceRegistry::global().aggregate()) {
    lib.push(JsonValue::object()
                 .set("name", s.name)
                 .set("count", s.count)
                 .set("total_ms", s.totalUs() / 1000.0));
  }
  result.details.set("library_spans", std::move(lib));
}

}  // namespace perfbench

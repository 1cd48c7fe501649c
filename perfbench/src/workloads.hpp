#pragma once

// The three workloads and what they share: the served bundle, placed input
// designs, library counters and the model-layer probe.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/dataset.hpp"
#include "core/model_config.hpp"
#include "harness.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "place/placer.hpp"

namespace perfbench {

Result runServe(const Options& options);
Result runWhatIf(const Options& options);
Result runTrain(const Options& options);

/// Design-size multiplier of the serving workloads: the suite's default
/// benchmark scale.
inline constexpr float kServeScale = 1.0f;
/// Endpoints per query: a designer asks about a few endpoints at a time.
inline constexpr std::size_t kQueryEndpoints = 8;
/// A round of set-ups repeats set-up until at least kMinSetups were made
/// and together took at least kMinSetupSeconds. setup_s is the median of
/// every round's samples. A single short set-up is too noisy to compare
/// across runs.
inline constexpr int kMinSetups = 3;
inline constexpr double kMinSetupSeconds = 1.0;

/// One round: `once` builds the workload's state (replacing the previous
/// one) and returns the seconds it took. Appends every sample.
template <typename SetUpOnce>
void repeatSetUp(std::vector<double>& samples, SetUpOnce&& once) {
  double total = 0.0;
  for (int n = 0; n < kMinSetups || total < kMinSetupSeconds; ++n) {
    samples.push_back(once());
    total += samples.back();
  }
}

/// Save an untrained "ours"/"full" bundle at the default ModelConfig under
/// `dir` (the paper's architecture, at the cost of a trained one).
void writeServeBundle(const std::string& dir);

/// A generated, placed netlist: the input a designer hands the engine.
/// Keeps the cell library its netlist points into alive.
struct PlacedDesign {
  std::unique_ptr<dagt::netlist::CellLibrary> library;
  std::unique_ptr<dagt::netlist::Netlist> netlist;
  dagt::netlist::TechNode node = dagt::netlist::TechNode::k7nm;
  dagt::place::PlacementResult placement;
  std::string name;
};
/// Generate and place suite design `name` at `scale`; the placement seed
/// is derived from `seed`.
PlacedDesign placeDesign(const std::string& name, float scale,
                         std::uint64_t seed);

/// `count` distinct endpoint indices in [0, numEndpoints), seeded.
std::vector<std::int64_t> drawEndpoints(dagt::Rng& rng,
                                        std::int64_t numEndpoints,
                                        std::size_t count);

/// Process-wide library counters the per-layer metrics take deltas of.
struct LibraryCounters {
  std::uint64_t heapAllocs = 0;
  std::uint64_t fusionCompiles = 0;
  static LibraryCounters now();
};

/// Timed-phase samples shared by every workload.
struct TimedPhase {
  std::vector<double> latencyMs;
  double elapsedS = 0.0;
  double peakRssMb = 0.0;
  LibraryCounters before;
  LibraryCounters after;

  double opsPerS() const {
    return elapsedS > 0.0 ? static_cast<double>(latencyMs.size()) / elapsedS
                          : 0.0;
  }
  double perOp(std::uint64_t LibraryCounters::*field) const;
  /// Add another phase's samples, time and counter deltas to this one.
  void append(const TimedPhase& part);
};

/// An untraced run cuts its timed phase into kTimedChunks chunks, with a
/// round of set-ups before each (and one more after the last check), so
/// that the set-up samples spread over the run as the timed samples do.
/// The host's speed drifts over seconds to minutes, so rounds at the two
/// ends of a run alone would sample it at two points only.
inline constexpr int kTimedChunks = 4;

/// The first round has been made already. `round()` makes another, leaving
/// the state of its last set-up; `chunk(seconds)` runs one chunk of the
/// timed phase on the current state.
template <typename Round, typename Chunk>
TimedPhase chunkedTimedPhase(double seconds, Round&& round, Chunk&& chunk) {
  TimedPhase timed;
  for (int i = 0; i < kTimedChunks; ++i) {
    if (i > 0) round();
    timed.append(chunk(seconds / kTimedChunks));
  }
  return timed;
}

/// The end-to-end metrics every workload reports, plus the latency detail
/// (sample count, p90 where at least ten samples lie beyond it).
void addEndToEnd(Result& result, const std::vector<double>& setupSamples,
                 const TimedPhase& timed);

/// The library's own span registry (src/obs). In a traced run it is on in
/// half of the timed segments; the benchmark's spans stay on throughout.
void setLibraryTracing(bool on);

/// A traced run's timed phase, cut into kTraceSegments segments with the
/// library's tracing off and on in off-on-on-off order, so that drift of
/// the host over the run weighs on both sides alike.
inline constexpr int kTraceSegments = 8;
struct TracedPhases {
  TimedPhase untraced;  ///< the segments with library tracing off, merged
  TimedPhase traced;    ///< the segments with it on, merged
  std::vector<double> untracedOpsPerS;  ///< one per segment
  std::vector<double> tracedOpsPerS;
};

/// `segment(seconds, traced)` runs one segment of the timed phase.
template <typename Segment>
TracedPhases alternateTracing(double seconds, Segment&& segment) {
  TracedPhases out;
  for (int i = 0; i < kTraceSegments; ++i) {
    const bool on = i % 4 == 1 || i % 4 == 2;
    setLibraryTracing(on);
    const TimedPhase part = segment(seconds / kTraceSegments, on);
    setLibraryTracing(false);
    (on ? out.traced : out.untraced).append(part);
    (on ? out.tracedOpsPerS : out.untracedOpsPerS).push_back(part.opsPerS());
  }
  return out;
}

/// The per-layer metrics every workload reports in its traced run: library
/// counters per op (from the untraced segments) and the library tracing
/// overhead (median ops/s of the untraced segments against that of the
/// traced ones).
void addCommonLayers(Result& result, const TracedPhases& phases);

/// Median per-call times (ms) of the model's layers, measured by a probe
/// built from the same public modules at the same configuration, on an
/// 8-endpoint batch of a served snapshot.
struct LayerProbe {
  double batchAssemblyMs = 0.0;
  double gnnMs = 0.0;
  double cnnMs = 0.0;
  double disentangleMs = 0.0;
  double headMs = 0.0;
  int reps = 0;
};
LayerProbe probeModelLayers(const dagt::core::TimingDataset& dataset,
                            const dagt::features::DesignData& design,
                            std::int64_t pinFeatureDim,
                            const dagt::core::ModelConfig& config,
                            std::uint64_t seed);
void addProbeLayers(Result& result, const LayerProbe& probe);

/// Self-time table of the benchmark's spans, plus the library's span
/// aggregates, into result.details.
void addSpanTables(Result& result);

}  // namespace perfbench

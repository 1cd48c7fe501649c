// train: two intra-op threads, gradShards = 2, Strategy::kOurs on the
// paper's Table-1 training split (the 7nm target design with a 48-endpoint
// budget plus the four 130nm sources) at a reduced scale. Each op is one
// Trainer::train call on a fixed short schedule with a fresh model from
// the same seed. It is the only workload with backward, shard reduce and
// optimizer, and it bypasses serving entirely.

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "common/parallel.hpp"
#include "core/trainer.hpp"
#include "features/design_data.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = dagt::core;
namespace features = dagt::features;
using dagt::JsonValue;

namespace {

constexpr float kTrainScale = 0.5f;
const std::vector<std::string> kTestDesigns = {"arm9", "chacha", "hwacha",
                                               "or1200", "sha3"};
/// Scarce target-node data: training sees this many smallboom endpoints.
constexpr std::int64_t kTargetEndpointBudget = 48;

core::TrainConfig trainConfig(std::uint64_t seed) {
  core::TrainConfig config;
  // Sized so held-out R² is positive on every seed tried (0.57-0.85 over
  // seeds 1-7) while one op stays a few seconds.
  config.epochs = 8;
  config.learningRate = 1e-2f;
  config.endpointCap = 128;
  config.gradShards = 2;
  config.seed = seed;
  return config;
}

std::vector<const features::DesignData*> pointers(
    const std::vector<features::DesignData>& designs) {
  std::vector<const features::DesignData*> out;
  for (const auto& d : designs) out.push_back(&d);
  return out;
}

/// Everything a Trainer refers to, kept alive together.
struct TrainSetup {
  std::unique_ptr<features::DataPipeline> pipeline;
  std::vector<features::DesignData> designs;
  std::unique_ptr<core::TimingDataset> dataset;
  std::unique_ptr<core::Trainer> trainer;
};

TrainSetup setUp(const features::DataConfig& data, std::uint64_t seed,
                 double* seconds) {
  const auto start = Clock::now();
  TrainSetup s;
  s.pipeline = std::make_unique<features::DataPipeline>(data);
  std::vector<std::string> names = {"smallboom"};
  for (const auto& source : s.pipeline->suite().sourceDesignOrder()) {
    names.push_back(source);
  }
  for (const auto& name : names) {
    PERFBENCH_SPAN("features/design_build");
    s.designs.push_back(s.pipeline->build(name));
  }
  s.dataset = std::make_unique<core::TimingDataset>(pointers(s.designs));
  s.dataset->restrictEndpoints(s.designs.front(), kTargetEndpointBudget,
                               /*seed=*/99);
  s.trainer = std::make_unique<core::Trainer>(*s.dataset, trainConfig(seed));
  *seconds = msSince(start) / 1000.0;
  return s;
}

bool sameLosses(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Train repeatedly for `seconds` of busy time. Every op's epoch losses
/// must be finite and bitwise equal to the first op's (the trainer's
/// determinism contract); a mismatch counts the op as failed.
TimedPhase runOps(const core::Trainer& trainer, double seconds,
                  std::vector<float>& referenceLoss,
                  std::unique_ptr<core::TimingModel>& firstModel,
                  PhaseCount& count) {
  TimedPhase phase;
  double busy = 0.0;
  resetPeakRss();
  phase.before = LibraryCounters::now();
  while (busy < seconds) {
    core::TrainStats stats;
    const auto t = Clock::now();
    std::unique_ptr<core::TimingModel> model;
    try {
      PERFBENCH_SPAN("train/train");
      model = trainer.train(core::Strategy::kOurs, &stats);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "train op failed: %s\n", e.what());
      count.fail();
      busy += msSince(t) / 1000.0;
      continue;
    }
    const double ms = msSince(t);
    busy += ms / 1000.0;
    phase.latencyMs.push_back(ms);
    bool finite = !stats.epochLoss.empty();
    for (const float l : stats.epochLoss) finite = finite && std::isfinite(l);
    if (referenceLoss.empty()) referenceLoss = stats.epochLoss;
    if (finite && sameLosses(stats.epochLoss, referenceLoss)) {
      count.ok();
    } else {
      count.fail();
    }
    if (!firstModel) firstModel = std::move(model);
  }
  phase.after = LibraryCounters::now();
  phase.peakRssMb = peakRssMb();
  phase.elapsedS = busy;
  return phase;
}

double spanTotalMs(const std::vector<dagt::obs::SpanStats>& spans,
                   const std::string& prefix) {
  double ms = 0.0;
  for (const auto& s : spans) {
    if (s.name.rfind(prefix, 0) == 0) ms += s.totalUs() / 1000.0;
  }
  return ms;
}

}  // namespace

Result runTrain(const Options& options) {
  dagt::parallelThreadCount() = 2;
  Result result;

  features::DataConfig data;
  data.designScale = kTrainScale;
  // Held-out designs for r2_mean: evaluation input, built before any
  // clock starts.
  const features::DataPipeline testPipeline(data);
  std::vector<features::DesignData> testDesigns;
  for (const auto& name : kTestDesigns) {
    testDesigns.push_back(testPipeline.build(name));
  }
  const core::TimingDataset testSet(pointers(testDesigns));

  Spans::global().setEnabled(options.trace);
  TrainSetup s;
  const auto setUpOnce = [&] {
    s = TrainSetup{};
    double seconds = 0.0;
    s = setUp(data, options.seed, &seconds);
    result.phases.setup.ok();
    return seconds;
  };
  std::vector<double> setups;
  repeatSetUp(setups, setUpOnce);
  logPhase("set-up done");

  std::vector<float> referenceLoss;
  std::unique_ptr<core::TimingModel> model;
  TimedPhase timed;
  if (!options.trace) {
    timed = chunkedTimedPhase(
        options.seconds, [&] { repeatSetUp(setups, setUpOnce); },
        [&](double seconds) {
          return runOps(*s.trainer, seconds, referenceLoss, model,
                        result.phases.timed);
        });
  } else {
    const double buildMs = Spans::global().meanMs("features/design_build");
    auto& registry = dagt::obs::TraceRegistry::global();
    registry.reset();
    const TracedPhases phases =
        alternateTracing(options.seconds, [&](double seconds, bool) {
          return runOps(*s.trainer, seconds, referenceLoss, model,
                        result.phases.timed);
        });
    const auto spans = registry.aggregate("train/");
    const auto modelSpans = registry.aggregate("model/forward");
    const double ops =
        static_cast<double>(std::max<std::size_t>(phases.traced.latencyMs.size(), 1));
    const double shards = trainConfig(options.seed).gradShards;
    // Shards run concurrently, one per worker thread: per-op forward wall
    // time is the summed thread time over the shard count. The sharded
    // trainer runs forward and backward inside its train/backward span.
    const double forwardMs =
        (spanTotalMs(modelSpans, "model/forward") +
         spanTotalMs(spans, "train/loss_")) / shards / ops;
    const double backwardMs =
        spanTotalMs(spans, "train/backward") / ops - forwardMs;

    result.perLayer.push_back({"serve.feature_cache_hit_ratio", 0.0, "ratio"});
    result.perLayer.push_back({"serve.forwards_per_request", 0.0, "count"});
    addProbeLayers(result,
                   probeModelLayers(*s.dataset, s.designs.front(),
                                    s.pipeline->featureDim(),
                                    trainConfig(options.seed).model,
                                    options.seed));
    result.perLayer.push_back({"sta.cone_pins_mean", 0.0, "count"});
    result.perLayer.push_back({"features.dirty_endpoints_mean", 0.0, "count"});
    result.perLayer.push_back({"features.images_rebuilt_mean", 0.0, "count"});
    addCommonLayers(result, phases);
    result.details.set(
        "layers",
        JsonValue::object()
            .set("features.design_build_ms", buildMs)
            .set("train.sample_batch_ms",
                 spanTotalMs(spans, "train/sample_batch") / ops)
            .set("train.forward_ms", forwardMs)
            .set("train.backward_ms", backwardMs)
            .set("train.reduce_ms", spanTotalMs(spans, "train/reduce") / ops)
            .set("train.optimizer_ms",
                 spanTotalMs(spans, "train/optimizer") / ops));
    addSpanTables(result);
  }

  logPhase("timed phase done");
  // Held-out R² of the first op's model. Only a finite value is required:
  // quality varies with the trainer seed (arm9 and chacha most), so a
  // floor would fail some seeds.
  const std::size_t pinned = dagt::parallelThreadCount();
  dagt::parallelThreadCount() = std::thread::hardware_concurrency();
  JsonValue r2 = JsonValue::object();
  double r2Sum = 0.0;
  try {
    if (!model) throw std::runtime_error("no op produced a model");
    const auto evals = core::evaluateModel(*model, testSet);
    for (const auto& e : evals) {
      r2.set(e.design, e.r2);
      r2Sum += e.r2;
    }
    const double r2Mean = r2Sum / static_cast<double>(evals.size());
    result.details.set("r2_mean", r2Mean);
    if (std::isfinite(r2Mean)) {
      result.phases.check.ok();
    } else {
      result.phases.check.fail();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evaluation failed: %s\n", e.what());
    result.phases.check.fail();
  }
  dagt::parallelThreadCount() = pinned;
  result.details.set("r2", std::move(r2));
  result.details.set("epoch_loss", [&] {
    JsonValue a = JsonValue::array();
    for (float l : referenceLoss) a.push(static_cast<double>(l));
    return a;
  }());
  if (!options.trace) {
    repeatSetUp(setups, setUpOnce);
    addEndToEnd(result, setups, timed);
  }
  return result;
}

}  // namespace perfbench

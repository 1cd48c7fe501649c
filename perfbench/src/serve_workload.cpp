// serve: closed loop, one intra-op thread, default EngineConfig. Three
// resident designs and three clients, each pinned to one design, send
// 8-endpoint predictEndpoints requests. Every request recomputes the
// whole-design GNN on an unchanged snapshot. Pinning clients to distinct
// designs keeps each forward's batch exactly one request, so every answer
// is bitwise-checkable against a batching=false engine that adopts the
// same snapshots.

#include <cstring>
#include <thread>

#include "common/parallel.hpp"
#include "serve/prediction_engine.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = dagt::serve;
using dagt::JsonValue;

namespace {

const std::vector<std::string> kDesigns = {"or1200", "hwacha", "sha3"};

struct Request {
  std::size_t design = 0;
  std::vector<std::int64_t> endpoints;
  std::vector<float> answer;
};

struct Served {
  std::vector<PlacedDesign> designs;
  std::vector<std::int64_t> numEndpoints;
  std::string bundleDir;
};

std::unique_ptr<serve::PredictionEngine> setUp(const Served& in,
                                               std::uint64_t seed,
                                               Phases& phases,
                                               double* seconds) {
  std::vector<dagt::netlist::Netlist> netlists;
  for (const auto& d : in.designs) netlists.push_back(*d.netlist);

  const auto start = Clock::now();
  auto engine = std::make_unique<serve::PredictionEngine>();
  {
    PERFBENCH_SPAN("serve/add_bundle");
    engine->addBundleFromDir(in.bundleDir);
  }
  for (std::size_t i = 0; i < in.designs.size(); ++i) {
    PERFBENCH_SPAN("serve/load_design");
    engine->loadDesign(in.designs[i].name, std::move(netlists[i]),
                       in.designs[i].node, in.designs[i].placement);
  }
  // Warm-up: the first answer of every design.
  for (std::size_t i = 0; i < in.designs.size(); ++i) {
    dagt::Rng rng(seed ^ (0xa11ce + i));
    const auto endpoints =
        drawEndpoints(rng, engine->currentSnapshot(in.designs[i].name)
                                 ->numEndpoints(),
                      kQueryEndpoints);
    try {
      PERFBENCH_SPAN("serve/warm_up");
      engine->predictEndpoints(in.designs[i].name, endpoints);
      phases.setup.ok();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "setup request failed: %s\n", e.what());
      phases.setup.fail();
    }
  }
  *seconds = msSince(start) / 1000.0;
  return engine;
}

TimedPhase runClients(serve::PredictionEngine& engine, const Served& in,
                      double seconds, std::uint64_t streamSeed,
                      std::vector<Request>& requests, PhaseCount& count) {
  TimedPhase phase;
  std::vector<std::vector<Request>> perClient(in.designs.size());
  std::vector<std::vector<double>> latencies(in.designs.size());
  std::vector<std::int64_t> failures(in.designs.size(), 0);

  resetPeakRss();
  phase.before = LibraryCounters::now();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (std::size_t d = 0; d < in.designs.size(); ++d) {
    clients.emplace_back([&, d] {
      dagt::Rng rng(streamSeed * 0x100000001b3ULL + d);
      while (Clock::now() < deadline) {
        Request request;
        request.design = d;
        request.endpoints =
            drawEndpoints(rng, in.numEndpoints[d], kQueryEndpoints);
        const auto t = Clock::now();
        try {
          PERFBENCH_SPAN("serve/predict_endpoints");
          request.answer =
              engine.predictEndpoints(in.designs[d].name, request.endpoints);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "request failed: %s\n", e.what());
          ++failures[d];
          continue;
        }
        latencies[d].push_back(msSince(t));
        perClient[d].push_back(std::move(request));
      }
    });
  }
  for (auto& c : clients) c.join();
  phase.elapsedS = msSince(start) / 1000.0;
  phase.after = LibraryCounters::now();
  phase.peakRssMb = peakRssMb();

  for (std::size_t d = 0; d < in.designs.size(); ++d) {
    phase.latencyMs.insert(phase.latencyMs.end(), latencies[d].begin(),
                           latencies[d].end());
    for (auto& r : perClient[d]) {
      requests.push_back(std::move(r));
      count.ok();
    }
    for (std::int64_t f = 0; f < failures[d]; ++f) count.fail();
  }
  return phase;
}

/// Re-answer every request on a batching=false engine adopting the served
/// snapshots. A one-request batch is seeded by its design and endpoints
/// alone, so the answers must match bit for bit.
void checkAnswers(serve::PredictionEngine& engine, const Served& in,
                  const std::vector<Request>& requests, Phases& phases) {
  serve::EngineConfig soloConfig;
  soloConfig.batching = false;
  serve::PredictionEngine solo(soloConfig);
  solo.addBundleFromDir(in.bundleDir);
  for (const auto& d : in.designs) {
    solo.adoptDesign(d.name, d.node, "0", engine.currentSnapshot(d.name));
  }
  // The solo engine answers in its callers' threads, so the check fans
  // the requests out over every core, one intra-op thread each.
  const std::size_t checkers =
      std::max(1u, std::thread::hardware_concurrency());
  std::vector<char> matched(requests.size(), 0);
  std::vector<char> answered(requests.size(), 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < checkers; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < requests.size(); i += checkers) {
        const Request& r = requests[i];
        try {
          const auto expected =
              solo.predictEndpoints(in.designs[r.design].name, r.endpoints);
          answered[i] = 1;
          matched[i] = expected.size() == r.answer.size() &&
                       std::memcmp(expected.data(), r.answer.data(),
                                   expected.size() * sizeof(float)) == 0;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "check request failed: %s\n", e.what());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!answered[i]) {
      phases.check.fail();
      continue;
    }
    phases.check.ok();
    if (!matched[i]) phases.timed.demote();
  }
}

}  // namespace

Result runServe(const Options& options) {
  dagt::parallelThreadCount() = 1;
  Result result;

  Served in;
  in.bundleDir = options.workDir + "/bundle";
  writeServeBundle(in.bundleDir);
  logPhase("bundle written");
  for (std::size_t i = 0; i < kDesigns.size(); ++i) {
    in.designs.push_back(
        placeDesign(kDesigns[i], kServeScale, options.seed + i));
  }

  Spans::global().setEnabled(options.trace);
  std::unique_ptr<serve::PredictionEngine> engine;
  const auto setUpOnce = [&] {
    engine.reset();
    double seconds = 0.0;
    engine = setUp(in, options.seed, result.phases, &seconds);
    return seconds;
  };
  std::vector<double> setups;
  repeatSetUp(setups, setUpOnce);
  logPhase("set-up done");
  JsonValue designs = JsonValue::object();
  for (const auto& d : in.designs) {
    const auto n = engine->currentSnapshot(d.name)->numEndpoints();
    in.numEndpoints.push_back(n);
    designs.set(d.name, n);
  }
  result.details.set("endpoints", std::move(designs));

  std::vector<Request> requests;
  TimedPhase timed;
  if (!options.trace) {
    int chunk = 0;
    timed = chunkedTimedPhase(
        options.seconds, [&] { repeatSetUp(setups, setUpOnce); },
        [&](double seconds) {
          return runClients(*engine, in, seconds, options.seed + chunk++,
                            requests, result.phases.timed);
        });
  } else {
    std::uint64_t untracedForwards = 0;
    int segment = 0;
    const TracedPhases phases =
        alternateTracing(options.seconds, [&](double seconds, bool traced) {
          const auto before = engine->metrics().batches;
          TimedPhase part =
              runClients(*engine, in, seconds, options.seed + segment++,
                         requests, result.phases.timed);
          if (!traced) untracedForwards += engine->metrics().batches - before;
          return part;
        });
    result.perLayer.push_back({"serve.feature_cache_hit_ratio",
                               engine->metrics().cacheHitRate, "ratio"});
    result.perLayer.push_back(
        {"serve.forwards_per_request",
         static_cast<double>(untracedForwards) /
             static_cast<double>(std::max<std::size_t>(
                 phases.untraced.latencyMs.size(), 1)),
         "count"});
    const auto snapshot = engine->currentSnapshot(in.designs.front().name);
    const auto& manifest = engine->manifest(in.designs.front().node);
    addProbeLayers(result, probeModelLayers(*snapshot->dataset, snapshot->data,
                                            manifest.pinFeatureDim,
                                            manifest.model, options.seed));
    result.perLayer.push_back({"sta.cone_pins_mean", 0.0, "count"});
    result.perLayer.push_back({"features.dirty_endpoints_mean", 0.0, "count"});
    result.perLayer.push_back({"features.images_rebuilt_mean", 0.0, "count"});
    addCommonLayers(result, phases);
    result.details.set("layers", JsonValue::object().set(
                                     "serve.load_design_ms",
                                     Spans::global().meanMs("serve/load_design")));
    addSpanTables(result);
  }
  logPhase("timed phase done");
  // Every set-up loads the same netlists and placements, so the current
  // engine's snapshots are, bit for bit, those every chunk was served from.
  checkAnswers(*engine, in, requests, result.phases);
  logPhase("check phase done");
  if (!options.trace) {
    repeatSetUp(setups, setUpOnce);
    addEndToEnd(result, setups, timed);
  }
  return result;
}

}  // namespace perfbench

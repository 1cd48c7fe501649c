// whatif: closed loop, one intra-op thread. One WhatIfSession on or1200;
// each op is one edit (about 70% resizeCell, 30% moveCell), sync(), then
// an 8-endpoint predict. Every op makes a new snapshot, so incremental
// STA, cone feature refresh and the forward do the work. At two threads
// parallelFor's per-call thread start-up made the latency swing twofold
// between runs on a shared host; fork/join is measured on train instead.
// insertBuffer is left out: a structural edit falls back to a full rebuild
// and makes the tail bimodal.

#include <cstring>
#include <numeric>
#include <thread>

#include "common/parallel.hpp"
#include "obs/trace.hpp"
#include "serve/prediction_engine.hpp"
#include "whatif/whatif_session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = dagt::serve;
using dagt::JsonValue;

namespace {

constexpr const char* kDesign = "or1200";
/// Parity with a cold rebuild is checked every this many ops (and after
/// the last), outside the timed phase.
constexpr std::int64_t kCheckEvery = 100;

serve::EngineConfig engineConfig() {
  serve::EngineConfig config;
  config.batching = false;  // the session's queries run in the caller
  return config;
}

struct Session {
  std::unique_ptr<serve::PredictionEngine> engine;
  std::unique_ptr<dagt::whatif::WhatIfSession> session;
};

Session setUp(const PlacedDesign& in, const std::string& bundleDir,
              std::uint64_t seed, Phases& phases, double* seconds) {
  dagt::netlist::Netlist netlist = *in.netlist;

  const auto start = Clock::now();
  Session s;
  s.engine = std::make_unique<serve::PredictionEngine>(engineConfig());
  {
    PERFBENCH_SPAN("serve/add_bundle");
    s.engine->addBundleFromDir(bundleDir);
  }
  {
    PERFBENCH_SPAN("serve/load_design");
    s.session = std::make_unique<dagt::whatif::WhatIfSession>(
        *s.engine, "whatif", std::move(netlist), in.node, in.placement);
  }
  dagt::Rng rng(seed ^ 0xa11ce);
  try {
    PERFBENCH_SPAN("whatif/warm_up");
    s.session->predict(
        drawEndpoints(rng, s.session->numEndpoints(), kQueryEndpoints));
    phases.setup.ok();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "setup query failed: %s\n", e.what());
    phases.setup.fail();
  }
  *seconds = msSince(start) / 1000.0;
  return s;
}

struct OpStats {
  std::uint64_t forwards = 0;
  std::vector<double> conePins;
  std::vector<double> dirtyEndpoints;
  std::vector<double> imagesRebuilt;
};

/// Cold reference: the edited netlist loaded from scratch into a fresh
/// engine must answer every endpoint, and the last op's query, exactly
/// as the session does.
void checkParity(dagt::whatif::WhatIfSession& session, const PlacedDesign& in,
                 const std::string& bundleDir,
                 const std::vector<std::int64_t>& lastQuery,
                 const std::vector<float>& lastAnswer, Phases& phases) {
  const std::size_t pinned = dagt::parallelThreadCount();
  dagt::parallelThreadCount() = std::thread::hardware_concurrency();
  try {
    serve::PredictionEngine cold(engineConfig());
    cold.addBundleFromDir(bundleDir);
    cold.loadDesign("cold", session.netlist(), in.node, in.placement,
                    "cold");
    std::vector<std::int64_t> all(
        static_cast<std::size_t>(session.numEndpoints()));
    std::iota(all.begin(), all.end(), std::int64_t{0});
    const auto same = [](const std::vector<float>& a,
                         const std::vector<float>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
    };
    const bool allOk = same(session.predict(all), cold.predictEndpoints("cold", all));
    const bool lastOk =
        same(lastAnswer, cold.predictEndpoints("cold", lastQuery));
    if (allOk) {
      phases.check.ok();
    } else {
      phases.check.fail();
    }
    if (!lastOk) phases.timed.demote();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parity check failed: %s\n", e.what());
    phases.check.fail();
  }
  dagt::parallelThreadCount() = pinned;
}

/// Ops for `seconds` of busy time, checked every kCheckEvery ops and after
/// the last.
TimedPhase runOps(Session& s, const PlacedDesign& in,
                  const std::string& bundleDir, double seconds,
                  dagt::Rng& rng, Phases& phases, OpStats& stats) {
  TimedPhase phase;
  dagt::whatif::WhatIfSession& session = *s.session;
  const auto numCells =
      static_cast<std::uint64_t>(session.netlist().numCells());
  const auto& die = in.placement.dieArea;

  std::vector<std::int64_t> query;
  std::vector<float> answer;
  double busy = 0.0;
  double rss = 0.0;
  phase.before = LibraryCounters::now();
  while (busy < seconds) {
    // Inputs of the op, drawn before its clock starts.
    const bool resize = rng.uniform() < 0.7;
    const bool up = rng.uniform() < 0.5;
    auto cell = static_cast<dagt::netlist::CellId>(rng.uniformInt(numCells));
    const dagt::Point to{static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
                         static_cast<float>(rng.uniform(die.lo.y, die.hi.y))};
    query = drawEndpoints(rng, session.numEndpoints(), kQueryEndpoints);

    if (phase.latencyMs.empty()) resetPeakRss();
    const std::uint64_t forwardsBefore = s.engine->metrics().batches;
    const auto t = Clock::now();
    try {
      {
        PERFBENCH_SPAN("whatif/edit");
        if (resize) {
          // A cell with no variant in that direction is skipped; the
          // next cell id is the designer's second choice.
          while (!session.resizeCell(cell, up)) {
            cell = static_cast<dagt::netlist::CellId>((cell + 1) % numCells);
          }
        } else {
          session.moveCell(cell, to);
        }
      }
      {
        PERFBENCH_SPAN("whatif/sync");
        session.sync();
      }
      {
        PERFBENCH_SPAN("whatif/predict");
        answer = session.predict(query);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "op failed: %s\n", e.what());
      phases.timed.fail();
      // A failed op still spends the timed phase, so a session that keeps
      // throwing ends the run with its failures reported.
      busy += msSince(t) / 1000.0;
      continue;
    }
    const double ms = msSince(t);
    busy += ms / 1000.0;
    phase.latencyMs.push_back(ms);
    phases.timed.ok();
    stats.forwards += s.engine->metrics().batches - forwardsBefore;
    stats.conePins.push_back(static_cast<double>(session.staStats().lastVisited));
    stats.dirtyEndpoints.push_back(
        static_cast<double>(session.lastSync().dirtyEndpoints.size()));
    stats.imagesRebuilt.push_back(
        static_cast<double>(session.lastSync().imagesRebuilt));

    if (phase.latencyMs.size() % kCheckEvery == 0 || busy >= seconds) {
      rss = std::max(rss, peakRssMb());
      auto& registry = dagt::obs::TraceRegistry::global();
      const bool tracing = registry.enabled();
      registry.setEnabled(false);
      // The per-op library counters leave the check's work out.
      const LibraryCounters beforeCheck = LibraryCounters::now();
      checkParity(session, in, bundleDir, query, answer, phases);
      const LibraryCounters afterCheck = LibraryCounters::now();
      phase.before.heapAllocs += afterCheck.heapAllocs - beforeCheck.heapAllocs;
      phase.before.fusionCompiles +=
          afterCheck.fusionCompiles - beforeCheck.fusionCompiles;
      registry.setEnabled(tracing);
      resetPeakRss();
    }
  }
  phase.after = LibraryCounters::now();
  phase.elapsedS = busy;
  phase.peakRssMb = rss;
  return phase;
}

}  // namespace

Result runWhatIf(const Options& options) {
  dagt::parallelThreadCount() = 1;
  Result result;

  const std::string bundleDir = options.workDir + "/bundle";
  writeServeBundle(bundleDir);
  const PlacedDesign in = placeDesign(kDesign, kServeScale, options.seed);

  Spans::global().setEnabled(options.trace);
  Session s;
  const auto setUpOnce = [&] {
    s = Session{};
    double seconds = 0.0;
    s = setUp(in, bundleDir, options.seed, result.phases, &seconds);
    return seconds;
  };
  std::vector<double> setups;
  repeatSetUp(setups, setUpOnce);
  logPhase("set-up done");
  result.details.set("endpoints", s.session->numEndpoints());

  dagt::Rng rng(options.seed * 0x100000001b3ULL + 17);
  OpStats stats;
  if (!options.trace) {
    const TimedPhase timed = chunkedTimedPhase(
        options.seconds, [&] { repeatSetUp(setups, setUpOnce); },
        [&](double seconds) {
          return runOps(s, in, bundleDir, seconds, rng, result.phases, stats);
        });
    repeatSetUp(setups, setUpOnce);
    addEndToEnd(result, setups, timed);
  } else {
    OpStats tracedStats;
    const TracedPhases phases =
        alternateTracing(options.seconds, [&](double seconds, bool traced) {
          return runOps(s, in, bundleDir, seconds, rng, result.phases,
                        traced ? tracedStats : stats);
        });
    JsonValue layers =
        JsonValue::object()
            .set("serve.load_design_ms", Spans::global().meanMs("serve/load_design"))
            .set("whatif.edit_ms", Spans::global().meanMs("whatif/edit"))
            .set("whatif.sync_ms", Spans::global().meanMs("whatif/sync"))
            .set("whatif.predict_ms", Spans::global().meanMs("whatif/predict"));

    result.perLayer.push_back({"serve.feature_cache_hit_ratio",
                               s.engine->metrics().cacheHitRate, "ratio"});
    result.perLayer.push_back(
        {"serve.forwards_per_request",
         static_cast<double>(stats.forwards) /
             static_cast<double>(std::max<std::size_t>(
                 phases.untraced.latencyMs.size(), 1)),
         "count"});
    const auto snapshot = s.engine->currentSnapshot("whatif");
    const auto& manifest = s.engine->manifest(in.node);
    addProbeLayers(result, probeModelLayers(*snapshot->dataset, snapshot->data,
                                            manifest.pinFeatureDim,
                                            manifest.model, options.seed));
    result.perLayer.push_back({"sta.cone_pins_mean", mean(stats.conePins), "count"});
    result.perLayer.push_back(
        {"features.dirty_endpoints_mean", mean(stats.dirtyEndpoints), "count"});
    result.perLayer.push_back(
        {"features.images_rebuilt_mean", mean(stats.imagesRebuilt), "count"});
    addCommonLayers(result, phases);
    result.details.set("layers", std::move(layers));
    addSpanTables(result);
  }
  logPhase("timed and check phases done");
  return result;
}

}  // namespace perfbench

// What-if service suite (label "whatif"). Covers the session's determinism
// contract (edited predictions bitwise equal to a cold rebuild), cone-based
// feature-cache invalidation exactness (edits outside an endpoint's cone
// keep its cached artifacts — pointer-shared, not recomputed — while edits
// inside invalidate it), move exactness (re-binned mask footprints equal a
// cold extraction; cones are shared by handle across snapshots),
// commit/revert baselines, the metrics surface, and a reader/writer stress
// that tools/verify.sh also runs under ThreadSanitizer (and the whole
// suite under ASan/UBSan):
//
//   cmake -B build-tsan -S . -DDAGT_SANITIZE=thread
//   cmake --build build-tsan --target dagt_whatif_tests

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "designgen/design_suite.hpp"
#include "features/design_data.hpp"
#include "features/path_extractor.hpp"
#include "netlist/cell_library.hpp"
#include "obs/trace.hpp"
#include "place/layout_maps.hpp"
#include "place/placer.hpp"
#include "serve/model_bundle.hpp"
#include "serve/prediction_engine.hpp"
#include "sta/netlist_edits.hpp"
#include "tensor/expr.hpp"
#include "tensor/kernels/kernels.hpp"
#include "whatif/whatif_session.hpp"

namespace dagt::whatif {
namespace {

// -- Tiny untrained bundle fixture -------------------------------------------
//
// Prediction quality is irrelevant here — the contracts under test are
// bitwise determinism and cache bookkeeping — so the bundle wraps an
// untrained deterministic dac23 model: cheap to build, cheap to forward.

const features::DataConfig& dataConfig() {
  static features::DataConfig config = [] {
    features::DataConfig c;
    c.designScale = 0.2f;
    return c;
  }();
  return config;
}

const std::string& bundleDir() {
  static std::string dir = [] {
    const features::DataPipeline pipeline(dataConfig());
    serve::BundleManifest manifest;
    manifest.modelKind = "dac23";
    manifest.variant = "shared";
    manifest.strategy = "whatif_tests";
    manifest.targetNode = netlist::TechNode::k7nm;
    manifest.vocabularyNodes = dataConfig().nodes;
    manifest.pinFeatureDim = pipeline.featureDim();
    manifest.model.gnnHidden = 16;
    manifest.model.cnnBaseChannels = 4;
    manifest.model.cnnDim = 8;
    manifest.model.headHidden = 16;
    manifest.model.imageResolution = dataConfig().imageResolution;
    manifest.features = dataConfig().features;
    const auto model = serve::ModelBundle::instantiate(manifest);
    // Per-process directory: ctest runs each case as its own process.
    const std::string d =
        (std::filesystem::temp_directory_path() /
         ("dagt_whatif_bundle_" + std::to_string(::getpid())))
            .string();
    serve::ModelBundle::save(*model, manifest, d);
    return d;
  }();
  return dir;
}

/// The same bundle with every parameter shifted off its initial value:
/// the untrained bundle's Linear/LayerNorm biases are all zero, which
/// would hide a recomputed row that misses one.
const std::string& perturbedBundleDir() {
  static std::string dir = [] {
    const serve::ModelBundle bundle = serve::ModelBundle::load(bundleDir());
    Rng rng(0x5eed);
    for (tensor::Tensor p : bundle.model().module().parameters()) {
      for (std::int64_t i = 0; i < p.numel(); ++i) {
        p.data()[i] += static_cast<float>(rng.normal(0.0, 0.2));
      }
    }
    const std::string d = bundleDir() + "_perturbed";
    serve::ModelBundle::save(bundle.model(), bundle.manifest(), d);
    return d;
  }();
  return dir;
}

/// A placed suite design plus an engine with the bundle registered.
/// batching=false by default: caller-thread forwards with the design-keyed
/// batch seed make repeated identical queries bitwise reproducible, which
/// is what the parity assertions lean on.
struct SessionFixture {
  designgen::DesignSuite suite{0.2f};
  netlist::TechNode node = netlist::TechNode::k7nm;
  netlist::CellLibrary lib = netlist::CellLibrary::makeNode(node);
  netlist::Netlist nl;
  place::PlacementResult placement;
  serve::PredictionEngine engine;

  explicit SessionFixture(const char* name = "or1200", bool batching = false,
                          const std::string& bundle = bundleDir())
      : nl([&] {
          const auto& entry = suite.entry(name);
          return suite.buildNetlist(entry, lib);
        }()),
        engine([&] {
          serve::EngineConfig config;
          config.batching = batching;
          config.workerThreads = batching ? 2 : 1;
          return config;
        }()) {
    place::PlacerConfig placerConfig;
    placerConfig.seed ^= suite.entry(name).spec.seed;
    placement = place::Placer::place(nl, placerConfig);
    engine.addBundleFromDir(bundle);
  }
};

/// First cell with a larger drive variant, skipping `skip` candidates.
netlist::CellId findResizable(const netlist::Netlist& nl, int skip = 0) {
  for (netlist::CellId c = 0; c < nl.numCells(); ++c) {
    if (sta::upsizedVariant(nl, c) == netlist::kInvalidCellType) continue;
    if (skip-- == 0) return c;
  }
  return netlist::kInvalidId;
}

/// First net insertFanoutBuffer will accept (>= 4 sinks).
netlist::NetId findBufferable(const netlist::Netlist& nl) {
  for (netlist::NetId n = 0; n < nl.numNets(); ++n) {
    if (nl.net(n).sinks.size() >= 4) return n;
  }
  return netlist::kInvalidId;
}

void expectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << what << ": endpoint " << i << " " << a[i] << " vs " << b[i];
  }
}

// -- Determinism contract ----------------------------------------------------

TEST(WhatIfSession, EditStreamMatchesColdRebuildBitwise) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::int64_t numEndpoints = session.numEndpoints();
  ASSERT_GT(numEndpoints, 8);
  std::vector<std::int64_t> all(static_cast<std::size_t>(numEndpoints));
  std::iota(all.begin(), all.end(), std::int64_t{0});

  const Rect die = f.placement.dieArea;
  int coldSerial = 0;
  const auto checkParity = [&](const char* what) {
    const std::vector<float> incremental = session.predict(all);
    f.engine.loadDesign("cold", session.netlist(), f.node, f.placement,
                        "c" + std::to_string(coldSerial++));
    const std::vector<float> cold = f.engine.predictEndpoints("cold", all);
    expectBitwiseEqual(incremental, cold, what);
  };

  // One edit of each kind, parity after each: resize (pure cone update),
  // move (re-binned footprints + image diff), buffer (structural rebuild).
  const netlist::CellId toResize = findResizable(session.netlist());
  ASSERT_NE(toResize, netlist::kInvalidId);
  ASSERT_TRUE(session.resizeCell(toResize, /*up=*/true));
  checkParity("after resize");
  EXPECT_FALSE(session.lastSync().structuralRebuild);

  const netlist::CellId toMove = findResizable(session.netlist(), 3);
  ASSERT_NE(toMove, netlist::kInvalidId);
  session.moveCell(toMove, Point{die.hi.x, die.hi.y});
  checkParity("after move");
  EXPECT_FALSE(session.lastSync().structuralRebuild);

  const netlist::NetId toBuffer = findBufferable(session.netlist());
  ASSERT_NE(toBuffer, netlist::kInvalidId);
  ASSERT_TRUE(session.insertBuffer(toBuffer).inserted);
  checkParity("after buffer insertion");
  EXPECT_TRUE(session.lastSync().structuralRebuild);
}

// -- Cone-based invalidation exactness ---------------------------------------

TEST(WhatIfSession, EditOutsideConeKeepsCachedEndpointsExactly) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::int64_t numEndpoints = session.numEndpoints();
  const std::vector<float> baseline = session.predictAll();
  const auto before = f.engine.currentSnapshot("wi");
  ASSERT_NE(before, nullptr);

  const netlist::CellId cell = findResizable(session.netlist());
  ASSERT_NE(cell, netlist::kInvalidId);
  const netlist::PinId editedPin = session.netlist().cell(cell).outputPin;
  ASSERT_TRUE(session.resizeCell(cell, /*up=*/true));
  session.sync();
  const auto& res = session.lastSync();
  EXPECT_FALSE(res.structuralRebuild);
  EXPECT_EQ(res.imagesReused + res.imagesRebuilt, numEndpoints);

  // The edit's blast radius must be real but local: some endpoints dirty,
  // and on a multi-hundred-endpoint design not all of them.
  const std::set<std::int64_t> dirty(res.dirtyEndpoints.begin(),
                                     res.dirtyEndpoints.end());
  ASSERT_FALSE(dirty.empty());
  ASSERT_LT(static_cast<std::int64_t>(dirty.size()), numEndpoints);

  // "Inside the cone" direction: every endpoint whose fanout cone contains
  // the resized cell's output pin must be flagged dirty.
  const auto after = f.engine.currentSnapshot("wi");
  ASSERT_NE(after, nullptr);
  ASSERT_NE(after.get(), before.get());
  int coveringEndpoints = 0;
  for (std::int64_t e = 0; e < numEndpoints; ++e) {
    const auto& cone =
        *after->data.paths()[static_cast<std::size_t>(e)].conePins;
    if (std::find(cone.begin(), cone.end(), editedPin) == cone.end()) continue;
    ++coveringEndpoints;
    EXPECT_TRUE(dirty.count(e)) << "endpoint " << e
                                << " contains the edited pin but was kept";
  }
  ASSERT_GT(coveringEndpoints, 0);

  // "Outside the cone" direction: kept endpoints are bit-identical — same
  // prediction as before the edit, and the cached masked image is the SAME
  // allocation as the prior snapshot's, not a recomputed copy.
  const std::vector<float> afterAll = session.predictAll();
  const auto beforeSlots = before->dataset->exportImages(before->data);
  const auto afterSlots = after->dataset->exportImages(after->data);
  ASSERT_EQ(beforeSlots.size(), afterSlots.size());
  int kept = 0;
  for (std::int64_t e = 0; e < numEndpoints; ++e) {
    if (dirty.count(e)) continue;
    ++kept;
    ASSERT_EQ(std::memcmp(&baseline[static_cast<std::size_t>(e)],
                          &afterAll[static_cast<std::size_t>(e)],
                          sizeof(float)),
              0)
        << "kept endpoint " << e << " changed prediction";
    ASSERT_NE(beforeSlots[static_cast<std::size_t>(e)], nullptr);
    EXPECT_EQ(afterSlots[static_cast<std::size_t>(e)].get(),
              beforeSlots[static_cast<std::size_t>(e)].get())
        << "kept endpoint " << e << " lost its shared image slot";
  }
  ASSERT_GT(kept, 0);
}

// -- Move exactness: shared cones, re-binned footprints ----------------------

/// Every path of `snapshot` has the cone and mask footprint a cold
/// PathExtractor::extract of `nl` computes.
void expectPathsMatchColdExtraction(const serve::ServableDesign& snapshot,
                                    const netlist::Netlist& nl,
                                    const place::PlacementResult& placement,
                                    const std::string& what) {
  const place::LayoutMaps maps(nl, placement, dataConfig().imageResolution);
  const auto cold = features::PathExtractor::extract(
      nl, features::PathExtractor::pinBins(nl, maps));
  const auto& paths = snapshot.data.paths();
  ASSERT_EQ(paths.size(), cold.size()) << what;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_EQ(paths[i].endpoint, cold[i].endpoint) << what;
    ASSERT_EQ(*paths[i].conePins, *cold[i].conePins)
        << what << ": cone of endpoint " << i;
    ASSERT_EQ(paths[i].maskBins, cold[i].maskBins)
        << what << ": footprint of endpoint " << i;
  }
}

/// Every path of `snapshot` shares its cone with `prior` (same handle).
void expectConesShared(const serve::ServableDesign& snapshot,
                       const serve::ServableDesign& prior,
                       const std::string& what) {
  const auto& paths = snapshot.data.paths();
  ASSERT_EQ(paths.size(), prior.data.paths().size()) << what;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    ASSERT_EQ(paths[i].conePins.get(), prior.data.paths()[i].conePins.get())
        << what << ": endpoint " << i << " copied its cone";
  }
}

TEST(WhatIfMoveExactness, SeededEditStreamMatchesColdExtraction) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const Rect die = f.placement.dieArea;
  const auto numCells = static_cast<std::uint64_t>(f.nl.numCells());
  Rng rng(0x30fe);
  auto prior = f.engine.currentSnapshot("wi");
  ASSERT_NE(prior, nullptr);
  int vacatedKept = 0;
  int vacatedDropped = 0;
  for (int step = 0; step < 24; ++step) {
    // One to three edits per sync, so a cone can hold several moved cells.
    const int edits = 1 + static_cast<int>(rng.uniformInt(3));
    for (int k = 0; k < edits; ++k) {
      if (rng.bernoulli(0.3)) {
        (void)session.resizeCell(
            static_cast<netlist::CellId>(rng.uniformInt(numCells)),
            rng.bernoulli(0.5));
        continue;
      }
      // Move a cell of a random cone, either anywhere or onto another cell
      // of the same cone: stacked cells make later moves leave bins that
      // the cone still covers.
      const auto& paths = prior->data.paths();
      const auto& cone = *paths[rng.uniformInt(paths.size())].conePins;
      const auto cellAt = [&](const std::uint64_t i) {
        return session.netlist().pin(cone[i]).cell;
      };
      const netlist::CellId cell = cellAt(rng.uniformInt(cone.size()));
      const netlist::CellId onto = cellAt(rng.uniformInt(cone.size()));
      if (cell == netlist::kInvalidId) continue;
      session.moveCell(
          cell, onto != netlist::kInvalidId && rng.bernoulli(0.5)
                    ? session.netlist().cell(onto).location
                    : Point{static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
                            static_cast<float>(
                                rng.uniform(die.lo.y, die.hi.y))});
    }
    const bool revert = step == 12;
    if (revert) session.revert();
    session.sync();
    const auto snapshot = f.engine.currentSnapshot("wi");
    const std::string what = "step " + std::to_string(step);
    ASSERT_FALSE(session.lastSync().structuralRebuild) << what;
    expectPathsMatchColdExtraction(*snapshot, session.netlist(), f.placement,
                                   what);
    expectConesShared(*snapshot, *prior, what);
    // Tally the cone pins a sync re-binned: is the vacated bin still in
    // the footprint (another cone pin covers it) or gone?
    const auto& oldBins = prior->data.pinBins;
    const auto& newBins = snapshot->data.pinBins;
    for (const auto& path : snapshot->data.paths()) {
      if (revert) break;  // the baseline snapshot, not a re-bin
      for (const netlist::PinId p : *path.conePins) {
        const std::int32_t vacated = oldBins[static_cast<std::size_t>(p)];
        if (vacated == newBins[static_cast<std::size_t>(p)]) continue;
        ++(std::binary_search(path.maskBins.begin(), path.maskBins.end(),
                              vacated)
               ? vacatedKept
               : vacatedDropped);
      }
    }
    prior = snapshot;
  }
  EXPECT_GT(vacatedKept, 0) << "no move left a covered bin behind";
  EXPECT_GT(vacatedDropped, 0) << "no move emptied a bin of its cone";
}

/// A cell with a pin in some endpoint's cone, and whether another pin of
/// that cone (not on the cell) sits in the same bin: the move case where
/// the vacated bin stays in the footprint (`covered`) or leaves it.
struct MoveCase {
  std::size_t endpoint = 0;
  netlist::PinId pin = netlist::kInvalidId;  // the cell's pin in the cone
  netlist::CellId cell = netlist::kInvalidId;
  std::int32_t bin = -1;
};

MoveCase findMoveCase(const serve::ServableDesign& snapshot,
                      const netlist::Netlist& nl, const bool covered) {
  const auto& bins = snapshot.data.pinBins;
  const auto& paths = snapshot.data.paths();
  for (std::size_t e = 0; e < paths.size(); ++e) {
    const auto& cone = *paths[e].conePins;
    for (const netlist::PinId p : cone) {
      const netlist::CellId cell = nl.pin(p).cell;
      if (cell == netlist::kInvalidId) continue;
      const std::int32_t bin = bins[static_cast<std::size_t>(p)];
      const bool others = std::any_of(
          cone.begin(), cone.end(), [&](const netlist::PinId q) {
            return nl.pin(q).cell != cell &&
                   bins[static_cast<std::size_t>(q)] == bin;
          });
      if (others == covered) return {e, p, cell, bin};
    }
  }
  return {};
}

/// Moves the case's cell to the die corner farthest from its bin, syncs,
/// and returns the cell's new bin.
std::int32_t moveAway(WhatIfSession& session, serve::PredictionEngine& engine,
                      const MoveCase& c, const Rect& die) {
  const std::int32_t res =
      engine.currentSnapshot(session.key())->data.maps->resolution();
  const bool lowHalf = c.bin / res < res / 2;
  session.moveCell(c.cell, lowHalf ? die.hi : die.lo);
  session.sync();
  return engine.currentSnapshot(session.key())
      ->data.pinBins[static_cast<std::size_t>(c.pin)];
}

TEST(WhatIfMoveExactness, VacatedBinStaysWhileAnotherConePinCoversIt) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const auto prior = f.engine.currentSnapshot("wi");
  const MoveCase c = findMoveCase(*prior, session.netlist(), /*covered=*/true);
  ASSERT_NE(c.cell, netlist::kInvalidId);
  const std::int32_t newBin =
      moveAway(session, f.engine, c, f.placement.dieArea);
  ASSERT_NE(newBin, c.bin);
  const auto snapshot = f.engine.currentSnapshot("wi");
  expectPathsMatchColdExtraction(*snapshot, session.netlist(), f.placement,
                                 "covered move");
  expectConesShared(*snapshot, *prior, "covered move");
  const auto& bins = snapshot->data.paths()[c.endpoint].maskBins;
  EXPECT_TRUE(std::binary_search(bins.begin(), bins.end(), c.bin));
  EXPECT_TRUE(std::binary_search(bins.begin(), bins.end(), newBin));
}

TEST(WhatIfMoveExactness, VacatedBinLeavesWhenNoOtherConePinCoversIt) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const auto prior = f.engine.currentSnapshot("wi");
  const MoveCase c =
      findMoveCase(*prior, session.netlist(), /*covered=*/false);
  ASSERT_NE(c.cell, netlist::kInvalidId);
  const std::int32_t newBin =
      moveAway(session, f.engine, c, f.placement.dieArea);
  ASSERT_NE(newBin, c.bin);
  const auto snapshot = f.engine.currentSnapshot("wi");
  expectPathsMatchColdExtraction(*snapshot, session.netlist(), f.placement,
                                 "emptying move");
  expectConesShared(*snapshot, *prior, "emptying move");
  const auto& bins = snapshot->data.paths()[c.endpoint].maskBins;
  EXPECT_FALSE(std::binary_search(bins.begin(), bins.end(), c.bin));
  EXPECT_TRUE(std::binary_search(bins.begin(), bins.end(), newBin));
}

TEST(WhatIfMoveExactness, DieChangeRebuildsFootprintsCold) {
  // Every pin's bin depends on the die, so a cone update with a new die
  // cannot patch the prior pin-bin table and must take the cold path.
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  place::PlacementResult grown = f.placement;
  grown.dieArea.hi.x += grown.dieArea.width();
  serve::FeatureService::ConeUpdate update{
      session.netlist(), f.node, grown, session.timing(), {}, {}, false};
  const auto result =
      f.engine.applyConeUpdate("wi", "grown", std::move(update));
  EXPECT_TRUE(result.structuralRebuild);
  expectPathsMatchColdExtraction(*result.design, session.netlist(), grown,
                                 "grown die");
}

// -- Commit / revert ---------------------------------------------------------

TEST(WhatIfSession, RevertRestoresBaselinePredictionsBitwise) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::vector<float> baseline = session.predictAll();
  const std::int64_t baseCells = session.netlist().numCells();

  const Rect die = f.placement.dieArea;
  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.moveCell(findResizable(session.netlist(), 5),
                   Point{die.lo.x, die.lo.y});
  ASSERT_TRUE(session.insertBuffer(findBufferable(session.netlist())).inserted);
  EXPECT_EQ(session.netlist().numCells(), baseCells + 1);

  session.revert();
  EXPECT_EQ(session.netlist().numCells(), baseCells);
  expectBitwiseEqual(session.predictAll(), baseline, "after revert");
}

TEST(WhatIfSession, CommitMovesTheRevertBaseline) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);

  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.commit();
  const std::vector<float> committed = session.predictAll();

  const Rect die = f.placement.dieArea;
  session.moveCell(findResizable(session.netlist(), 7),
                   Point{die.hi.x, die.lo.y});
  session.revert();
  // Revert lands on the committed state, not the construction-time one.
  expectBitwiseEqual(session.predictAll(), committed, "after commit+revert");
}

// -- Metrics and tracing surface ---------------------------------------------

TEST(WhatIfSession, MetricsExposeEditAndConeCounters) {
  SessionFixture f;
  obs::TraceRegistry::global().setEnabled(true);
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);

  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.predict({0, 1});
  session.moveCell(findResizable(session.netlist(), 2),
                   Point{f.placement.dieArea.hi.x, f.placement.dieArea.hi.y});
  session.predict({2});

  const serve::MetricsSnapshot snap = session.metrics();
  EXPECT_EQ(snap.whatifEdits, 2u);
  EXPECT_EQ(snap.whatifRepredicts, 2u);
  EXPECT_GE(snap.coneUpdates, 2u);
  EXPECT_EQ(snap.coneStructuralRebuilds, 0u);
  EXPECT_GT(snap.staIncrementalUpdates, 0u);
  EXPECT_GE(snap.staPinsVisitedTotal, snap.staPinsVisitedLast);
  std::uint64_t histTotal = 0;
  for (const std::uint64_t bucket : snap.staConeHist) histTotal += bucket;
  EXPECT_EQ(histTotal, snap.staIncrementalUpdates);

  // With tracing on, the snapshot carries whatif/ and sta/ span aggregates.
  bool sawEdit = false, sawSync = false;
  for (const auto& span : snap.traceSpans) {
    sawEdit = sawEdit || span.name == "whatif/edit";
    sawSync = sawSync || span.name == "whatif/sync";
  }
  EXPECT_TRUE(sawEdit);
  EXPECT_TRUE(sawSync);
  obs::TraceRegistry::global().setEnabled(false);
}

// -- GNN memo ----------------------------------------------------------------

/// Runs at the scalar tier (true) and at the detected tier (false).
class GnnMemoParity : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      tensor::kernels::forceTier(tensor::kernels::Tier::kScalar);
    }
  }
  void TearDown() override { tensor::kernels::resetTier(); }
};

TEST_P(GnnMemoParity, EveryEditAndRevertMatchesColdEngineBitwise) {
  SessionFixture f("or1200", /*batching=*/false, perturbedBundleDir());
  serve::EngineConfig coldConfig;
  coldConfig.batching = false;
  serve::PredictionEngine cold(coldConfig);
  cold.addBundleFromDir(perturbedBundleDir());

  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  int coldSerial = 0;
  const auto checkParity = [&](const char* what) {
    std::vector<std::int64_t> all(
        static_cast<std::size_t>(session.numEndpoints()));
    std::iota(all.begin(), all.end(), std::int64_t{0});
    const std::vector<float> served = session.predict(all);
    cold.loadDesign("cold", session.netlist(), f.node, f.placement,
                    "c" + std::to_string(coldSerial++));
    expectBitwiseEqual(served, cold.predictEndpoints("cold", all), what);
  };

  const Rect die = f.placement.dieArea;
  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  checkParity("after resize");
  session.moveCell(findResizable(session.netlist(), 3),
                   Point{die.hi.x, die.lo.y});
  checkParity("after move");
  const serve::MetricsSnapshot incremental = f.engine.metrics();
  EXPECT_GE(incremental.gnnIncrementalRefreshes, 2u);
  EXPECT_EQ(incremental.gnnFullForwards, 1u);  // the load-time warm-up

  ASSERT_TRUE(session.insertBuffer(findBufferable(session.netlist())).inserted);
  checkParity("after buffer insertion");
  EXPECT_EQ(f.engine.metrics().gnnFullForwards, 2u);  // new pin graph

  session.revert();
  checkParity("after revert");
  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist(), 9), true));
  checkParity("after resize past the revert");
}

INSTANTIATE_TEST_SUITE_P(Tiers, GnnMemoParity, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "scalar"
                                                          : "active");
                         });

/// An endpoint of `after` whose fanin cone holds a pin whose feature row
/// differs from `before`'s: a query of it must refresh GNN rows.
std::int64_t endpointInChangedFanout(const serve::ServableDesign& before,
                                     const serve::ServableDesign& after) {
  const tensor::Tensor& was = before.data.pinFeatures;
  const tensor::Tensor& now = after.data.pinFeatures;
  const auto width = static_cast<std::size_t>(now.dim(1));
  const auto& paths = after.data.paths();
  for (std::size_t e = 0; e < paths.size(); ++e) {
    for (const netlist::PinId p : *paths[e].conePins) {
      const auto row = static_cast<std::size_t>(p) * width;
      if (std::memcmp(was.data() + row, now.data() + row,
                      width * sizeof(float)) != 0) {
        return static_cast<std::int64_t>(e);
      }
    }
  }
  return -1;
}

TEST(GnnMemo, CountersTrackHitsRefreshesAndRows) {
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::int64_t pins = session.netlist().numPins();
  serve::MetricsSnapshot snap = f.engine.metrics();
  EXPECT_EQ(snap.gnnFullForwards, 1u);
  EXPECT_EQ(snap.gnnRowsRecomputed, static_cast<std::uint64_t>(pins));

  // Repeat queries on one snapshot compute no GNN rows.
  session.predict({0, 1});
  session.predict({2});
  snap = f.engine.metrics();
  EXPECT_EQ(snap.gnnMemoHits, 2u);
  EXPECT_EQ(snap.gnnIncrementalRefreshes, 0u);

  // A resize keeps the pin graph. A query in the resized cell's fanout
  // recomputes part of the rows, once: asking again is a hit.
  const auto before = f.engine.currentSnapshot("wi");
  ASSERT_TRUE(session.resizeCell(findResizable(session.netlist()), true));
  session.sync();
  const std::int64_t downstream =
      endpointInChangedFanout(*before, *f.engine.currentSnapshot("wi"));
  ASSERT_GE(downstream, 0);
  session.predict({downstream});
  session.predict({downstream});
  snap = f.engine.metrics();
  EXPECT_EQ(snap.gnnIncrementalRefreshes, 1u);
  EXPECT_EQ(snap.gnnMemoHits, 3u);
  EXPECT_EQ(snap.gnnFullForwards, 1u);
  EXPECT_GT(snap.gnnRowsRecomputed, static_cast<std::uint64_t>(pins));
  EXPECT_LT(snap.gnnRowsRecomputed, static_cast<std::uint64_t>(2 * pins));

  const std::string json = snap.toJson().dump();
  for (const char* key : {"gnn_memo_hits", "gnn_incremental_refreshes",
                          "gnn_full_forwards", "gnn_rows_recomputed"}) {
    EXPECT_NE(json.find('"' + std::string(key) + '"'), std::string::npos)
        << key;
  }
  EXPECT_NE(snap.renderTable().find("gnn memo hits"), std::string::npos);
}

TEST(GnnMemo, RepredictsCompileNoProgramsAfterWarmUp) {
  // The GNN runs eagerly: its per-level row counts would each need a
  // program, more than a 64-entry program cache holds. The rest of the
  // forward replays programs compiled for the query shape at warm-up.
  SessionFixture f;
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::vector<std::int64_t> query = {0, 1, 2, 3, 4, 5, 6, 7};
  session.predict(query);
  const std::uint64_t compiled = tensor::expr::stats().programsCompiled;

  const Rect die = f.placement.dieArea;
  for (int edit = 0; edit < 6; ++edit) {
    if (edit % 2 == 0) {
      ASSERT_TRUE(
          session.resizeCell(findResizable(session.netlist(), edit), true));
    } else {
      session.moveCell(findResizable(session.netlist(), edit),
                       Point{die.lo.x + edit, die.hi.y - edit});
    }
    session.predict(query);
  }
  EXPECT_EQ(tensor::expr::stats().programsCompiled, compiled);
}

// -- Reader/writer stress (ThreadSanitizer target) ---------------------------

/// parallelFor is serial unless the thread count is raised; force real
/// fan-out for the duration of the test.
class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(std::size_t n) : saved_(parallelThreadCount()) {
    parallelThreadCount() = n;
  }
  ~ThreadCountGuard() { parallelThreadCount() = saved_; }

 private:
  std::size_t saved_;
};

TEST(WhatIfConcurrency, ReadersPredictWhileSessionEdits) {
  ThreadCountGuard guard(4);
  SessionFixture f("or1200", /*batching=*/true);
  WhatIfSession session(f.engine, "wi", f.nl, f.node, f.placement);
  const std::int64_t numEndpoints = session.numEndpoints();
  ASSERT_GT(numEndpoints, 8);

  // Readers hammer the engine (snapshot lookups + lazy masked-image fills
  // + request coalescing) while the session swaps snapshots under them.
  // In-flight queries finish against whichever snapshot they grabbed; the
  // assertion here is coarse (finiteness) — TSan judges the interleaving.
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(0xbeef0000ULL + static_cast<std::uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        std::vector<std::int64_t> query(4);
        for (auto& e : query) {
          e = static_cast<std::int64_t>(
              rng.uniformInt(static_cast<std::uint64_t>(numEndpoints)));
        }
        for (const float v : f.engine.predictEndpoints("wi", query)) {
          if (!std::isfinite(v)) failed.store(true);
        }
      }
    });
  }

  Rng rng(0xec0ULL);
  const Rect die = f.placement.dieArea;
  for (int edit = 0; edit < 6; ++edit) {
    if (edit % 3 == 2) {
      session.moveCell(
          static_cast<netlist::CellId>(rng.uniformInt(
              static_cast<std::uint64_t>(session.netlist().numCells()))),
          Point{static_cast<float>(rng.uniform(die.lo.x, die.hi.x)),
                static_cast<float>(rng.uniform(die.lo.y, die.hi.y))});
    } else {
      const netlist::CellId cell = findResizable(session.netlist(), edit);
      if (cell == netlist::kInvalidId) continue;
      session.resizeCell(cell, edit % 2 == 0);
    }
    for (const float v : session.predict({0, 1, 2})) {
      if (!std::isfinite(v)) failed.store(true);
    }
  }

  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace dagt::whatif

#include "serve/feature_service.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/check.hpp"
#include "features/path_extractor.hpp"
#include "netlist/io.hpp"
#include "obs/trace.hpp"
#include "sta/sta_engine.hpp"

namespace dagt::serve {

namespace {

/// %.9g round-trips float exactly through text.
void writeRect(std::ostream& out, const char* tag, const Rect& r) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s %.9g %.9g %.9g %.9g", tag,
                static_cast<double>(r.lo.x), static_cast<double>(r.lo.y),
                static_cast<double>(r.hi.x), static_cast<double>(r.hi.y));
  out << buf << '\n';
}

Rect parseRect(std::istringstream& ls, const std::int64_t lineNo) {
  Rect r;
  ls >> r.lo.x >> r.lo.y >> r.hi.x >> r.hi.y;
  DAGT_CHECK_MSG(!ls.fail(),
                 "placement line " << lineNo << ": malformed rect line");
  return r;
}

/// FNV-1a over a file's bytes — the cache fingerprint. Collisions are
/// astronomically unlikely at the "did the netlist change" granularity.
std::string fileFingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DAGT_CHECK_MSG(in.good(), "cannot open " << path);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
    }
    if (in.eof()) break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace

void writePlacementFile(const place::PlacementResult& placement,
                        const std::string& path) {
  std::ofstream out(path);
  DAGT_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out << "dagtpl 1\n";
  writeRect(out, "die", placement.dieArea);
  for (const Rect& macro : placement.macros) {
    writeRect(out, "macro", macro);
  }
  DAGT_CHECK_MSG(out.good(), "write to " << path << " failed");
}

place::PlacementResult readPlacementFile(const std::string& path) {
  return netlist::io::readFromFile(path, [](std::istream& in) {
    std::string line;
    std::int64_t lineNo = 1;
    DAGT_CHECK_MSG(std::getline(in, line) && line.rfind("dagtpl 1", 0) == 0,
                   "not a dagtpl v1 placement file");
    place::PlacementResult placement;
    bool sawDie = false;
    while (std::getline(in, line)) {
      ++lineNo;
      if (line.empty()) continue;
      std::istringstream ls(line);
      std::string tag;
      ls >> tag;
      if (tag == "die") {
        placement.dieArea = parseRect(ls, lineNo);
        sawDie = true;
      } else if (tag == "macro") {
        placement.macros.push_back(parseRect(ls, lineNo));
      } else {
        DAGT_CHECK_MSG(false, "placement line " << lineNo
                                                << ": unknown line tag '"
                                                << tag << "'");
      }
    }
    DAGT_CHECK_MSG(sawDie, "placement file lacks a die line");
    return placement;
  });
}

FeatureService::FeatureService(const BundleManifest& manifest)
    : manifest_(manifest) {
  libraries_.resize(netlist::kNumTechNodes);
  std::vector<const netlist::CellLibrary*> libPtrs;
  for (const auto node : manifest_.vocabularyNodes) {
    auto& slot = libraries_[static_cast<std::size_t>(node)];
    DAGT_CHECK_MSG(slot == nullptr,
                   "duplicate node in manifest vocabulary list");
    slot = std::make_unique<netlist::CellLibrary>(
        netlist::CellLibrary::makeNode(node));
    libPtrs.push_back(slot.get());
  }
  vocab_ = std::make_unique<netlist::GateTypeVocabulary>(libPtrs);
  featureBuilder_ = std::make_unique<features::FeatureBuilder>(
      vocab_.get(), manifest_.features);
  DAGT_CHECK_MSG(featureBuilder_->featureDim() == manifest_.pinFeatureDim,
                 "manifest pin_feature_dim " << manifest_.pinFeatureDim
                     << " does not match the reconstructed pipeline's "
                     << featureBuilder_->featureDim()
                     << " (vocabulary nodes differ from training?)");
}

const netlist::CellLibrary& FeatureService::library(
    netlist::TechNode node) const {
  const auto& slot = libraries_[static_cast<std::size_t>(node)];
  DAGT_CHECK_MSG(slot != nullptr, netlist::techNodeName(node)
                                      << " is not in this bundle's "
                                         "vocabulary");
  return *slot;
}

std::int64_t FeatureService::featureDim() const {
  return featureBuilder_->featureDim();
}

std::shared_ptr<const ServableDesign> FeatureService::build(
    netlist::Netlist netlist, netlist::TechNode node,
    const place::PlacementResult& placement) const {
  auto servable =
      std::make_shared<ServableDesign>(features::DesignData(std::move(netlist)));
  features::DesignData& data = servable->data;
  data.name = data.netlist.name();
  data.node = node;
  data.role = designgen::DesignRole::kTest;
  data.placement = placement;

  // The same pre-routing snapshot sequence as DataPipeline::buildCustom,
  // minus the sign-off flow (labels are what the model predicts).
  data.maps = std::make_unique<place::LayoutMaps>(
      data.netlist, data.placement,
      static_cast<std::int32_t>(manifest_.model.imageResolution));
  data.graph = std::make_shared<const features::PinGraph>(data.netlist);
  const auto preTiming = sta::StaEngine::run(
      data.netlist, nullptr,
      sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});
  data.preRouteArrivals = preTiming.endpointArrivals(data.netlist);
  data.pinFeatures = featureBuilder_->build(data.netlist, &preTiming);
  data.pinBins = features::PathExtractor::pinBins(data.netlist, *data.maps);
  data.setPaths(features::PathExtractor::extract(data.netlist, data.pinBins));
  data.stats = data.netlist.stats();
  data.labels.assign(data.paths().size(), 0.0f);  // unknown at serve time

  servable->dataset = std::make_unique<core::TimingDataset>(
      std::vector<const features::DesignData*>{&data});
  // Prewarm the per-endpoint masked-image cache: afterwards every batch
  // assembly only reads it, so worker threads may share the snapshot.
  if (data.numEndpoints() > 0) {
    (void)servable->dataset->fullBatch(data);
  }
  return servable;
}

std::shared_ptr<const ServableDesign> FeatureService::fromFiles(
    const std::string& key, const std::string& netlistPath,
    const std::string& libraryPath, const std::string& placementPath) {
  std::string fingerprint = fileFingerprint(netlistPath);
  if (!placementPath.empty()) {
    fingerprint += ':';
    fingerprint += fileFingerprint(placementPath);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second.fingerprint == fingerprint) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      DAGT_TRACE_INSTANT("serve/feature_cache_hit", "endpoints",
                         it->second.design->numEndpoints());
      return it->second.design;
    }
  }
  DAGT_TRACE_SCOPE("serve/feature_build");

  // The file library identifies the node; cells resolve against this
  // service's own deterministic library for that node so the gate-type
  // one-hot layout is guaranteed to match training.
  const auto fileLib = netlist::io::readLibraryFile(libraryPath);
  const netlist::CellLibrary& lib = library(fileLib.node());
  netlist::Netlist nl = netlist::io::readNetlistFile(netlistPath, lib);

  place::PlacementResult placement;
  if (!placementPath.empty()) {
    placement = readPlacementFile(placementPath);
  } else {
    Rect die{{0, 0}, {0, 0}};
    for (netlist::PinId p = 0; p < nl.numPins(); ++p) {
      die.expand(nl.pinLocation(p));
    }
    placement.dieArea = die;
  }

  auto servable = build(std::move(nl), fileLib.node(), placement);
  std::lock_guard<std::mutex> lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  cache_[key] = {std::move(fingerprint), servable};
  return servable;
}

std::shared_ptr<const ServableDesign> FeatureService::fromNetlist(
    const std::string& key, const std::string& revision,
    netlist::Netlist netlist, netlist::TechNode node,
    const place::PlacementResult& placement) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second.fingerprint == revision) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      DAGT_TRACE_INSTANT("serve/feature_cache_hit", "endpoints",
                         it->second.design->numEndpoints());
      return it->second.design;
    }
  }
  DAGT_TRACE_SCOPE("serve/feature_build");
  auto servable = build(std::move(netlist), node, placement);
  std::lock_guard<std::mutex> lock(mutex_);
  misses_.fetch_add(1, std::memory_order_relaxed);
  cache_[key] = {revision, servable};
  return servable;
}

std::shared_ptr<const ServableDesign> FeatureService::cached(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = cache_.find(key);
  return it == cache_.end() ? nullptr : it->second.design;
}

FeatureService::ConeUpdateResult FeatureService::applyConeUpdate(
    const std::string& key, const std::string& revision, ConeUpdate update) {
  DAGT_TRACE_SCOPE("serve/cone_update");
  coneUpdates_.fetch_add(1, std::memory_order_relaxed);
  ConeUpdateResult result;

  std::shared_ptr<const ServableDesign> prior = cached(key);
  if (update.structural || prior == nullptr ||
      update.placement.dieArea != prior->data.placement.dieArea) {
    // Pins/nets were added, the die (and with it every pin's bin) changed,
    // or there is nothing to diff against: every cone and every mask
    // footprint is suspect, so take the cold path.
    auto servable =
        build(std::move(update.netlist), update.node, update.placement);
    coneStructuralRebuilds_.fetch_add(1, std::memory_order_relaxed);
    coneEndpointsEvicted_.fetch_add(
        static_cast<std::uint64_t>(servable->numEndpoints()),
        std::memory_order_relaxed);
    result.design = servable;
    result.structuralRebuild = true;
    result.imagesRebuilt = servable->numEndpoints();
    result.dirtyEndpoints.resize(
        static_cast<std::size_t>(servable->numEndpoints()));
    std::iota(result.dirtyEndpoints.begin(), result.dirtyEndpoints.end(),
              std::int64_t{0});
    std::lock_guard<std::mutex> lock(mutex_);
    cache_[key] = {revision, servable};
    return result;
  }

  // Non-structural edit: the pin/net id spaces match the prior snapshot,
  // so its per-endpoint artifacts can be diffed against the new state.
  auto servable = std::make_shared<ServableDesign>(
      features::DesignData(std::move(update.netlist)));
  features::DesignData& data = servable->data;
  data.name = data.netlist.name();
  data.node = update.node;
  data.role = designgen::DesignRole::kTest;
  data.placement = update.placement;
  DAGT_CHECK_MSG(
      data.netlist.numPins() == prior->data.netlist.numPins(),
      "non-structural cone update changed the pin count of " << data.name);

  // Per-pin and global artifacts. Anything whose inputs did not change is
  // aliased from the prior snapshot (graph, paths, clean pin-feature rows,
  // clean masked images) — reuse is bitwise, not approximate, because each
  // artifact is a deterministic per-element function of the netlist. The
  // layout image is the exception and is rebuilt wholesale: RUDY is
  // normalized by its global mean, so one moved cell perturbs nearly every
  // nonzero bin, and patching it locally could not stay bit-exact anyway.
  {
    DAGT_TRACE_SCOPE("serve/cone_features");
    {
      DAGT_TRACE_SCOPE("serve/cone_maps");
      data.maps = std::make_unique<place::LayoutMaps>(
          data.netlist, data.placement,
          static_cast<std::int32_t>(manifest_.model.imageResolution));
    }
    // Connectivity is untouched, so the pin graph carries over as-is.
    data.graph = prior->data.graph;
    data.preRouteArrivals = update.preTiming.endpointArrivals(data.netlist);
    {
      // A pin-feature row is a pure function of its own pin, so patching
      // the dirty rows of a copied matrix equals a full rebuild bit for
      // bit (FeatureBuilder::rebuildRows shares build()'s row code).
      DAGT_TRACE_SCOPE("serve/cone_pinfeats");
      data.pinFeatures = prior->data.pinFeatures.clone();
      featureBuilder_->rebuildRows(data.netlist, &update.preTiming,
                                   update.dirtyPins, data.pinFeatures);
      featureBuilder_->rebuildRows(data.netlist, &update.preTiming,
                                   update.movedPins, data.pinFeatures);
    }
    data.stats = data.netlist.stats();
  }

  const std::size_t numPins = static_cast<std::size_t>(data.netlist.numPins());
  std::vector<std::uint8_t> dirtyPin(numPins, 0);
  for (const netlist::PinId p : update.dirtyPins) {
    dirtyPin[static_cast<std::size_t>(p)] = 1;
  }
  for (const netlist::PinId p : update.movedPins) {
    dirtyPin[static_cast<std::size_t>(p)] = 1;
  }

  // Cones: connectivity is unchanged, so cone membership carries over and
  // every path shares its cone with the prior snapshot. Only a moved pin
  // changes a footprint: the pin-bin table is patched at the moved pins and
  // each cone holding one is re-binned from it, which equals a cold
  // extraction bit for bit. When nothing moved (resizes only — the common
  // ECO), the table and the whole paths vector carry over as they are.
  const auto& oldPaths = prior->data.paths();
  std::vector<std::uint8_t> maskStale(oldPaths.size(), 0);
  {
    DAGT_TRACE_SCOPE("serve/cone_paths");
    data.pinBins = prior->data.pinBins;
    if (update.movedPins.empty()) {
      data.pathsPtr = prior->data.pathsPtr;
    } else {
      for (const netlist::PinId p : update.movedPins) {
        data.pinBins[static_cast<std::size_t>(p)] =
            features::PathExtractor::pinBin(data.netlist, *data.maps, p);
      }
      std::vector<features::TimingPath> paths(oldPaths);
      for (std::size_t i = 0; i < paths.size(); ++i) {
        maskStale[i] = features::PathExtractor::rebin(
            paths[i], prior->data.pinBins, data.pinBins);
      }
      data.setPaths(std::move(paths));
    }
    data.labels.assign(data.paths().size(), 0.0f);
  }

  // Masked-image invalidation by image diff: a cached masked image stays
  // bit-valid iff no changed bin falls inside its dilated footprint.
  // maskedImage dilates the footprint by one bin, and dilate(A)∩B != ∅
  // iff A∩dilate(B) != ∅, so we dilate the *changed* bins once and test
  // the raw maskBins against that.
  std::vector<std::int64_t> imageDirty;
  {
    DAGT_TRACE_SCOPE("serve/cone_images");
    const auto& oldImg = prior->data.maps->image();
    const auto& newImg = data.maps->image();
    DAGT_CHECK(oldImg.size() == newImg.size());
    const std::int32_t res = data.maps->resolution();
    const std::size_t plane = static_cast<std::size_t>(res) *
                              static_cast<std::size_t>(res);
    std::vector<std::uint8_t> nearChanged(plane, 0);
    for (std::size_t i = 0; i < plane; ++i) {
      bool changed = false;
      for (std::size_t c = 0; c < 3 && !changed; ++c) {
        changed = std::memcmp(&oldImg[c * plane + i], &newImg[c * plane + i],
                              sizeof(float)) != 0;
      }
      if (!changed) continue;
      const std::int32_t gx = static_cast<std::int32_t>(i) % res;
      const std::int32_t gy = static_cast<std::int32_t>(i) / res;
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        for (std::int32_t dx = -1; dx <= 1; ++dx) {
          const std::int32_t x = gx + dx;
          const std::int32_t y = gy + dy;
          if (x >= 0 && x < res && y >= 0 && y < res) {
            nearChanged[static_cast<std::size_t>(y * res + x)] = 1;
          }
        }
      }
    }

    // Export is O(endpoints) shared-handle copies — the pixels themselves
    // are never duplicated. Evicted slots are reset and refill lazily on
    // first use (the image cache is thread-safe), so a sync pays for the
    // images a follow-up query actually touches, not for every stale one.
    std::vector<core::TimingDataset::ImageSlot> imported =
        prior->dataset->exportImages(prior->data);
    DAGT_CHECK(imported.size() == data.paths().size());
    for (std::size_t i = 0; i < data.paths().size(); ++i) {
      bool stale = maskStale[i] != 0;
      if (!stale) {
        for (const std::int32_t bin : data.paths()[i].maskBins) {
          if (nearChanged[static_cast<std::size_t>(bin)]) {
            stale = true;
            break;
          }
        }
      }
      if (stale) {
        imported[i].reset();
        imageDirty.push_back(static_cast<std::int64_t>(i));
      }
    }
    result.imagesRebuilt = static_cast<std::int64_t>(imageDirty.size());
    result.imagesReused =
        static_cast<std::int64_t>(data.paths().size()) - result.imagesRebuilt;
    coneEndpointsEvicted_.fetch_add(
        static_cast<std::uint64_t>(result.imagesRebuilt),
        std::memory_order_relaxed);
    coneEndpointsReused_.fetch_add(
        static_cast<std::uint64_t>(result.imagesReused),
        std::memory_order_relaxed);

    servable->dataset = std::make_unique<core::TimingDataset>(
        std::vector<const features::DesignData*>{&data});
    servable->dataset->importImages(data, std::move(imported));
  }

  {
    DAGT_TRACE_SCOPE("serve/cone_dirty");
    // An endpoint's prediction can move through its cone features (a dirty
    // pin inside the cone) or through its masked image; everything else is
    // bit-identical to the prior snapshot's prediction inputs.
    std::vector<std::uint8_t> endpointDirty(data.paths().size(), 0);
    for (const std::int64_t e : imageDirty) {
      endpointDirty[static_cast<std::size_t>(e)] = 1;
    }
    for (std::size_t i = 0; i < data.paths().size(); ++i) {
      if (endpointDirty[i]) continue;
      for (const netlist::PinId p : *data.paths()[i].conePins) {
        if (dirtyPin[static_cast<std::size_t>(p)]) {
          endpointDirty[i] = 1;
          break;
        }
      }
    }
    for (std::size_t i = 0; i < endpointDirty.size(); ++i) {
      if (endpointDirty[i]) {
        result.dirtyEndpoints.push_back(static_cast<std::int64_t>(i));
      }
    }
  }

  result.design = servable;
  std::lock_guard<std::mutex> lock(mutex_);
  cache_[key] = {revision, std::move(servable)};
  return result;
}

void FeatureService::installSnapshot(
    const std::string& key, const std::string& revision,
    std::shared_ptr<const ServableDesign> design) {
  DAGT_CHECK(design != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  cache_[key] = {revision, std::move(design)};
}

}  // namespace dagt::serve

#include "features/path_extractor.hpp"

#include <algorithm>
#include <iterator>

#include "common/check.hpp"

namespace dagt::features {

using netlist::Netlist;
using netlist::PinId;

namespace {

void sortUnique(std::vector<std::int32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

/// One endpoint's cone and footprint. `visited` and `stack` are
/// caller-owned scratch; `visited` is left all-zero again on return.
TimingPath extractCone(const Netlist& nl, std::span<const std::int32_t> pinBins,
                       const PinId endpoint,
                       std::vector<std::uint8_t>& visited,
                       std::vector<PinId>& stack) {
  TimingPath path;
  path.endpoint = endpoint;
  std::vector<PinId> cone;

  // Reverse DFS over timing fanin — the whole fanin cone.
  stack.clear();
  stack.push_back(endpoint);
  visited[static_cast<std::size_t>(endpoint)] = 1;
  while (!stack.empty()) {
    const PinId p = stack.back();
    stack.pop_back();
    cone.push_back(p);
    for (const PinId f : nl.timingFanin(p)) {
      if (!visited[static_cast<std::size_t>(f)]) {
        visited[static_cast<std::size_t>(f)] = 1;
        stack.push_back(f);
      }
    }
  }
  std::sort(cone.begin(), cone.end());
  path.maskBins.reserve(cone.size());
  for (const PinId p : cone) {
    // Reset the visited scratch for the next endpoint.
    visited[static_cast<std::size_t>(p)] = 0;
    path.maskBins.push_back(pinBins[static_cast<std::size_t>(p)]);
  }
  sortUnique(path.maskBins);
  path.maskBins.shrink_to_fit();
  path.conePins =
      std::make_shared<const std::vector<PinId>>(std::move(cone));
  return path;
}

}  // namespace

std::int32_t PathExtractor::pinBin(const Netlist& nl,
                                   const place::LayoutMaps& maps,
                                   const PinId pin) {
  const auto [gx, gy] = maps.binOf(nl.pinLocation(pin));
  return gy * maps.resolution() + gx;
}

std::vector<std::int32_t> PathExtractor::pinBins(
    const Netlist& nl, const place::LayoutMaps& maps) {
  std::vector<std::int32_t> bins(static_cast<std::size_t>(nl.numPins()));
  for (PinId p = 0; p < nl.numPins(); ++p) {
    bins[static_cast<std::size_t>(p)] = pinBin(nl, maps, p);
  }
  return bins;
}

std::vector<TimingPath> PathExtractor::extract(
    const Netlist& nl, std::span<const std::int32_t> pinBins) {
  DAGT_CHECK(static_cast<std::int64_t>(pinBins.size()) == nl.numPins());
  std::vector<TimingPath> paths;
  const auto endpoints = nl.endpoints();
  paths.reserve(endpoints.size());

  std::vector<std::uint8_t> visited(static_cast<std::size_t>(nl.numPins()), 0);
  std::vector<PinId> stack;
  for (const PinId endpoint : endpoints) {
    paths.push_back(extractCone(nl, pinBins, endpoint, visited, stack));
  }
  return paths;
}

bool PathExtractor::rebin(TimingPath& path,
                          std::span<const std::int32_t> oldBins,
                          std::span<const std::int32_t> newBins) {
  std::vector<std::int32_t> vacated;  // old bins of re-binned cone pins
  std::vector<std::int32_t> entered;  // their new bins
  for (const PinId p : *path.conePins) {
    const auto i = static_cast<std::size_t>(p);
    if (oldBins[i] != newBins[i]) {
      vacated.push_back(oldBins[i]);
      entered.push_back(newBins[i]);
    }
  }
  if (vacated.empty()) return false;

  // A vacated bin stays in the footprint while any pin of the cone (moved
  // or not) still maps to it.
  sortUnique(vacated);
  for (const PinId p : *path.conePins) {
    const std::int32_t bin = newBins[static_cast<std::size_t>(p)];
    const auto it = std::lower_bound(vacated.begin(), vacated.end(), bin);
    if (it != vacated.end() && *it == bin) {
      vacated.erase(it);
      if (vacated.empty()) break;
    }
  }
  std::vector<std::int32_t> kept;
  std::set_difference(path.maskBins.begin(), path.maskBins.end(),
                      vacated.begin(), vacated.end(),
                      std::back_inserter(kept));
  sortUnique(entered);
  std::vector<std::int32_t> bins;
  bins.reserve(kept.size() + entered.size());
  std::set_union(kept.begin(), kept.end(), entered.begin(), entered.end(),
                 std::back_inserter(bins));
  if (bins == path.maskBins) return false;
  path.maskBins = std::move(bins);
  return true;
}

std::vector<float> PathExtractor::maskedImage(const place::LayoutMaps& maps,
                                              const TimingPath& path) {
  const std::int32_t res = maps.resolution();
  const std::size_t plane = static_cast<std::size_t>(res) *
                            static_cast<std::size_t>(res);
  // Dilated binary mask of the path footprint.
  std::vector<std::uint8_t> mask(plane, 0);
  for (const std::int32_t bin : path.maskBins) {
    const std::int32_t gx = bin % res;
    const std::int32_t gy = bin / res;
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        const std::int32_t x = gx + dx;
        const std::int32_t y = gy + dy;
        if (x >= 0 && x < res && y >= 0 && y < res) {
          mask[static_cast<std::size_t>(y * res + x)] = 1;
        }
      }
    }
  }
  const auto& image = maps.image();
  DAGT_CHECK(image.size() == 3 * plane);
  std::vector<float> out(3 * plane, 0.0f);
  for (std::int32_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < plane; ++i) {
      if (mask[i]) {
        out[static_cast<std::size_t>(c) * plane + i] =
            image[static_cast<std::size_t>(c) * plane + i];
      }
    }
  }
  return out;
}

}  // namespace dagt::features

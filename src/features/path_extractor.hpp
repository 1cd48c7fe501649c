#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "place/layout_maps.hpp"

namespace dagt::features {

/// One timing path G' in the paper's sense: the whole fanin cone of a
/// timing endpoint (a sub-graph of the netlist), plus its footprint on the
/// layout grid for CNN masking.
struct TimingPath {
  netlist::PinId endpoint = netlist::kInvalidId;
  /// Pins of the fanin cone (endpoint included), ascending pin id. Shared
  /// and immutable: membership depends only on connectivity, so every
  /// snapshot of a non-structural what-if edit aliases the same cone.
  std::shared_ptr<const std::vector<netlist::PinId>> conePins;
  /// Flattened layout-grid bins (gy * resolution + gx) touched by cone
  /// pins; sorted unique. Used to mask the layout image per path.
  std::vector<std::int32_t> maskBins;
};

/// Extracts Path(G) = {G'_i}: the fanin cone of every endpoint.
class PathExtractor {
 public:
  /// Flattened layout-grid bin (gy * resolution + gx) of one pin.
  static std::int32_t pinBin(const netlist::Netlist& netlist,
                             const place::LayoutMaps& maps,
                             netlist::PinId pin);
  /// pinBin() of every pin, indexed by pin id: the table mask footprints
  /// are read from.
  static std::vector<std::int32_t> pinBins(const netlist::Netlist& netlist,
                                           const place::LayoutMaps& maps);

  /// Cones for all endpoints (ordered like Netlist::endpoints()), with
  /// mask footprints read from `pinBins` (see pinBins()).
  static std::vector<TimingPath> extract(const netlist::Netlist& netlist,
                                         std::span<const std::int32_t> pinBins);

  /// Updates `path.maskBins`, computed from the pin-bin table `oldBins`,
  /// to the table `newBins` (cone membership is unchanged; the tables
  /// differ at the moved pins): the old footprint, minus each moved pin's
  /// old bin that no pin of the cone still maps to, plus each moved pin's
  /// new bin. The result equals what extract() over `newBins` computes.
  /// Returns whether the footprint changed.
  static bool rebin(TimingPath& path, std::span<const std::int32_t> oldBins,
                    std::span<const std::int32_t> newBins);

  /// Masked copy of the layout image for one path: bins outside the path's
  /// footprint are zeroed (with the footprint dilated by one bin so local
  /// context survives). Returns a flattened [3, res, res] image.
  static std::vector<float> maskedImage(const place::LayoutMaps& maps,
                                        const TimingPath& path);
};

}  // namespace dagt::features

#pragma once

#include <fstream>
#include <string>

#include "common/check.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"

/// Plain-text interchange formats for libraries and netlists — the
/// miniature equivalents of Liberty and structural Verilog/DEF that let
/// generated designs be inspected, diffed and reloaded.
///
/// Both formats are line-oriented and round-trip exact: reading a written
/// file reproduces identical ids, connectivity and placement.
namespace dagt::netlist::io {

/// Opens `path` and runs `read(std::istream&)` on it. A CheckError from
/// `read` is rethrown with the path prefixed, so every loader error names
/// its file.
template <typename Read>
auto readFromFile(const std::string& path, Read&& read) {
  std::ifstream in(path);
  DAGT_CHECK_MSG(in.good(), "cannot open " << path);
  try {
    return read(in);
  } catch (const CheckError& e) {
    throw CheckError(path + ": " + e.what());
  }
}

// -- Library (.dagtlib) ------------------------------------------------------

void writeLibrary(const CellLibrary& library, std::ostream& out);
void writeLibraryFile(const CellLibrary& library, const std::string& path);

CellLibrary readLibrary(std::istream& in);
CellLibrary readLibraryFile(const std::string& path);

// -- Netlist (.dagtnl) -------------------------------------------------------

/// The netlist format references cells by type *name*; the reader resolves
/// them against the provided library (which must outlive the netlist).
void writeNetlist(const Netlist& netlist, std::ostream& out);
void writeNetlistFile(const Netlist& netlist, const std::string& path);

Netlist readNetlist(std::istream& in, const CellLibrary& library);
Netlist readNetlistFile(const std::string& path, const CellLibrary& library);

}  // namespace dagt::netlist::io

#include "netlist/io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace dagt::netlist::io {

namespace {

TechNode parseNode(const std::string& token) {
  for (int i = 0; i < kNumTechNodes; ++i) {
    const TechNode node = static_cast<TechNode>(i);
    if (techNodeName(node) == token) return node;
  }
  DAGT_CHECK_MSG(false, "unknown tech node '" << token << "'");
}

CellFunction parseFunction(const std::string& token) {
  for (int i = 0; i < kNumCellFunctions; ++i) {
    const CellFunction fn = static_cast<CellFunction>(i);
    if (cellFunctionName(fn) == token) return fn;
  }
  DAGT_CHECK_MSG(false, "unknown cell function '" << token << "'");
}

/// Reads one non-empty, non-comment line; returns false at EOF. `lineNo`,
/// when given, counts every physical line consumed (for located errors).
bool nextLine(std::istream& in, std::string& line,
              std::int64_t* lineNo = nullptr) {
  while (std::getline(in, line)) {
    if (lineNo != nullptr) ++*lineNo;
    if (!line.empty() && line[0] != '#') return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Library
// ---------------------------------------------------------------------------

void writeLibrary(const CellLibrary& lib, std::ostream& out) {
  out.precision(9);  // float32 round-trip exact
  out << "dagtlib " << techNodeName(lib.node()) << '\n';
  out << "wire " << lib.unitWireRes() << ' ' << lib.unitWireCap() << ' '
      << lib.sitePitch() << ' ' << lib.defaultInputSlew() << '\n';
  for (CellTypeId id = 0; id < lib.numCells(); ++id) {
    const CellType& c = lib.cell(id);
    out << "cell " << c.name << ' ' << cellFunctionName(c.function) << ' '
        << c.numInputs << ' ' << c.driveStrength << ' ' << c.inputCap << ' '
        << c.driveRes << ' ' << c.intrinsicDelay << ' ' << c.slewSens << ' '
        << c.slewIntrinsic << ' ' << c.slewRes << ' ' << c.area << ' '
        << (c.isSequential ? 1 : 0) << ' ' << c.clkToQ << '\n';
  }
  out << "end\n";
}

void writeLibraryFile(const CellLibrary& lib, const std::string& path) {
  std::ofstream out(path);
  DAGT_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  writeLibrary(lib, out);
  DAGT_CHECK_MSG(out.good(), "write to " << path << " failed");
}

CellLibrary readLibrary(std::istream& in) {
  std::string line;
  std::int64_t lineNo = 0;
  DAGT_CHECK_MSG(nextLine(in, line, &lineNo), "empty library file");
  std::istringstream header(line);
  std::string magic, nodeName;
  header >> magic >> nodeName;
  DAGT_CHECK_MSG(magic == "dagtlib",
                 "library line " << lineNo << ": not a dagtlib file");
  const TechNode node = parseNode(nodeName);

  DAGT_CHECK_MSG(nextLine(in, line, &lineNo), "library has no wire line");
  std::istringstream wire(line);
  std::string wireTag;
  float res = 0, cap = 0, pitch = 0, slew = 0;
  wire >> wireTag >> res >> cap >> pitch >> slew;
  // fail(), not just the tag: a number that does not parse must not
  // silently read as 0.
  DAGT_CHECK_MSG(!wire.fail() && wireTag == "wire",
                 "library line " << lineNo << ": malformed wire line '"
                                 << line << "'");

  std::vector<CellType> cells;
  bool ended = false;
  while (nextLine(in, line, &lineNo)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "end") {
      ended = true;
      break;
    }
    DAGT_CHECK_MSG(tag == "cell", "library line " << lineNo
                                                  << ": unexpected '" << line
                                                  << "'");
    CellType c;
    std::string fnName;
    int seq = 0;
    ls >> c.name >> fnName >> c.numInputs >> c.driveStrength >> c.inputCap >>
        c.driveRes >> c.intrinsicDelay >> c.slewSens >> c.slewIntrinsic >>
        c.slewRes >> c.area >> seq >> c.clkToQ;
    DAGT_CHECK_MSG(!ls.fail(), "library line " << lineNo
                                               << ": malformed cell line '"
                                               << line << "'");
    c.function = parseFunction(fnName);
    c.node = node;
    c.isSequential = seq != 0;
    cells.push_back(std::move(c));
  }
  DAGT_CHECK_MSG(ended, "library has no 'end' line (truncated after line "
                            << lineNo << ")");
  return CellLibrary::assemble(node, std::move(cells), res, cap, pitch, slew);
}

CellLibrary readLibraryFile(const std::string& path) {
  return readFromFile(path, [](std::istream& in) { return readLibrary(in); });
}

// ---------------------------------------------------------------------------
// Netlist
// ---------------------------------------------------------------------------

void writeNetlist(const Netlist& nl, std::ostream& out) {
  out.precision(9);  // float32 round-trip exact
  out << "dagtnl " << nl.name() << ' '
      << techNodeName(nl.library().node()) << '\n';

  // Entity creation ops in pin-id order so the reader reproduces identical
  // pin ids. A cell's pin block is emitted when its first pin is seen.
  for (PinId p = 0; p < nl.numPins(); ++p) {
    const Pin& pin = nl.pin(p);
    switch (pin.kind) {
      case PinKind::kPrimaryInput: {
        const Point loc = nl.pinLocation(p);
        out << "pi " << loc.x << ' ' << loc.y << '\n';
        break;
      }
      case PinKind::kPrimaryOutput: {
        const Point loc = nl.pinLocation(p);
        out << "po " << loc.x << ' ' << loc.y << '\n';
        break;
      }
      case PinKind::kCellInput:
      case PinKind::kCellOutput: {
        const Cell& cell = nl.cell(pin.cell);
        if (cell.inputPins.front() == p) {  // first pin of the block
          out << "cell " << nl.cellTypeOf(pin.cell).name << ' '
              << cell.location.x << ' ' << cell.location.y << '\n';
        }
        break;
      }
    }
  }
  for (NetId n = 0; n < nl.numNets(); ++n) {
    const Net& net = nl.net(n);
    out << "net " << net.driver;
    for (const PinId sink : net.sinks) out << ' ' << sink;
    out << '\n';
  }
  out << "end\n";
}

void writeNetlistFile(const Netlist& nl, const std::string& path) {
  std::ofstream out(path);
  DAGT_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  writeNetlist(nl, out);
  DAGT_CHECK_MSG(out.good(), "write to " << path << " failed");
}

Netlist readNetlist(std::istream& in, const CellLibrary& library) {
  std::string line;
  std::int64_t lineNo = 0;
  DAGT_CHECK_MSG(nextLine(in, line, &lineNo), "empty netlist file");
  std::istringstream header(line);
  std::string magic, name, nodeName;
  header >> magic >> name >> nodeName;
  DAGT_CHECK_MSG(magic == "dagtnl", "not a dagtnl file");
  DAGT_CHECK_MSG(parseNode(nodeName) == library.node(),
                 "netlist node " << nodeName << " does not match library");

  Netlist nl(&library, name);
  bool ended = false;
  while (nextLine(in, line, &lineNo)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "end") {
      ended = true;
      break;
    }
    // fail(), not just bad(): a token that does not parse as the expected
    // number must not silently become 0.
    const auto expectParsed = [&] {
      DAGT_CHECK_MSG(!ls.fail(), "netlist line " << lineNo << ": malformed '"
                                                 << line << "'");
    };
    if (tag == "pi" || tag == "po") {
      float x = 0, y = 0;
      ls >> x >> y;
      expectParsed();
      const PinId port =
          tag == "pi" ? nl.addPrimaryInput() : nl.addPrimaryOutput();
      nl.setPortLocation(port, {x, y});
    } else if (tag == "cell") {
      std::string typeName;
      float x = 0, y = 0;
      ls >> typeName >> x >> y;
      expectParsed();
      const CellTypeId type = library.findCellByName(typeName);
      DAGT_CHECK_MSG(type != kInvalidCellType,
                     "netlist line " << lineNo << ": library lacks cell '"
                                     << typeName << "'");
      const CellId cell = nl.addCell(type);
      nl.setCellLocation(cell, {x, y});
    } else if (tag == "net") {
      PinId driver = kInvalidId;
      ls >> driver;
      expectParsed();
      const NetId net = nl.addNet(driver);
      PinId sink = kInvalidId;
      while (ls >> sink) nl.connectSink(net, sink);
      // The sink list ends at the end of the line, not at a bad token.
      DAGT_CHECK_MSG(ls.eof(), "netlist line " << lineNo
                                               << ": malformed sink in '"
                                               << line << "'");
    } else {
      DAGT_CHECK_MSG(false, "netlist line " << lineNo << ": unexpected '"
                                            << line << "'");
    }
  }
  DAGT_CHECK_MSG(ended, "netlist has no 'end' line (truncated after line "
                            << lineNo << ")");
  return nl;
}

Netlist readNetlistFile(const std::string& path, const CellLibrary& library) {
  return readFromFile(
      path, [&](std::istream& in) { return readNetlist(in, library); });
}

}  // namespace dagt::netlist::io

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>

#include "common/check.hpp"
#include "designgen/design_suite.hpp"
#include "netlist/io.hpp"
#include "place/placer.hpp"
#include "sta/sta_engine.hpp"
#include "sta/timing_report.hpp"

namespace dagt {
namespace {

using netlist::CellLibrary;
using netlist::Netlist;
using netlist::TechNode;

Netlist buildPlacedDesign(const CellLibrary& lib, const char* name = "arm9",
                          float scale = 0.3f) {
  const designgen::DesignSuite suite(scale);
  Netlist nl = suite.buildNetlist(suite.entry(name), lib);
  place::Placer::place(nl);
  return nl;
}

// ---------------------------------------------------------------------------
// Library I/O
// ---------------------------------------------------------------------------

class LibraryIoTest : public ::testing::TestWithParam<TechNode> {};

TEST_P(LibraryIoTest, RoundTripPreservesEverything) {
  const CellLibrary original = CellLibrary::makeNode(GetParam());
  std::stringstream buffer;
  netlist::io::writeLibrary(original, buffer);
  const CellLibrary loaded = netlist::io::readLibrary(buffer);

  EXPECT_EQ(loaded.node(), original.node());
  EXPECT_EQ(loaded.numCells(), original.numCells());
  EXPECT_FLOAT_EQ(loaded.unitWireRes(), original.unitWireRes());
  EXPECT_FLOAT_EQ(loaded.unitWireCap(), original.unitWireCap());
  EXPECT_FLOAT_EQ(loaded.sitePitch(), original.sitePitch());
  EXPECT_FLOAT_EQ(loaded.defaultInputSlew(), original.defaultInputSlew());
  for (netlist::CellTypeId id = 0; id < original.numCells(); ++id) {
    const auto& a = original.cell(id);
    const auto& b = loaded.cell(id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.function, b.function);
    EXPECT_EQ(a.numInputs, b.numInputs);
    EXPECT_EQ(a.driveStrength, b.driveStrength);
    EXPECT_FLOAT_EQ(a.inputCap, b.inputCap);
    EXPECT_FLOAT_EQ(a.driveRes, b.driveRes);
    EXPECT_FLOAT_EQ(a.intrinsicDelay, b.intrinsicDelay);
    EXPECT_EQ(a.isSequential, b.isSequential);
    EXPECT_FLOAT_EQ(a.clkToQ, b.clkToQ);
  }
}

INSTANTIATE_TEST_SUITE_P(AllNodes, LibraryIoTest,
                         ::testing::Values(TechNode::k130nm, TechNode::k7nm,
                                           TechNode::k45nm),
                         [](const auto& info) {
                           return netlist::techNodeName(info.param);
                         });

TEST(LibraryIo, RejectsGarbage) {
  std::stringstream bad("not a library\n");
  EXPECT_THROW(netlist::io::readLibrary(bad), CheckError);
}

TEST(LibraryIo, FindCellByName) {
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  const auto id = lib.findCellByName("NAND2_X2");
  ASSERT_NE(id, netlist::kInvalidCellType);
  EXPECT_EQ(lib.cell(id).driveStrength, 2);
  EXPECT_EQ(lib.findCellByName("NOPE_X9"), netlist::kInvalidCellType);
}

// ---------------------------------------------------------------------------
// Netlist I/O
// ---------------------------------------------------------------------------

TEST(NetlistIo, RoundTripPreservesStructureAndPlacement) {
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  const Netlist original = buildPlacedDesign(lib);
  std::stringstream buffer;
  netlist::io::writeNetlist(original, buffer);
  const Netlist loaded = netlist::io::readNetlist(buffer, lib);

  EXPECT_EQ(loaded.name(), original.name());
  ASSERT_EQ(loaded.numPins(), original.numPins());
  ASSERT_EQ(loaded.numCells(), original.numCells());
  ASSERT_EQ(loaded.numNets(), original.numNets());
  EXPECT_NO_THROW(loaded.validate());

  for (netlist::PinId p = 0; p < original.numPins(); ++p) {
    EXPECT_EQ(loaded.pin(p).kind, original.pin(p).kind) << "pin " << p;
    EXPECT_EQ(loaded.pin(p).net, original.pin(p).net) << "pin " << p;
    EXPECT_EQ(loaded.pin(p).cell, original.pin(p).cell) << "pin " << p;
    EXPECT_FLOAT_EQ(loaded.pinLocation(p).x, original.pinLocation(p).x);
    EXPECT_FLOAT_EQ(loaded.pinLocation(p).y, original.pinLocation(p).y);
  }
  for (netlist::CellId c = 0; c < original.numCells(); ++c) {
    EXPECT_EQ(loaded.cell(c).type, original.cell(c).type) << "cell " << c;
  }
  const auto sa = original.stats();
  const auto sb = loaded.stats();
  EXPECT_EQ(sa.numNetEdges, sb.numNetEdges);
  EXPECT_EQ(sa.numCellEdges, sb.numCellEdges);
  EXPECT_EQ(sa.numEndpoints, sb.numEndpoints);
}

TEST(NetlistIo, RoundTripPreservesTiming) {
  // The strongest equivalence check: STA on the reloaded netlist matches.
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k130nm);
  const Netlist original = buildPlacedDesign(lib, "linkruncca");
  std::stringstream buffer;
  netlist::io::writeNetlist(original, buffer);
  const Netlist loaded = netlist::io::readNetlist(buffer, lib);

  const sta::RouteConfig route{sta::WireModel::kPreRouting, 0.0f, 0.0f};
  const auto ta = sta::StaEngine::run(original, nullptr, route);
  const auto tb = sta::StaEngine::run(loaded, nullptr, route);
  ASSERT_EQ(ta.arrival.size(), tb.arrival.size());
  for (std::size_t i = 0; i < ta.arrival.size(); ++i) {
    EXPECT_NEAR(ta.arrival[i], tb.arrival[i],
                1e-3f * std::max(1.0f, ta.arrival[i]));
  }
}

TEST(NetlistIo, ReaderChecksLibraryNode) {
  const CellLibrary lib7 = CellLibrary::makeNode(TechNode::k7nm);
  const CellLibrary lib130 = CellLibrary::makeNode(TechNode::k130nm);
  const Netlist original = buildPlacedDesign(lib7);
  std::stringstream buffer;
  netlist::io::writeNetlist(original, buffer);
  EXPECT_THROW(netlist::io::readNetlist(buffer, lib130), CheckError);
}

using LineEdit = std::function<std::string(const std::string&)>;

/// `text` with every line passed through `mutate` (line text ->
/// replacement; return the line unchanged to keep it).
std::string mutateLines(const std::string& text, const LineEdit& mutate) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) out << mutate(line) << '\n';
  return out.str();
}

/// A small placed netlist in interchange form, edited by `mutate`, then
/// read back. Returns the reader's error, "" when it accepted the file.
std::string readMutated(const LineEdit& mutate) {
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  const Netlist original = buildPlacedDesign(lib, "arm9", 0.1f);
  std::stringstream written;
  netlist::io::writeNetlist(original, written);
  std::stringstream edited(mutateLines(written.str(), mutate));
  try {
    netlist::io::readNetlist(edited, lib);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

/// `mutate` that applies `edit` to the first line starting with `prefix`.
LineEdit firstLine(const std::string& prefix, LineEdit edit) {
  auto done = std::make_shared<bool>(false);
  return [=](const std::string& line) {
    if (*done || line.rfind(prefix, 0) != 0) return line;
    *done = true;
    return edit(line);
  };
}

TEST(NetlistIo, ReaderAcceptsUnmodifiedFile) {
  EXPECT_EQ(readMutated([](const std::string& line) { return line; }), "");
}

TEST(NetlistIo, ReaderRejectsNonNumericNetDriver) {
  // A driver that does not parse must not read as pin 0.
  const std::string error = readMutated(firstLine(
      "net ", [](const std::string& line) {
        const std::size_t sinks = line.find(' ', 4);
        return "net x" +
               (sinks == std::string::npos ? "" : line.substr(sinks));
      }));
  EXPECT_NE(error.find("malformed 'net x"), std::string::npos) << error;
}

TEST(NetlistIo, ReaderRejectsNonNumericSink) {
  const std::string error = readMutated(
      firstLine("net ", [](const std::string& line) { return line + " y"; }));
  EXPECT_NE(error.find("malformed sink"), std::string::npos) << error;
}

TEST(NetlistIo, ReaderRejectsFileWithoutEndLine) {
  const std::string error = readMutated(
      [](const std::string& line) { return line == "end" ? "" : line; });
  EXPECT_NE(error.find("no 'end' line"), std::string::npos) << error;
}

TEST(NetlistIo, ReaderErrorNamesTheLine) {
  // Comment and blank lines count: one of each follows the header.
  std::int64_t written = 0;
  std::int64_t badLine = 0;
  const std::string error = readMutated([&](const std::string& line) {
    if (line.rfind("dagtnl", 0) == 0) {
      written += 3;
      return line + "\n# comment\n";
    }
    ++written;
    if (badLine != 0 || line.rfind("pi ", 0) != 0) return line;
    badLine = written;
    return std::string("pi 1.5 north");
  });
  ASSERT_GT(badLine, 3);
  EXPECT_NE(error.find("netlist line " + std::to_string(badLine) + ":"),
            std::string::npos)
      << error;
}

/// The 7nm library in interchange form, edited by `mutate`, then read
/// back. Returns the reader's error, "" when it accepted the file.
std::string readLibraryMutated(const LineEdit& mutate) {
  std::stringstream written;
  netlist::io::writeLibrary(CellLibrary::makeNode(TechNode::k7nm), written);
  std::stringstream edited(mutateLines(written.str(), mutate));
  try {
    netlist::io::readLibrary(edited);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

/// Writes `text` to a per-test temporary file and returns its path.
std::string writeTempFile(const std::string& name, const std::string& text) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (name + "_" + std::to_string(::getpid())))
          .string();
  std::ofstream(path) << text;
  return path;
}

TEST(LibraryIo, ReaderAcceptsUnmodifiedFile) {
  EXPECT_EQ(readLibraryMutated([](const std::string& line) { return line; }),
            "");
}

TEST(LibraryIo, ReaderRejectsNonNumericWireResistance) {
  // A resistance that does not parse must not read as 0.
  const std::string error = readLibraryMutated(
      firstLine("wire ", [](const std::string& line) {
        return "wire x" + line.substr(line.find(' ', 5));
      }));
  EXPECT_NE(error.find("malformed wire line 'wire x"), std::string::npos)
      << error;
}

TEST(LibraryIo, ReaderRejectsFileWithoutEndLine) {
  const std::string error = readLibraryMutated(
      [](const std::string& line) { return line == "end" ? "" : line; });
  EXPECT_NE(error.find("no 'end' line"), std::string::npos) << error;
}

TEST(LibraryIo, ReaderErrorNamesTheLine) {
  // Header, a comment, the wire line, then the first cell line: line 4.
  const auto breakFirstCell = firstLine("cell ", [](const std::string& line) {
    return line.substr(0, line.rfind(' ')) + " late";  // clk->q unparsable
  });
  const std::string error =
      readLibraryMutated([&](const std::string& line) {
        if (line.rfind("dagtlib", 0) == 0) return line + "\n# comment";
        return breakFirstCell(line);
      });
  EXPECT_NE(error.find("library line 4: malformed cell line"),
            std::string::npos)
      << error;
}

TEST(LibraryIo, FileReaderErrorNamesThePath) {
  std::stringstream written;
  netlist::io::writeLibrary(CellLibrary::makeNode(TechNode::k7nm), written);
  const std::string path = writeTempFile(
      "dagt_truncated.dagtlib",
      mutateLines(written.str(), [](const std::string& line) {
        return line == "end" ? "" : line;
      }));
  try {
    netlist::io::readLibraryFile(path);
    ADD_FAILURE() << "truncated library accepted";
  } catch (const CheckError& e) {
    const std::string error = e.what();
    EXPECT_EQ(error.rfind(path + ": ", 0), 0u) << error;
    EXPECT_NE(error.find("no 'end' line"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

TEST(NetlistIo, FileReaderErrorNamesThePath) {
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  std::stringstream written;
  netlist::io::writeNetlist(buildPlacedDesign(lib, "arm9", 0.1f), written);
  const std::string path = writeTempFile(
      "dagt_bad.dagtnl",
      mutateLines(written.str(), firstLine("net ", [](const std::string&) {
                    return std::string("net x");
                  })));
  try {
    netlist::io::readNetlistFile(path, lib);
    ADD_FAILURE() << "malformed netlist accepted";
  } catch (const CheckError& e) {
    const std::string error = e.what();
    EXPECT_EQ(error.rfind(path + ": ", 0), 0u) << error;
    EXPECT_NE(error.find("malformed 'net x'"), std::string::npos) << error;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Slack / critical path
// ---------------------------------------------------------------------------

TEST(TimingReport, SlackSignsFollowConstraint) {
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  const Netlist nl = buildPlacedDesign(lib);
  const auto timing = sta::StaEngine::run(
      nl, nullptr, sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});

  // Generous clock: everything meets timing.
  sta::TimingConstraints loose;
  loose.clockPeriod = timing.worstArrival * 2.0f;
  const auto ok = sta::computeSlack(nl, timing, loose);
  EXPECT_EQ(ok.violatingEndpoints, 0);
  EXPECT_FLOAT_EQ(ok.worstNegativeSlack, 0.0f);

  // Near-impossible clock: (almost) everything fails — a PO wired directly
  // next to a port can have sub-0.1ps arrival, so allow a one-off.
  sta::TimingConstraints tight;
  tight.clockPeriod = 0.1f;
  const auto bad = sta::computeSlack(nl, timing, tight);
  EXPECT_GE(bad.violatingEndpoints,
            static_cast<std::int64_t>(bad.endpoints.size()) - 1);
  EXPECT_LT(bad.worstNegativeSlack, 0.0f);
  EXPECT_LT(bad.totalNegativeSlack, bad.worstNegativeSlack);
}

TEST(TimingReport, SlackMatchesArrivalArithmetic) {
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  const Netlist nl = buildPlacedDesign(lib);
  const auto timing = sta::StaEngine::run(
      nl, nullptr, sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});
  const auto constraints =
      sta::TimingConstraints::fromEstimate(timing.worstArrival);
  const auto report = sta::computeSlack(nl, timing, constraints);
  for (std::size_t i = 0; i < report.endpoints.size(); ++i) {
    const auto e = report.endpoints[i];
    const float required =
        nl.pin(e).kind == netlist::PinKind::kPrimaryOutput
            ? constraints.clockPeriod - constraints.outputDelay
            : constraints.clockPeriod - constraints.setupTime;
    EXPECT_FLOAT_EQ(report.slack[i],
                    required - timing.arrival[static_cast<std::size_t>(e)]);
  }
}

TEST(TimingReport, CriticalPathIsConsistent) {
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  const Netlist nl = buildPlacedDesign(lib, "or1200", 0.3f);
  const auto timing = sta::StaEngine::run(
      nl, nullptr, sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});
  const auto path = sta::traceCriticalPath(nl, timing);
  ASSERT_GE(path.size(), 2u);
  // Ends at the worst endpoint.
  EXPECT_FLOAT_EQ(path.back().arrival, timing.worstArrival);
  // Arrivals are non-decreasing and increments reconstruct them.
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_GE(path[i].arrival + 1e-3f, path[i - 1].arrival);
    EXPECT_NEAR(path[i].arrival,
                path[i - 1].arrival + path[i].incrementalDelay,
                1e-2f * std::max(1.0f, path[i].arrival));
  }
  // Starts at a startpoint (no timing fanin).
  EXPECT_TRUE(nl.timingFanin(path.front().pin).empty());
  // The report formats without blowing up.
  const std::string report = sta::formatPathReport(nl, path);
  EXPECT_NE(report.find("critical path"), std::string::npos);
}

TEST(TimingReport, TraceSpecificEndpoint) {
  const CellLibrary lib = CellLibrary::makeNode(TechNode::k7nm);
  const Netlist nl = buildPlacedDesign(lib);
  const auto timing = sta::StaEngine::run(
      nl, nullptr, sta::RouteConfig{sta::WireModel::kPreRouting, 0.0f, 0.0f});
  const auto endpoint = nl.endpoints().front();
  const auto path = sta::traceCriticalPath(nl, timing, endpoint);
  EXPECT_EQ(path.back().pin, endpoint);
}

}  // namespace
}  // namespace dagt

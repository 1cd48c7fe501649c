// End-to-end benchmark of the timing predictor's three uses: serving
// endpoint queries, what-if ECO sessions and training. See README.md.
//
//   perfbench --workload serve|whatif|train --seed N --seconds S --trace 0|1
//             [--commit ID] [--work-dir DIR]

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload serve|whatif|train "
               "--seed N --seconds S --trace 0|1 [--commit ID] "
               "[--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--commit") {
        options.commit = value;
      } else if (flag == "--work-dir") {
        options.workDir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    perfbench::logPhase(("workload " + options.workload).c_str());
    std::filesystem::create_directories(options.workDir);
    perfbench::Result result;
    if (options.workload == "serve") {
      result = perfbench::runServe(options);
    } else if (options.workload == "whatif") {
      result = perfbench::runWhatIf(options);
    } else if (options.workload == "train") {
      result = perfbench::runTrain(options);
    } else {
      return usage("unknown workload");
    }
    perfbench::report(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}

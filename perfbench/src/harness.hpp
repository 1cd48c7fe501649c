#pragma once

// Shared plumbing of the end-to-end benchmark: options, the benchmark's own
// span recorder, phase counters, order statistics, the machine fingerprint
// and the result printer. Everything here sits outside the library: the
// workloads reach the library through its public headers only.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Provenance of the sources built (git commit or a source digest).
  std::string commit = "unknown";
  /// Scratch directory for bundles and the full result document.
  std::string workDir = ".";
};

/// Requests sent / succeeded / failed in one phase. A request whose answer
/// is later found wrong moves from succeeded to failed.
struct PhaseCount {
  std::int64_t sent = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;

  void ok() { ++sent, ++succeeded; }
  void fail() { ++sent, ++failed; }
  void demote() { --succeeded, ++failed; }
};

struct Phases {
  PhaseCount setup;
  PhaseCount timed;
  PhaseCount check;
};

/// The benchmark's own spans: one record per timed call into the library,
/// with its parent on the same thread, so the traced run can report each
/// layer's self time (duration minus the time its child spans cover).
/// Off unless enabled; a disabled scope costs one branch.
class Spans {
 public:
  static Spans& global();

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  class Scope {
   public:
    Scope(Spans& owner, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* owner_ = nullptr;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    Clock::time_point start_;
  };

  struct Row {
    std::string name;
    std::int64_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
  };
  /// Per-name totals, sorted by self time, descending.
  std::vector<Row> table() const;
  /// Mean duration (ms) of the spans called `name`, 0 if none.
  double meanMs(const std::string& name) const;

 private:
  struct Record {
    const char* name = nullptr;
    std::int64_t parent = -1;
    double durMs = 0.0;
    bool closed = false;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

/// Progress line on stderr, stamped with seconds since start-up.
void logPhase(const char* what);

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Reset the resident-set high-water mark, so a later peakRssMb() covers
/// only what ran in between. Returns false if the kernel refused.
bool resetPeakRss();
double peakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. endToEnd is printed with --trace 0, perLayer with
/// --trace 1; details carries everything else (sample counts, per-design
/// R², the self-time table) into the full result document.
struct Result {
  Phases phases;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;
  dagt::JsonValue details = dagt::JsonValue::object();
};

/// The machine fingerprint recorded with every result. Two results are
/// comparable only when every field except `commit` agrees.
dagt::JsonValue fingerprint(const Options& options);

/// Print the phase table and metrics to stderr, write the full result
/// document under workDir, and print the one-line summary the benchmark
/// contract asks for as the last line of stdout.
void report(const Options& options, const Result& result);

}  // namespace perfbench

#define PERFBENCH_CONCAT_INNER(a, b) a##b
#define PERFBENCH_CONCAT(a, b) PERFBENCH_CONCAT_INNER(a, b)
/// Time the rest of the enclosing block as a benchmark span.
#define PERFBENCH_SPAN(name)                                     \
  ::perfbench::Spans::Scope PERFBENCH_CONCAT(perfbenchSpan_, __LINE__)( \
      ::perfbench::Spans::global(), name)

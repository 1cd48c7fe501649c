#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/parallel.hpp"
#include "tensor/kernels/kernels.hpp"

namespace perfbench {

using dagt::JsonValue;

namespace {
thread_local std::int64_t tlCurrentSpan = -1;
}  // namespace

Spans& Spans::global() {
  static Spans spans;
  return spans;
}

Spans::Scope::Scope(Spans& owner, const char* name) {
  if (!owner.enabled()) return;
  owner_ = &owner;
  parent_ = tlCurrentSpan;
  {
    std::lock_guard<std::mutex> lock(owner.mutex_);
    id_ = static_cast<std::int64_t>(owner.records_.size());
    owner.records_.push_back(Record{name, parent_, 0.0, false});
  }
  tlCurrentSpan = id_;
  start_ = Clock::now();
}

Spans::Scope::~Scope() {
  if (owner_ == nullptr) return;
  const double dur = msSince(start_);
  tlCurrentSpan = parent_;
  std::lock_guard<std::mutex> lock(owner_->mutex_);
  Record& record = owner_->records_[static_cast<std::size_t>(id_)];
  record.durMs = dur;
  record.closed = true;
}

std::vector<Spans::Row> Spans::table() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> childMs(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.closed && r.parent >= 0) {
      childMs[static_cast<std::size_t>(r.parent)] += r.durMs;
    }
  }
  std::unordered_map<std::string, Row> rows;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (!r.closed) continue;
    Row& row = rows[r.name];
    row.name = r.name;
    ++row.count;
    row.totalMs += r.durMs;
    row.selfMs += r.durMs - childMs[i];
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    return a.selfMs != b.selfMs ? a.selfMs > b.selfMs : a.name < b.name;
  });
  return out;
}

double Spans::meanMs(const std::string& name) const {
  for (const Row& row : table()) {
    if (row.name == name) {
      return row.count == 0 ? 0.0 : row.totalMs / static_cast<double>(row.count);
    }
  }
  return 0.0;
}

void logPhase(const char* what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[%8.2f s] %s\n", msSince(start) / 1000.0, what);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool resetPeakRss() {
  // "5" resets the VmHWM high-water mark of this process (proc(5)).
  std::ofstream clearRefs("/proc/self/clear_refs");
  clearRefs << "5";
  clearRefs.flush();
  return static_cast<bool>(clearRefs);
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string cpuModel() {
  unsigned int regs[12] = {};
  unsigned int maxLeaf = __get_cpuid_max(0x80000000u, nullptr);
  if (maxLeaf < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const auto first = model.find_first_not_of(' ');
  const auto last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
}

}  // namespace

JsonValue fingerprint(const Options& options) {
  namespace kernels = dagt::tensor::kernels;
  JsonValue fp = JsonValue::object();
  fp.set("cpu", cpuModel());
  fp.set("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  fp.set("kernel_tier", kernels::tierName(kernels::activeTier()));
  fp.set("build_type", PERFBENCH_BUILD_TYPE);
  fp.set("dagt_checks", PERFBENCH_CHECKS);
  fp.set("dagt_tracing", DAGT_TRACING);
  fp.set("intra_op_threads",
         static_cast<std::int64_t>(dagt::parallelThreadCount()));
  fp.set("commit", options.commit);
  return fp;
}

void report(const Options& options, const Result& result) {
  const auto& metrics = options.trace ? result.perLayer : result.endToEnd;
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);

  const PhaseCount* phases[] = {&result.phases.setup, &result.phases.timed,
                                &result.phases.check};
  const char* phaseNames[] = {"setup", "timed", "check"};
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  JsonValue phaseDoc = JsonValue::object();
  std::fprintf(stderr, "%-6s %8s %10s %7s\n", "phase", "sent", "succeeded",
               "failed");
  for (int i = 0; i < 3; ++i) {
    const PhaseCount& p = *phases[i];
    attempted += p.sent;
    failed += p.failed;
    std::fprintf(stderr, "%-6s %8lld %10lld %7lld\n", phaseNames[i],
                 static_cast<long long>(p.sent),
                 static_cast<long long>(p.succeeded),
                 static_cast<long long>(p.failed));
    phaseDoc.set(phaseNames[i], JsonValue::object()
                                    .set("sent", p.sent)
                                    .set("succeeded", p.succeeded)
                                    .set("failed", p.failed));
  }
  const bool correct = failed == 0 && finite && attempted > 0;

  JsonValue metricDoc = JsonValue::object();
  for (const Metric& m : metrics) {
    const double value = std::isfinite(m.value) ? m.value : -1.0;
    std::fprintf(stderr, "%-34s %16.6f %s\n", m.name.c_str(), value,
                 m.unit.c_str());
    metricDoc.set(m.name, JsonValue::object().set("value", value).set("unit", m.unit));
  }
  const std::string line = JsonValue::object()
                               .set("correct", correct)
                               .set("attempted", attempted)
                               .set("failed", failed)
                               .set("metrics", metricDoc)
                               .dump();

  const JsonValue fp = fingerprint(options);
  JsonValue doc = JsonValue::object();
  doc.set("workload", options.workload)
      .set("seed", static_cast<std::int64_t>(options.seed))
      .set("seconds", options.seconds)
      .set("trace", options.trace)
      .set("fingerprint", fp)
      .set("phases", std::move(phaseDoc))
      .set("correct", correct)
      .set("metrics", std::move(metricDoc))
      .set("details", result.details);
  const std::string path =
      (std::filesystem::path(options.workDir) /
       ("result-" + options.workload + "-seed" + std::to_string(options.seed) +
        "-trace" + std::to_string(options.trace ? 1 : 0) + ".json"))
          .string();
  dagt::writeJsonFile(doc, path);

  std::printf("fingerprint: %s\n", fp.dump().c_str());
  std::printf("result document: %s\n", path.c_str());
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

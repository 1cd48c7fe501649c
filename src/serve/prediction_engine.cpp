#include "serve/prediction_engine.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "netlist/io.hpp"
#include "obs/trace.hpp"
#include "tensor/expr.hpp"
#include "tensor/storage.hpp"
#include "tensor/tensor.hpp"

namespace dagt::serve {

namespace {

double microsSince(const std::chrono::steady_clock::time_point& start,
                   const std::chrono::steady_clock::time_point& end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Deterministic seed for the Bayesian head's Monte-Carlo draws on the
/// coalesced path: a function of the design and the exact batch
/// composition, so identical batches reproduce identical predictions.
std::uint64_t batchSeed(const std::string& designName,
                        const std::vector<std::int64_t>& endpoints) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : designName) {
    h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  }
  for (const std::int64_t e : endpoints) {
    h = (h ^ static_cast<std::uint64_t>(e + 1)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

PredictionEngine::PredictionEngine(EngineConfig config)
    : config_(config) {
  DAGT_CHECK(config_.maxBatch >= 1);
  DAGT_CHECK(config_.maxWaitUs >= 0);
  if (config_.batching) {
    const std::int32_t workers = std::max(1, config_.workerThreads);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (std::int32_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }
}

PredictionEngine::~PredictionEngine() { shutdown(); }

void PredictionEngine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  queueCv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

void PredictionEngine::addBundle(ModelBundle bundle) {
  const int key = static_cast<int>(bundle.manifest().targetNode);
  // Build the entry (FeatureService construction is expensive) before
  // taking the registry lock; erase + emplace then swap atomically under
  // it. Replacing a node's bundle must still not race in-flight queries on
  // that node — their DesignRefs point into the erased NodeEntry.
  NodeEntry entry{std::move(bundle), nullptr};
  entry.features = std::make_unique<FeatureService>(entry.bundle.manifest());
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto existing = nodes_.find(key);
  if (existing != nodes_.end()) {
    // Drop designs routed to the bundle being replaced.
    for (auto it = designs_.begin(); it != designs_.end();) {
      if (it->second.node == &existing->second) {
        it = designs_.erase(it);
      } else {
        ++it;
      }
    }
    nodes_.erase(existing);
  }
  nodes_.emplace(key, std::move(entry));
}

void PredictionEngine::addBundleFromDir(const std::string& dir) {
  addBundle(ModelBundle::load(dir));
}

std::vector<netlist::TechNode> PredictionEngine::nodes() const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  std::vector<netlist::TechNode> out;
  for (const auto& [key, entry] : nodes_) {
    out.push_back(static_cast<netlist::TechNode>(key));
  }
  std::sort(out.begin(), out.end());
  return out;
}

const BundleManifest& PredictionEngine::manifest(
    netlist::TechNode node) const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto it = nodes_.find(static_cast<int>(node));
  DAGT_CHECK_MSG(it != nodes_.end(), "no bundle registered for "
                                         << netlist::techNodeName(node));
  return it->second.bundle.manifest();
}

std::int64_t PredictionEngine::loadDesign(const std::string& key,
                                          const std::string& netlistPath,
                                          const std::string& libraryPath,
                                          const std::string& placementPath) {
  const auto fileLib = netlist::io::readLibraryFile(libraryPath);
  const int nodeKey = static_cast<int>(fileLib.node());
  DesignRef ref;
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    const auto it = nodes_.find(nodeKey);
    DAGT_CHECK_MSG(it != nodes_.end(),
                   "no bundle registered for "
                       << netlist::techNodeName(fileLib.node())
                       << " (the design's node)");
    ref.node = &it->second;
  }
  // Feature extraction runs unlocked (FeatureService is itself
  // thread-safe); the NodeEntry pointer is stable across map inserts.
  ref.design = ref.node->features->fromFiles(key, netlistPath, libraryPath,
                                             placementPath);
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    registerLocked(key, ref);
  }
  warmUp(ref);
  return ref.design->numEndpoints();
}

std::int64_t PredictionEngine::loadDesign(
    const std::string& key, netlist::Netlist netlist, netlist::TechNode node,
    const place::PlacementResult& placement, const std::string& revision) {
  DesignRef ref;
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    const auto it = nodes_.find(static_cast<int>(node));
    DAGT_CHECK_MSG(it != nodes_.end(), "no bundle registered for "
                                           << netlist::techNodeName(node));
    ref.node = &it->second;
  }
  ref.design = ref.node->features->fromNetlist(key, revision,
                                               std::move(netlist), node,
                                               placement);
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    registerLocked(key, ref);
  }
  warmUp(ref);
  return ref.design->numEndpoints();
}

void PredictionEngine::registerLocked(const std::string& key,
                                      DesignRef& ref) {
  const auto it = designs_.find(key);
  ref.gnn = it != designs_.end() && it->second.node == ref.node
                ? it->second.gnn
                : std::make_shared<GnnMemo>(
                      ref.node->bundle.model().extractor().gnn());
  designs_[key] = ref;
}

void PredictionEngine::warmUp(const DesignRef& ref) {
  tensor::NoGradGuard guard;
  tensor::Workspace workspace;
  const bool warmFusion =
      tensor::expr::fusionEnabled() && ref.design->numEndpoints() > 0;
  const std::vector<std::int64_t> probe =
      warmFusion ? std::vector<std::int64_t>{0} : std::vector<std::int64_t>{};
  tensor::Tensor rows = gnnRows(ref, probe);
  if (!warmFusion) return;
  DAGT_TRACE_SCOPE("serve/warm_fusion");
  core::DesignBatch batch =
      ref.design->dataset->batchFor(ref.design->data, probe);
  batch.gnnRows = std::move(rows);
  core::TimingModel& model = ref.node->bundle.model();
  if (auto* dac23 = dynamic_cast<core::Dac23Model*>(&model)) {
    (void)dac23->forwardBatch(batch);
  } else if (auto* ours = dynamic_cast<core::OursModel*>(&model)) {
    Rng rng(batchSeed(ref.design->data.name, probe));
    (void)ours->forward(batch, config_.mcSamples, rng);
  }
}

FeatureService::ConeUpdateResult PredictionEngine::applyConeUpdate(
    const std::string& key, const std::string& revision,
    FeatureService::ConeUpdate update) {
  DesignRef ref = designRef(key);
  auto result =
      ref.node->features->applyConeUpdate(key, revision, std::move(update));
  std::lock_guard<std::mutex> lock(designsMutex_);
  designs_[key].design = result.design;
  return result;
}

void PredictionEngine::installSnapshot(
    const std::string& key, const std::string& revision,
    std::shared_ptr<const ServableDesign> design) {
  DesignRef ref = designRef(key);
  ref.node->features->installSnapshot(key, revision, design);
  std::lock_guard<std::mutex> lock(designsMutex_);
  designs_[key].design = std::move(design);
}

void PredictionEngine::adoptDesign(
    const std::string& key, netlist::TechNode node,
    const std::string& revision,
    std::shared_ptr<const ServableDesign> design) {
  DAGT_CHECK_MSG(design != nullptr, "adoptDesign: null snapshot");
  DesignRef ref;
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    const auto it = nodes_.find(static_cast<int>(node));
    DAGT_CHECK_MSG(it != nodes_.end(), "no bundle registered for "
                                           << netlist::techNodeName(node));
    ref.node = &it->second;
  }
  // Register with the node's FeatureService first so a later fromNetlist
  // under the same key/revision is a cache hit, then route the key.
  ref.node->features->installSnapshot(key, revision, design);
  ref.design = std::move(design);
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    registerLocked(key, ref);
  }
  warmUp(ref);
}

bool PredictionEngine::dropDesign(const std::string& key) {
  std::lock_guard<std::mutex> lock(designsMutex_);
  return designs_.erase(key) > 0;
}

std::shared_ptr<const ServableDesign> PredictionEngine::currentSnapshot(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto it = designs_.find(key);
  return it == designs_.end() ? nullptr : it->second.design;
}

tensor::Tensor PredictionEngine::gnnRows(
    const DesignRef& ref, const std::vector<std::int64_t>& endpoints) {
  DAGT_TRACE_SCOPE("model/gnn");
  const features::DesignData& data = ref.design->data;
  std::vector<netlist::PinId> pins;
  pins.reserve(endpoints.size());
  for (const std::int64_t e : endpoints) {
    pins.push_back(data.paths()[static_cast<std::size_t>(e)].endpoint);
  }
  GnnMemo& gnn = *ref.gnn;
  std::lock_guard<std::mutex> lock(gnn.memoMutex);
  if (gnn.memo.update(data.graph, data.pinFeatures)) {
    metrics_.recordGnnForward(
        false, static_cast<std::uint64_t>(data.graph->numPins()));
  } else if (const std::int64_t rows = gnn.memo.refresh(pins); rows > 0) {
    metrics_.recordGnnForward(true, static_cast<std::uint64_t>(rows));
  } else {
    metrics_.recordGnnMemoHit();
  }
  return gnn.memo.select(pins);
}

PredictionEngine::DesignRef PredictionEngine::designRef(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(designsMutex_);
  const auto it = designs_.find(key);
  DAGT_CHECK_MSG(it != designs_.end(),
                 "design '" << key << "' has not been loaded");
  return it->second;
}

float PredictionEngine::predictEndpoint(const std::string& key,
                                        std::int64_t endpoint) {
  return predictEndpoints(key, {endpoint}).front();
}

std::vector<float> PredictionEngine::predictEndpoints(
    const std::string& key, const std::vector<std::int64_t>& endpoints) {
  DAGT_TRACE_SCOPE("serve/request");
  DAGT_CHECK_MSG(!endpoints.empty(), "empty endpoint query");
  if (!config_.batching) {
    RequestGroup group;
    group.ref = designRef(key);
    const std::int64_t n = group.ref.design->numEndpoints();
    for (const std::int64_t e : endpoints) {
      DAGT_CHECK_MSG(e >= 0 && e < n, "endpoint " << e << " out of range for '"
                                                  << key << "' (" << n
                                                  << ")");
    }
    group.endpoints = endpoints;
    group.enqueued = std::chrono::steady_clock::now();
    auto future = group.reply.get_future();
    // Caller-thread forward: scope a workspace around it so this request's
    // temporaries land back in the shared pool for the next caller.
    tensor::Workspace workspace;
    std::vector<RequestGroup> solo;
    solo.push_back(std::move(group));
    serveBatch(std::move(solo));
    return future.get();
  }
  return predictEndpointsAsync(key, endpoints).get();
}

std::future<std::vector<float>> PredictionEngine::predictEndpointsAsync(
    const std::string& key, const std::vector<std::int64_t>& endpoints) {
  DAGT_CHECK_MSG(config_.batching,
                 "async submission needs the batching queue "
                 "(EngineConfig::batching = true)");
  DAGT_CHECK_MSG(!endpoints.empty(), "empty endpoint query");
  RequestGroup group;
  group.ref = designRef(key);
  const std::int64_t n = group.ref.design->numEndpoints();
  for (const std::int64_t e : endpoints) {
    DAGT_CHECK_MSG(e >= 0 && e < n, "endpoint " << e << " out of range for '"
                                                << key << "' (" << n << ")");
  }
  group.endpoints = endpoints;
  group.enqueued = std::chrono::steady_clock::now();
  auto future = group.reply.get_future();
  {
    std::lock_guard<std::mutex> lock(queueMutex_);
    DAGT_CHECK_MSG(!stopping_, "engine is shut down");
    queue_.push_back(std::move(group));
  }
  queueCv_.notify_all();
  return future;
}

std::vector<float> PredictionEngine::predictDesign(const std::string& key) {
  DAGT_TRACE_SCOPE("serve/full_design");
  const DesignRef ref = designRef(key);
  tensor::Workspace workspace;
  auto predictions = ref.node->bundle.model().predictDesign(
      *ref.design->dataset, ref.design->data);
  metrics_.recordFullDesign();
  return predictions;
}

void PredictionEngine::serveBatch(std::vector<RequestGroup> groups) {
  if (groups.empty()) return;
  DAGT_TRACE_SCOPE("serve/batch");
  try {
    tensor::NoGradGuard guard;
    const DesignRef& ref = groups.front().ref;
    const ServableDesign& design = *ref.design;

    std::vector<std::int64_t> combined;
    for (const auto& group : groups) {
      // Coalescing contract: the batcher only merges groups that share the
      // lead's design, so every group agrees on the feature layout.
      DAGT_DCHECK_MSG(group.ref.design.get() == &design,
                      "coalesced batch mixes designs");
      combined.insert(combined.end(), group.endpoints.begin(),
                      group.endpoints.end());
    }
    core::DesignBatch batch = [&] {
      DAGT_TRACE_SCOPE("serve/batch_assembly");
      return design.dataset->batchFor(design.data, combined);
    }();
    batch.gnnRows = gnnRows(ref, combined);
    // Batch-assembly contract: one masked image of the manifest's trained
    // resolution per coalesced endpoint (feature-width agreement).
    const std::int64_t res = ref.node->bundle.manifest().model.imageResolution;
    DAGT_DCHECK_SHAPE(
        batch.images.shape(),
        tensor::Shape({static_cast<std::int64_t>(combined.size()), 3, res,
                       res}));

    core::TimingModel& model = ref.node->bundle.model();
    tensor::Tensor predictionNs;
    {
      DAGT_TRACE_SCOPE("serve/forward");
      if (auto* dac23 = dynamic_cast<core::Dac23Model*>(&model)) {
        predictionNs = dac23->forwardBatch(batch);
      } else if (auto* ours = dynamic_cast<core::OursModel*>(&model)) {
        Rng rng(batchSeed(design.data.name, combined));
        predictionNs =
            ours->forward(batch, config_.mcSamples, rng).prediction;
      } else {
        DAGT_CHECK_MSG(false, "unservable TimingModel subclass");
      }
    }

    DAGT_DCHECK_MSG(predictionNs.numel() ==
                        static_cast<std::int64_t>(combined.size()),
                    "model returned " << predictionNs.numel()
                                      << " predictions for "
                                      << combined.size() << " endpoints");
    DAGT_TRACE_SCOPE("serve/readout");
    const float* values = predictionNs.data();
    const auto now = std::chrono::steady_clock::now();
    // Batch before requests: snapshots must never observe requests from a
    // batch whose batch counter is still 0 (recordRequests publishes with
    // release ordering, so this increment is visible with it).
    metrics_.recordBatch(combined.size());
    std::size_t offset = 0;
    for (auto& group : groups) {
      std::vector<float> reply(group.endpoints.size());
      for (std::size_t i = 0; i < reply.size(); ++i) {
        reply[i] = values[offset + i] / core::kLabelScale;  // ns -> ps
      }
      offset += reply.size();
      metrics_.recordRequests(group.endpoints.size());
      metrics_.recordLatencyUs(microsSince(group.enqueued, now));
      group.reply.set_value(std::move(reply));
    }
  } catch (...) {
    for (auto& group : groups) {
      try {
        group.reply.set_exception(std::current_exception());
      } catch (const std::future_error&) {
        // Promise already satisfied — the failure happened after its reply.
      }
    }
  }
}

void PredictionEngine::workerLoop() {
  // One workspace per worker thread, alive for the thread's lifetime:
  // every forward's temporaries are recycled through the thread-local
  // cache (no lock, no heap), so steady-state serving performs near-zero
  // heap allocations per batch.
  tensor::Workspace workspace;
  std::unique_lock<std::mutex> lock(queueMutex_);
  while (true) {
    queueCv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }

    // The oldest request leads; hold its batch open until it is full or
    // its wait budget is spent, so followers on the same design coalesce.
    const ServableDesign* lead = queue_.front().ref.design.get();
    const auto deadline =
        queue_.front().enqueued + std::chrono::microseconds(config_.maxWaitUs);
    const auto pendingForLead = [&] {
      std::int64_t total = 0;
      for (const auto& group : queue_) {
        if (group.ref.design.get() == lead) {
          total += static_cast<std::int64_t>(group.endpoints.size());
        }
      }
      return total;
    };
    {
      // The deliberate hold-open for followers on the lead's design (NOT
      // idle time waiting for any work at all — that sits outside spans).
      DAGT_TRACE_SCOPE("serve/coalesce_wait");
      while (!stopping_ && pendingForLead() < config_.maxBatch &&
             std::chrono::steady_clock::now() < deadline) {
        queueCv_.wait_until(lock, deadline);
      }
    }

    std::vector<RequestGroup> taken;
    std::int64_t total = 0;
    for (auto it = queue_.begin();
         it != queue_.end() && total < config_.maxBatch;) {
      if (it->ref.design.get() == lead) {
        total += static_cast<std::int64_t>(it->endpoints.size());
        taken.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (taken.empty()) continue;  // another worker got here first

    lock.unlock();
    serveBatch(std::move(taken));
    lock.lock();
  }
}

MetricsSnapshot PredictionEngine::metrics() const {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t coneUpdates = 0;
  std::uint64_t coneStructural = 0;
  std::uint64_t coneReused = 0;
  std::uint64_t coneEvicted = 0;
  {
    std::lock_guard<std::mutex> lock(designsMutex_);
    for (const auto& [key, entry] : nodes_) {
      hits += entry.features->cacheHits();
      misses += entry.features->cacheMisses();
      coneUpdates += entry.features->coneUpdates();
      coneStructural += entry.features->coneStructuralRebuilds();
      coneReused += entry.features->coneEndpointsReused();
      coneEvicted += entry.features->coneEndpointsEvicted();
    }
  }
  // Buffer-pool counters are process-wide (the pool is shared by every
  // engine and the trainer), which is the view an operator wants anyway.
  MetricsSnapshot snap =
      metrics_.snapshot(hits, misses, tensor::BufferPool::global().stats());
  snap.coneUpdates = coneUpdates;
  snap.coneStructuralRebuilds = coneStructural;
  snap.coneEndpointsReused = coneReused;
  snap.coneEndpointsEvicted = coneEvicted;
  if (obs::tracingEnabled()) {
    // Per-request span summary (process-wide, like the pool counters):
    // only populated while `dagt trace` / setEnabled has tracing on.
    snap.traceSpans = obs::TraceRegistry::global().aggregate("serve/");
  }
  return snap;
}

}  // namespace dagt::serve

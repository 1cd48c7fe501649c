#include "fleet/shard_router.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace dagt::fleet {

namespace {

double microsSince(const std::chrono::steady_clock::time_point& start,
                   const std::chrono::steady_clock::time_point& end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

/// Environment override helper, same contract as the benches' envOr: an
/// unset/empty variable keeps the fallback.
std::int64_t envOr(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  DAGT_CHECK_MSG(end != raw && *end == '\0',
                 name << "='" << raw << "' is not an integer");
  return static_cast<std::int64_t>(parsed);
}

}  // namespace

FleetConfig FleetConfig::fromEnv() {
  FleetConfig c;
  c.shards = static_cast<std::int32_t>(envOr("DAGT_FLEET_SHARDS", c.shards));
  c.replication =
      static_cast<std::int32_t>(envOr("DAGT_FLEET_REPLICATION", c.replication));
  c.virtualNodes =
      static_cast<std::int32_t>(envOr("DAGT_FLEET_VNODES", c.virtualNodes));
  c.maxInflight = envOr("DAGT_FLEET_MAX_INFLIGHT", c.maxInflight);
  c.hedgeAfterUs = envOr("DAGT_FLEET_HEDGE_US", c.hedgeAfterUs);
  return c;
}

FleetConfig FleetConfig::fromFile(const std::string& path) {
  FleetConfig c = fromEnv();
  std::ifstream in(path);
  DAGT_CHECK_MSG(in.good(), "cannot open fleet config " << path);
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    // Trim; blank lines are fine.
    std::string trimmed;
    for (const char ch : line) {
      if (ch != ' ' && ch != '\t' && ch != '\r') trimmed += ch;
    }
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    DAGT_CHECK_MSG(eq != std::string::npos,
                   path << ":" << lineNo << ": expected key=value");
    const std::string key = trimmed.substr(0, eq);
    const std::string value = trimmed.substr(eq + 1);
    char* end = nullptr;
    const double num = std::strtod(value.c_str(), &end);
    DAGT_CHECK_MSG(end != value.c_str() && *end == '\0',
                   path << ":" << lineNo << ": '" << value
                        << "' is not a number");
    if (key == "shards") {
      c.shards = static_cast<std::int32_t>(num);
    } else if (key == "replication") {
      c.replication = static_cast<std::int32_t>(num);
    } else if (key == "virtual_nodes") {
      c.virtualNodes = static_cast<std::int32_t>(num);
    } else if (key == "max_inflight") {
      c.maxInflight = static_cast<std::int64_t>(num);
    } else if (key == "hedge_after_us") {
      c.hedgeAfterUs = static_cast<std::int64_t>(num);
    } else if (key == "ewma_alpha") {
      c.ewmaAlpha = num;
    } else if (key == "max_batch") {
      c.engine.maxBatch = static_cast<std::int64_t>(num);
    } else if (key == "max_wait_us") {
      c.engine.maxWaitUs = static_cast<std::int64_t>(num);
    } else if (key == "worker_threads") {
      c.engine.workerThreads = static_cast<std::int32_t>(num);
    } else if (key == "mc_samples") {
      c.engine.mcSamples = static_cast<std::int32_t>(num);
    } else {
      DAGT_CHECK_MSG(false, path << ":" << lineNo << ": unknown fleet key '"
                                 << key << "'");
    }
  }
  return c;
}

// -- Shard -------------------------------------------------------------------

ShardRouter::Shard::Shard(const serve::EngineConfig& engineConfig)
    : engine(std::make_unique<serve::PredictionEngine>(engineConfig)) {}

double ShardRouter::Shard::ewmaUs() const {
  const std::uint64_t bits = ewmaUsBits.load(std::memory_order_relaxed);
  double out;
  static_assert(sizeof(out) == sizeof(bits), "double must be 64-bit");
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

void ShardRouter::Shard::observeLatencyUs(double us, double alpha) {
  std::uint64_t expected = ewmaUsBits.load(std::memory_order_relaxed);
  while (true) {
    double current;
    std::memcpy(&current, &expected, sizeof(current));
    const double next = current == 0.0 ? us : alpha * us + (1.0 - alpha) * current;
    std::uint64_t nextBits;
    std::memcpy(&nextBits, &next, sizeof(nextBits));
    if (ewmaUsBits.compare_exchange_weak(expected, nextBits,
                                         std::memory_order_relaxed)) {
      return;
    }
  }
}

// -- ShardRouter -------------------------------------------------------------

ShardRouter::ShardRouter(FleetConfig config)
    : config_(std::move(config)), ring_(config_.virtualNodes) {
  DAGT_CHECK_MSG(config_.shards >= 1, "fleet needs at least one shard");
  DAGT_CHECK_MSG(config_.replication >= 1, "replication must be >= 1");
  DAGT_CHECK_MSG(config_.maxInflight >= 1, "max inflight must be >= 1");
  DAGT_CHECK_MSG(config_.engine.batching,
                 "fleet shards need the batching queue (async submission)");
  std::lock_guard<std::mutex> lock(topologyMutex_);
  for (std::int32_t i = 0; i < config_.shards; ++i) {
    shardSlots_.push_back(std::make_unique<Shard>(config_.engine));
    ring_.addShard(i);
  }
}

ShardRouter::~ShardRouter() {
  // Abandoned hedge replies resolve once the engines drain their queues
  // on shutdown; the futures themselves may be destroyed unconsumed.
  for (const auto& slot : shardSlots_) slot->engine->shutdown();
}

void ShardRouter::addBundleFromDir(const std::string& dir) {
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lock(topologyMutex_);
    bundleDirs_.push_back(dir);
    for (const auto& slot : shardSlots_) shards.push_back(slot.get());
  }
  // Each shard loads its own bundle instance (model weights are mutated
  // workspaces-adjacent state, and process isolation is the next step for
  // the Shard seam) — only feature snapshots are shared across replicas.
  for (Shard* shard : shards) {
    if (!shard->healthy.load(std::memory_order_relaxed)) continue;
    shard->engine->addBundleFromDir(dir);
  }
}

std::int64_t ShardRouter::loadDesign(const std::string& key,
                                     netlist::Netlist netlist,
                                     netlist::TechNode node,
                                     const place::PlacementResult& placement,
                                     const std::string& revision) {
  DAGT_TRACE_SCOPE("fleet/load_design");
  std::vector<Shard*> owners = candidatesForLoad(key);
  DAGT_CHECK_MSG(!owners.empty(), "fleet has no shards");
  // Build once on the primary owner, then share the snapshot with the
  // other replicas (read-only adoption, no second extraction).
  Shard* primary = nullptr;
  for (Shard* shard : owners) {
    if (shard->healthy.load(std::memory_order_relaxed)) {
      primary = shard;
      break;
    }
  }
  DAGT_CHECK_MSG(primary != nullptr,
                 "every owner replica of '" << key << "' is dead");
  const std::int64_t endpoints =
      primary->engine->loadDesign(key, std::move(netlist), node, placement,
                                  revision);
  const auto snapshot = primary->engine->currentSnapshot(key);
  for (Shard* shard : owners) {
    if (shard == primary) continue;
    if (!shard->healthy.load(std::memory_order_relaxed)) continue;
    shard->engine->adoptDesign(key, node, revision, snapshot);
  }
  {
    std::lock_guard<std::mutex> lock(topologyMutex_);
    designs_[key] = DesignInfo{node, revision, endpoints};
  }
  return endpoints;
}

std::int64_t ShardRouter::adoptDesign(
    const std::string& key, netlist::TechNode node,
    const std::string& revision,
    std::shared_ptr<const serve::ServableDesign> design) {
  DAGT_TRACE_SCOPE("fleet/load_design");
  DAGT_CHECK_MSG(design != nullptr, "adoptDesign: null snapshot");
  std::vector<Shard*> owners = candidatesForLoad(key);
  DAGT_CHECK_MSG(!owners.empty(), "fleet has no shards");
  for (Shard* shard : owners) {
    if (!shard->healthy.load(std::memory_order_relaxed)) continue;
    shard->engine->adoptDesign(key, node, revision, design);
  }
  const std::int64_t endpoints = design->numEndpoints();
  {
    std::lock_guard<std::mutex> lock(topologyMutex_);
    designs_[key] = DesignInfo{node, revision, endpoints};
  }
  return endpoints;
}

float ShardRouter::predictEndpoint(const std::string& key,
                                   std::int64_t endpoint) {
  return predictEndpoints(key, {endpoint}).front();
}

std::vector<float> ShardRouter::predictEndpoints(
    const std::string& key, const std::vector<std::int64_t>& endpoints) {
  DAGT_TRACE_SCOPE("fleet/dispatch");
  drainAbandonedReplies();
  // One attempt per replica: a shard that dies mid-request costs one
  // failover hop; a healthy shard's failure (bad endpoint, unknown key)
  // is the caller's error and is rethrown immediately.
  const std::int32_t maxAttempts = std::max(1, config_.replication);
  for (std::int32_t attempt = 0;; ++attempt) {
    const std::vector<Shard*> candidates = candidatesFor(key);
    auto [primary, hedge] = chooseShards(candidates, key);
    primary->routed.fetch_add(1, std::memory_order_relaxed);
    primary->inflight.fetch_add(1, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    std::future<std::vector<float>> reply;
    try {
      reply = primary->engine->predictEndpointsAsync(key, endpoints);
    } catch (...) {
      primary->inflight.fetch_sub(1, std::memory_order_relaxed);
      if (!primary->healthy.load(std::memory_order_relaxed) &&
          attempt + 1 < maxAttempts) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        DAGT_TRACE_INSTANT("fleet/failover", "attempt", attempt);
        continue;
      }
      throw;
    }
    try {
      auto out =
          awaitWithHedge(key, endpoints, primary, hedge, std::move(reply),
                         start);
      requests_.fetch_add(1, std::memory_order_relaxed);
      return out;
    } catch (const OverloadShedError&) {
      throw;
    } catch (...) {
      if (!primary->healthy.load(std::memory_order_relaxed) &&
          attempt + 1 < maxAttempts) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        DAGT_TRACE_INSTANT("fleet/failover", "attempt", attempt);
        continue;
      }
      throw;
    }
  }
}

std::vector<float> ShardRouter::predictDesign(const std::string& key) {
  DAGT_TRACE_SCOPE("fleet/dispatch");
  const std::int32_t maxAttempts = std::max(1, config_.replication);
  for (std::int32_t attempt = 0;; ++attempt) {
    const std::vector<Shard*> candidates = candidatesFor(key);
    auto [primary, hedge] = chooseShards(candidates, key);
    (void)hedge;  // full-design queries are not hedged (no async path)
    primary->routed.fetch_add(1, std::memory_order_relaxed);
    primary->inflight.fetch_add(1, std::memory_order_relaxed);
    const auto start = std::chrono::steady_clock::now();
    try {
      auto out = primary->engine->predictDesign(key);
      primary->inflight.fetch_sub(1, std::memory_order_relaxed);
      primary->observeLatencyUs(
          microsSince(start, std::chrono::steady_clock::now()),
          config_.ewmaAlpha);
      requests_.fetch_add(1, std::memory_order_relaxed);
      return out;
    } catch (...) {
      primary->inflight.fetch_sub(1, std::memory_order_relaxed);
      if (!primary->healthy.load(std::memory_order_relaxed) &&
          attempt + 1 < maxAttempts) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        DAGT_TRACE_INSTANT("fleet/failover", "attempt", attempt);
        continue;
      }
      throw;
    }
  }
}

std::int32_t ShardRouter::addShard() {
  DAGT_TRACE_SCOPE("fleet/rebalance");
  // Expensive parts (engine spin-up, bundle loads) run outside the
  // topology lock; only the ring/slot/registry flip holds it.
  auto fresh = std::make_unique<Shard>(config_.engine);
  std::vector<std::string> dirs;
  {
    std::lock_guard<std::mutex> lock(topologyMutex_);
    dirs = bundleDirs_;
  }
  for (const std::string& dir : dirs) fresh->engine->addBundleFromDir(dir);

  struct Move {
    std::string key;
    DesignInfo info;
    std::vector<std::int32_t> before;
    std::vector<std::int32_t> after;
  };
  std::vector<Move> moves;
  std::int32_t id = 0;
  {
    // Plan the rebalance against a ring copy without publishing it: the
    // new shard must not become routable until it has adopted every
    // design it will own, or a concurrent query could reach an engine
    // that has never seen the key.
    std::lock_guard<std::mutex> lock(topologyMutex_);
    id = static_cast<std::int32_t>(shardSlots_.size());
    HashRing planned = ring_;
    planned.addShard(id);
    for (const auto& [key, info] : designs_) {
      Move move{key, info, ring_.shardsFor(key, config_.replication),
                planned.shardsFor(key, config_.replication)};
      if (move.before != move.after) moves.push_back(std::move(move));
    }
  }

  // Adopt every moved key on the new shard first (sharing a live owner's
  // snapshot — no feature rebuild). A consistent-hash insert only ever
  // moves keys *to* the inserted shard, so it is the only adopter.
  // Engine calls run without the topology lock.
  for (const Move& move : moves) {
    std::shared_ptr<const serve::ServableDesign> snapshot;
    for (const std::int32_t owner : move.before) {
      snapshot = shardAt(owner)->engine->currentSnapshot(move.key);
      if (snapshot != nullptr) break;
    }
    const bool gains = std::find(move.after.begin(), move.after.end(), id) !=
                       move.after.end();
    if (gains && snapshot != nullptr) {
      fresh->engine->adoptDesign(move.key, move.info.node, move.info.revision,
                                 snapshot);
    }
  }

  // Publish: from here on dispatch can route the moved keys to the new
  // shard, and it is ready for them.
  {
    std::lock_guard<std::mutex> lock(topologyMutex_);
    DAGT_CHECK_MSG(static_cast<std::size_t>(id) == shardSlots_.size(),
                   "concurrent addShard calls must be serialized");
    ring_.addShard(id);
    shardSlots_.push_back(std::move(fresh));
  }

  // Former owners drop the moved keys last — until the publish above they
  // were still serving them, and in-flight work keeps the shared snapshot
  // alive by refcount either way.
  for (const Move& move : moves) {
    for (const std::int32_t owner : move.before) {
      const bool stillOwner =
          std::find(move.after.begin(), move.after.end(), owner) !=
          move.after.end();
      if (stillOwner) continue;
      Shard* shard = shardAt(owner);
      if (!shard->healthy.load(std::memory_order_relaxed)) continue;
      shard->engine->dropDesign(move.key);
    }
  }
  rebalances_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void ShardRouter::killShard(std::int32_t shard) {
  Shard* s = shardAt(shard);
  // Unhealthy first, then drain: dispatch stops selecting the shard, a
  // submission that raced the flag fails over (predictEndpoints treats
  // "threw + unhealthy" as a failover trigger), and requests already in
  // the queue are served by shutdown's drain — nothing is lost, nothing
  // is answered twice.
  s->healthy.store(false, std::memory_order_relaxed);
  s->engine->shutdown();
}

std::vector<std::int32_t> ShardRouter::ownersOf(const std::string& key) const {
  std::lock_guard<std::mutex> lock(topologyMutex_);
  return ring_.shardsFor(key, config_.replication);
}

std::int32_t ShardRouter::shardCount() const {
  std::lock_guard<std::mutex> lock(topologyMutex_);
  return static_cast<std::int32_t>(shardSlots_.size());
}

FleetMetricsSnapshot ShardRouter::metrics() const {
  drainAbandonedReplies();
  FleetMetricsSnapshot snap;
  snap.replication = config_.replication;
  snap.virtualNodes = config_.virtualNodes;
  std::vector<Shard*> shards;
  {
    std::lock_guard<std::mutex> lock(topologyMutex_);
    for (const auto& slot : shardSlots_) shards.push_back(slot.get());
    snap.designs = designs_.size();
  }
  snap.shards = static_cast<std::int32_t>(shards.size());
  snap.requests = requests_.load(std::memory_order_relaxed);
  snap.hedges = hedges_.load(std::memory_order_relaxed);
  snap.hedgeWins = hedgeWins_.load(std::memory_order_relaxed);
  snap.sheds = shedCount_.load(std::memory_order_relaxed);
  snap.failovers = failovers_.load(std::memory_order_relaxed);
  snap.rebalances = rebalances_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    ShardSnapshot ss;
    ss.shard = static_cast<std::int32_t>(i);
    ss.healthy = shards[i]->healthy.load(std::memory_order_relaxed);
    ss.inflight = shards[i]->inflight.load(std::memory_order_relaxed);
    ss.routed = shards[i]->routed.load(std::memory_order_relaxed);
    ss.sheds = shards[i]->sheds.load(std::memory_order_relaxed);
    ss.ewmaUs = shards[i]->ewmaUs();
    // Engine snapshots are taken without the topology lock (the engine
    // takes its own registry lock inside).
    ss.engine = shards[i]->engine->metrics();
    snap.perShard.push_back(std::move(ss));
  }
  if (obs::tracingEnabled()) {
    snap.traceSpans = obs::TraceRegistry::global().aggregate("fleet/");
  }
  return snap;
}

// -- dispatch internals ------------------------------------------------------

std::vector<ShardRouter::Shard*> ShardRouter::candidatesFor(
    const std::string& key) const {
  DAGT_TRACE_SCOPE("fleet/route");
  std::lock_guard<std::mutex> lock(topologyMutex_);
  DAGT_CHECK_MSG(designs_.count(key) > 0,
                 "design '" << key << "' is not loaded in the fleet");
  std::vector<Shard*> out;
  for (const std::int32_t id : ring_.shardsFor(key, config_.replication)) {
    out.push_back(shardSlots_[static_cast<std::size_t>(id)].get());
  }
  return out;
}

std::vector<ShardRouter::Shard*> ShardRouter::candidatesForLoad(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(topologyMutex_);
  std::vector<Shard*> out;
  for (const std::int32_t id : ring_.shardsFor(key, config_.replication)) {
    out.push_back(shardSlots_[static_cast<std::size_t>(id)].get());
  }
  return out;
}

std::pair<ShardRouter::Shard*, ShardRouter::Shard*> ShardRouter::chooseShards(
    const std::vector<Shard*>& candidates, const std::string& key) {
  std::vector<Shard*> healthy;
  for (Shard* shard : candidates) {
    if (shard->healthy.load(std::memory_order_relaxed)) {
      healthy.push_back(shard);
    }
  }
  DAGT_CHECK_MSG(!healthy.empty(),
                 "every owner replica of '" << key << "' is dead");
  // Load-aware order: in-flight depth first (queue length is the strongest
  // congestion signal), router-observed EWMA latency as the tie-break.
  std::stable_sort(healthy.begin(), healthy.end(),
                   [](const Shard* a, const Shard* b) {
                     const std::int64_t ia =
                         a->inflight.load(std::memory_order_relaxed);
                     const std::int64_t ib =
                         b->inflight.load(std::memory_order_relaxed);
                     if (ia != ib) return ia < ib;
                     return a->ewmaUs() < b->ewmaUs();
                   });
  std::vector<Shard*> admitted;
  for (Shard* shard : healthy) {
    if (shard->inflight.load(std::memory_order_relaxed) <
        config_.maxInflight) {
      admitted.push_back(shard);
    }
  }
  if (admitted.empty()) {
    // Bounded queues, explicit refusal: every healthy replica is at its
    // admission bound, so this request is shed instead of parked on an
    // unbounded backlog. The primary owner's shard takes the blame in the
    // per-shard breakdown.
    healthy.front()->sheds.fetch_add(1, std::memory_order_relaxed);
    shedCount_.fetch_add(1, std::memory_order_relaxed);
    DAGT_TRACE_INSTANT("fleet/shed", "replicas", healthy.size());
    throw OverloadShedError(
        "fleet: all " + std::to_string(healthy.size()) + " replica(s) of '" +
        key + "' are at max inflight (" + std::to_string(config_.maxInflight) +
        ")");
  }
  Shard* primary = admitted.front();
  Shard* hedge = admitted.size() > 1 ? admitted[1] : nullptr;
  return {primary, hedge};
}

std::vector<float> ShardRouter::awaitWithHedge(
    const std::string& key, const std::vector<std::int64_t>& endpoints,
    Shard* primary, Shard* hedge,
    std::future<std::vector<float>> primaryReply,
    std::chrono::steady_clock::time_point start) {
  using std::chrono::microseconds;
  if (config_.hedgeAfterUs <= 0 || hedge == nullptr) {
    return consumeReply(primary, std::move(primaryReply), start);
  }
  if (primaryReply.wait_for(microseconds(config_.hedgeAfterUs)) ==
      std::future_status::ready) {
    return consumeReply(primary, std::move(primaryReply), start);
  }
  // Slow shard detected: duplicate to the runner-up replica; first reply
  // wins and the loser is parked for opportunistic reaping.
  hedges_.fetch_add(1, std::memory_order_relaxed);
  DAGT_TRACE_INSTANT("fleet/hedge", "after_us", config_.hedgeAfterUs);
  hedge->routed.fetch_add(1, std::memory_order_relaxed);
  hedge->inflight.fetch_add(1, std::memory_order_relaxed);
  std::future<std::vector<float>> hedgeReply;
  try {
    hedgeReply = hedge->engine->predictEndpointsAsync(key, endpoints);
  } catch (...) {
    // The replica refused (e.g. killed since selection) — the hedge just
    // never happened; block on the primary as usual.
    hedge->inflight.fetch_sub(1, std::memory_order_relaxed);
    return consumeReply(primary, std::move(primaryReply), start);
  }
  // The hedge outranks the primary on a tie: it only exists because the
  // primary blew its hedge budget, and if the poller was descheduled past
  // both completions there is no way to tell which reply landed first —
  // crediting the duplicate keeps the win accounting stable under load.
  while (true) {
    if (hedgeReply.wait_for(microseconds(0)) == std::future_status::ready) {
      try {
        auto out = consumeReply(hedge, std::move(hedgeReply), start);
        hedgeWins_.fetch_add(1, std::memory_order_relaxed);
        abandonReply(primary, std::move(primaryReply));
        return out;
      } catch (...) {
        // The hedge failed; the primary may still answer — wait for it.
        return consumeReply(primary, std::move(primaryReply), start);
      }
    }
    if (primaryReply.wait_for(microseconds(50)) == std::future_status::ready) {
      try {
        auto out = consumeReply(primary, std::move(primaryReply), start);
        abandonReply(hedge, std::move(hedgeReply));
        return out;
      } catch (...) {
        // Primary answered with a failure after we hedged: the duplicate
        // is the failover. Block on it; its own failure propagates.
        failovers_.fetch_add(1, std::memory_order_relaxed);
        DAGT_TRACE_INSTANT("fleet/failover", "hedged", 1);
        return consumeReply(hedge, std::move(hedgeReply), start);
      }
    }
  }
}

std::vector<float> ShardRouter::consumeReply(
    Shard* shard, std::future<std::vector<float>> reply,
    std::chrono::steady_clock::time_point start) {
  try {
    auto out = reply.get();
    shard->inflight.fetch_sub(1, std::memory_order_relaxed);
    shard->observeLatencyUs(
        microsSince(start, std::chrono::steady_clock::now()),
        config_.ewmaAlpha);
    return out;
  } catch (...) {
    shard->inflight.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
}

void ShardRouter::abandonReply(Shard* shard,
                               std::future<std::vector<float>> reply) const {
  std::lock_guard<std::mutex> lock(hedgeMutex_);
  abandoned_.push_back(AbandonedReply{shard, std::move(reply)});
}

void ShardRouter::drainAbandonedReplies() const {
  std::lock_guard<std::mutex> lock(hedgeMutex_);
  for (auto it = abandoned_.begin(); it != abandoned_.end();) {
    if (it->reply.wait_for(std::chrono::microseconds(0)) !=
        std::future_status::ready) {
      ++it;
      continue;
    }
    try {
      (void)it->reply.get();
    } catch (...) {
      // The losing duplicate of an already-answered request; its failure
      // is uninteresting by construction.
    }
    it->shard->inflight.fetch_sub(1, std::memory_order_relaxed);
    it = abandoned_.erase(it);
  }
}

ShardRouter::Shard* ShardRouter::shardAt(std::int32_t shard) const {
  std::lock_guard<std::mutex> lock(topologyMutex_);
  DAGT_CHECK_MSG(shard >= 0 &&
                     static_cast<std::size_t>(shard) < shardSlots_.size(),
                 "shard " << shard << " does not exist");
  return shardSlots_[static_cast<std::size_t>(shard)].get();
}

}  // namespace dagt::fleet

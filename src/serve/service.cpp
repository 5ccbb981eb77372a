#include "serve/service.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/striped.hpp"
#include "common/thread_pool.hpp"
#include "features/runtime_features.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "ocl/context.hpp"
#include "runtime/evaluation.hpp"
#include "runtime/scheduler.hpp"

namespace tp::serve {

namespace {

using Clock = obs::Clock;
using obs::secondsSince;

std::size_t autoInlineLanes(std::size_t configured) {
  // The default tracks the stripe heuristic (2x hardware concurrency in
  // [16, 64]): enough lanes that concurrent warm callers rarely collide,
  // bounded so lane *slots* stay cheap — contexts are built lazily on
  // first claim, so unused lanes cost a few pointers.
  return configured != 0 ? configured : common::defaultStripes();
}

// The breaker's lane arm: trip when more than this share of the
// machine's admissions since the previous evaluation ran lane-exhausted,
// judged once at least kBreakerMinAdmissions arrived.
constexpr double kBreakerLaneExhaustionCeiling = 0.5;
constexpr std::uint64_t kBreakerMinAdmissions = 64;

// Stock detector rules (registerHealthRules; README.md lists them). Rate
// rules judge only windows of at least kRuleMinWindow lookups, refiner
// decisions or submissions.
constexpr std::size_t kRuleTriggerAfter = 2;
constexpr std::size_t kRuleClearAfter = 2;
constexpr std::uint64_t kRuleMinWindow = 256;
constexpr double kHitRateFloor = 0.5;
constexpr double kEvictionStormCeiling = 0.25;
constexpr double kProbeStormCeiling = 0.5;
constexpr double kLaneExhaustionCeiling = 0.25;
constexpr double kRetrainOverrunSeconds = 30.0;

}  // namespace

struct PartitionService::MachineState {
  sim::MachineConfig machine;
  runtime::PartitioningSpace space;

  mutable common::SharedMutex modelMutex;
  std::shared_ptr<const ml::Classifier> model TP_GUARDED_BY(modelMutex);
  /// Cache generation this model serves.
  std::uint64_t modelVersion TP_GUARDED_BY(modelMutex) = 0;

  // Inline execution lanes, claimed by caller threads with a single CAS,
  // never a mutex. Each owns a private context/scheduler, so simulated
  // clocks stay isolated and every lane computes bit-identical results
  // (Scheduler::execute resets clocks per call). The context/scheduler
  // are built lazily by the first claimer (the claim CAS serializes
  // ownership; busy release/acquire publishes the construction), so
  // startup cost scales with actual client concurrency, not with
  // cores x machines.
  struct InlineLane {
    std::atomic<std::uint32_t> busy{0};
    std::unique_ptr<vcl::Context> context;
    std::unique_ptr<runtime::Scheduler> scheduler;
  };
  std::vector<InlineLane> inlineLanes;
  common::ThreadPool* computePool = nullptr;  ///< Compute-mode helper pool

  MachineLoadStats load;  ///< striped per-thread request accounting
  /// Sliding-window SLO judgment; set when config.slo.enabled(). Fed by
  /// recordLatency once per served request, drained by sloReport() and the
  /// latency_slo detector.
  std::unique_ptr<obs::SloTracker> slo;

  /// Requests run on a private context because every inline lane was
  /// busy; summed over machines for stats() and the lane_exhaustion rule.
  std::atomic<std::uint64_t> laneExhausted{0};

  // Admission breaker (ServiceConfig::breaker). The warm path touches
  // only admitTick (relaxed bump) and shedding (relaxed load); everything
  // else belongs to the single evaluation winner holding evalBusy via
  // ClaimGuard — the claim's acq_rel CAS orders the hysteresis and window
  // between consecutive winners, so they need no mutex and no atomics.
  std::atomic<std::uint64_t> admitTick{0};
  std::atomic<std::uint32_t> evalBusy{0};
  std::atomic<std::uint32_t> shedding{0};
  obs::Hysteresis breaker;           ///< evalBusy holder only
  obs::WindowedRatio laneExhaustion; ///< evalBusy holder only

  MachineState(const sim::MachineConfig& m,
               std::shared_ptr<const ml::Classifier> mdl,
               const ServiceConfig& config)
      : machine(m),
        space(m.numDevices(), config.divisions),
        model(std::move(mdl)),
        load(m.numDevices()),
        breaker(config.breaker.tripAfter, config.breaker.clearAfter),
        laneExhaustion(kBreakerMinAdmissions) {
    computePool =
        config.execMode == vcl::ExecMode::Compute ? &common::globalThreadPool()
                                                  : nullptr;
    inlineLanes = std::vector<InlineLane>(autoInlineLanes(config.inlineLanes));
    if (config.slo.enabled()) {
      slo = std::make_unique<obs::SloTracker>(config.slo);
    }
  }
};

PartitionService::PartitionService(ServiceConfig config)
    : config_(std::move(config)),
      interner_(std::make_unique<common::PairInterner>(config_.internCapacity)),
      cache_(std::make_unique<DecisionCache>(config_.cacheCapacity,
                                             config_.cacheRoundDigits)),
      latency_(config_.latencyWindow) {
  if (config_.refine) {
    // The refiner reuses the serving fingerprint scheme: keys map through
    // the same intern table + launchFingerprint as the decision cache, so
    // the warm path's fingerprint addresses both structures. Pairs the
    // intern table cannot hold serve unrefined.
    refiner_ = std::make_unique<adapt::Refiner>(
        config_.refiner,
        [this](const adapt::RefineKey& key)
            -> std::optional<common::Fingerprint> {
          const std::uint32_t pairId =
              interner_->intern(key.machine, key.program);
          if (pairId == common::PairInterner::kInvalid) return std::nullopt;
          return launchFingerprint(pairId, key.signature);
        });
  }
  if (config_.metrics != nullptr) registerMetrics();
}

PartitionService::~PartitionService() {
  shutdown();
  if (config_.metrics != nullptr) {
    // Drops the readout callbacks (they capture `this`) and the owned
    // latency histogram; no request can be in flight after shutdown().
    config_.metrics->removeByPrefix(config_.metricsPrefix);
  }
}

void PartitionService::registerMetrics()
    TP_LOCK_FREE_AUDITED(
        "registers readout lambdas doing relaxed loads of independent "
        "monotonic stat words; per-word exactness is the contract; TSan: "
        "test_serve PartitionService.StatsConcurrentWithAddMachineIs"
        "Consistent") {
  obs::Registry& reg = *config_.metrics;
  const std::string& p = config_.metricsPrefix;
  reg.registerCounter(p + "requests_submitted",
                      [this] { return submitted_.total(); });
  reg.registerCounter(p + "requests_completed",
                      [this] { return completed_.total(); });
  reg.registerCounter(p + "requests_failed",
                      [this] { return failed_.total(); });
  reg.registerCounter(p + "requests_inline",
                      [this] { return inlineHits_.total(); });
  reg.registerCounter(p + "inline_lane_exhausted",
                      [this] { return laneExhaustedTotal(); });
  reg.registerCounter(p + "requests_shed", [this] { return shed_.total(); });
  reg.registerCounter(p + "breaker_trips", [this] {
    return breakerTrips_.load(std::memory_order_relaxed);
  });
  reg.registerGauge(p + "breaker_open", [this] {
    return static_cast<double>(openBreakers());
  });
  reg.registerCounter(p + "retrains", [this] {
    return retrains_.load(std::memory_order_relaxed);
  });
  reg.registerGauge(p + "model_version", [this] {
    return static_cast<double>(cache_->version());
  });
  reg.registerCounter(p + "cache.lookups",
                      [this] { return cache_->counters().lookups; });
  reg.registerCounter(p + "cache.hits",
                      [this] { return cache_->counters().hits; });
  reg.registerCounter(p + "cache.misses",
                      [this] { return cache_->counters().misses; });
  reg.registerCounter(p + "cache.insertions",
                      [this] { return cache_->counters().insertions; });
  reg.registerCounter(p + "cache.evictions",
                      [this] { return cache_->counters().evictions; });
  reg.registerCounter(p + "cache.invalidations",
                      [this] { return cache_->counters().invalidations; });
  reg.registerCounter(p + "cache.collisions",
                      [this] { return cache_->counters().collisions; });
  reg.registerGauge(p + "cache.hit_rate",
                    [this] { return cache_->counters().hitRate(); });
  reg.registerGauge(p + "interned_pairs", [this] {
    return static_cast<double>(interner_->size());
  });
  reg.registerCounter(p + "intern_rejections",
                      [this] { return interner_->fullRejections(); });
  if (refiner_ != nullptr) {
    reg.registerCounter(p + "refiner.decisions",
                        [this] { return refiner_->counters().decisions; });
    reg.registerCounter(p + "refiner.explorations",
                        [this] { return refiner_->counters().explorations; });
    reg.registerCounter(p + "refiner.exploitations",
                        [this] { return refiner_->counters().exploitations; });
    reg.registerCounter(p + "refiner.observations",
                        [this] { return refiner_->counters().observations; });
    reg.registerCounter(p + "refiner.wins",
                        [this] { return refiner_->counters().wins; });
    reg.registerCounter(p + "refiner.merged_wins",
                        [this] { return refiner_->counters().mergedWins; });
    reg.registerCounter(p + "refiner.resets",
                        [this] { return refiner_->counters().resets; });
    reg.registerCounter(p + "refiner.stale_observations", [this] {
      return refiner_->counters().staleObservations;
    });
    reg.registerCounter(p + "refiner.untracked",
                        [this] { return refiner_->counters().untracked; });
    reg.registerGauge(p + "refiner.tracked_keys", [this] {
      return static_cast<double>(refiner_->trackedKeys());
    });
  }
  reg.registerSummary(p + "latency", [this] {
    const LatencyRecorder::Summary s = latency_.summary();
    return obs::SummarySnapshot{s.count, s.meanSeconds, s.maxSeconds,
                                s.p50Seconds, s.p95Seconds};
  });
  obsLatency_ = &reg.histogram(p + "latency_ns");
}

void PartitionService::recordLatency(MachineState& ms, double seconds) noexcept {
  latency_.add(seconds);
  const auto ns = static_cast<std::uint64_t>(seconds * 1e9);
  if (obsLatency_ != nullptr) obsLatency_->record(ns);
  if (ms.slo != nullptr) ms.slo->record(ns);
}

void PartitionService::addMachine(const sim::MachineConfig& machine,
                                  std::shared_ptr<const ml::Classifier> model) {
  TP_REQUIRE(model != nullptr, "PartitionService: null model for machine "
                                   << machine.name);
  TP_REQUIRE(machine.numDevices() > 0,
             "PartitionService: machine " << machine.name << " has no devices");
  auto state = std::make_unique<MachineState>(machine, std::move(model), config_);
  MachineState* ms = state.get();
  {
    common::MutexLock lock(machinesMutex_);
    // The machine map is read lock-free once the first request has been
    // admitted; a machine added later would be unsynchronized.
    TP_REQUIRE(!frozen_.load(std::memory_order_acquire),
               "PartitionService: register machine "
                   << machine.name << " before the first request");
    TP_REQUIRE(machines_.count(machine.name) == 0,
               "PartitionService: machine " << machine.name
                                            << " already registered");
    if (feedback_ == nullptr) {
      feedback_ = std::make_unique<FeedbackRecorder>(state->space.size(),
                                                     config_.cacheRoundDigits);
    } else {
      // Feedback records share one CSV schema: the time vector is indexed by
      // partitioning label, so every machine must span the same space.
      const auto firstSize = machines_.begin()->second->space.size();
      TP_REQUIRE(state->space.size() == firstSize,
                 "PartitionService: machine "
                     << machine.name << " has a partitioning space of size "
                     << state->space.size() << ", expected " << firstSize);
    }
    machines_.emplace(machine.name, std::move(state));
  }
  if (config_.metrics != nullptr && ms->slo != nullptr) {
    // Per-machine SLO gauges. The closures capture the MachineState
    // pointer directly: machines are never removed, report() is a
    // thread-safe snapshot surface, and the destructor's removeByPrefix
    // unhooks these before the state is destroyed.
    obs::Registry& reg = *config_.metrics;
    const std::string p = config_.metricsPrefix + "slo." + machine.name + ".";
    reg.registerGauge(p + "p99_seconds",
                      [ms] { return ms->slo->report().p99Seconds; });
    reg.registerGauge(p + "p999_seconds",
                      [ms] { return ms->slo->report().p999Seconds; });
    reg.registerGauge(p + "burn_rate_p99",
                      [ms] { return ms->slo->report().burnRateP99; });
    reg.registerGauge(p + "burn_rate_p999",
                      [ms] { return ms->slo->report().burnRateP999; });
    reg.registerGauge(p + "breached",
                      [ms] { return ms->slo->report().breached ? 1.0 : 0.0; });
  }
}

void PartitionService::addMachine(const sim::MachineConfig& machine,
                                  const std::string& modelPath) {
  addMachine(machine, std::shared_ptr<const ml::Classifier>(
                          ml::loadClassifierFile(modelPath)));
}

PartitionService::MachineState* PartitionService::stateFast(
    const std::string& name) const noexcept {
  // Only valid once frozen_: from then on machines_ is immutable, so the
  // map lookup (string compares, no allocation) is safe without the lock.
  const auto it = machines_.find(name);
  return it == machines_.end() ? nullptr : it->second.get();
}

PartitionService::MachineState& PartitionService::state(
    const std::string& name) const {
  if (frozen_.load(std::memory_order_acquire)) {
    MachineState* ms = stateFast(name);
    TP_REQUIRE(ms != nullptr,
               "PartitionService: unknown machine '" << name << "'");
    return *ms;
  }
  common::MutexLock lock(machinesMutex_);
  const auto it = machines_.find(name);
  TP_REQUIRE(it != machines_.end(),
             "PartitionService: unknown machine '" << name << "'");
  return *it->second;
}

DecisionKey PartitionService::fullKeyAt(const MachineState& ms,
                                        const runtime::Task& task,
                                        std::uint64_t version) const {
  DecisionKey key;
  key.machine = ms.machine.name;
  key.program = programKey(task);
  key.modelVersion = version;
  key.features = launchSignature(task);
  for (double& f : key.features) {
    f = roundSignificant(f, config_.cacheRoundDigits);
  }
  return key;
}

// seq_cst (deliberate, A1-explicit): the in-flight latch and the
// accepting_ gate form a Dekker-style pair with drain()/shutdown() —
// weaker orders would let a final decrement and the drain's load pass
// each other and strand the waiter.
void PartitionService::requestDone() noexcept
    TP_LOCK_FREE_AUDITED(
        "seq_cst completion latch: final decrement notifies drain()'s "
        "seq_cst wait loop; TSan: test_serve "
        "PartitionService.RetrainUnderLiveTrafficDoesNotDeadlock") {
  if (inFlight_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
    inFlight_.notify_all();
  }
}

PartitionService::MachineState& PartitionService::admit(
    const std::string& machine)
    TP_LOCK_FREE_AUDITED(
        "seq_cst (deliberate, A1-explicit) increment-then-check against the "
        "accepting_ gate: pairs with shutdown()'s store-then-drain so no "
        "request slips past a closing service uncounted; the first "
        "admission publishes frozen_ (release, under machinesMutex_); "
        "TSan: test_serve "
        "PartitionService.RetrainUnderLiveTrafficDoesNotDeadlock") {
  // Resolve + lifecycle-check before counting the request: unknown
  // machines and post-shutdown submissions throw and are never counted
  // as submitted.
  MachineState& ms = state(machine);
  if (!frozen_.load(std::memory_order_acquire)) {
    // First admission: from here on machines_ and feedback_ are immutable
    // and read lock-free (addMachine() checks the flag under this lock).
    common::MutexLock lock(machinesMutex_);
    frozen_.store(true, std::memory_order_release);
  }
  inFlight_.fetch_add(1, std::memory_order_seq_cst);
  if (!accepting_.load(std::memory_order_seq_cst)) {
    requestDone();
    throw Error("PartitionService: submit after shutdown");
  }
  submitted_.add();
  return ms;
}

LaunchResponse PartitionService::serveAdmitted(MachineState& ms,
                                               const LaunchRequest& request,
                                               Clock::time_point admitted)
    TP_LOCK_FREE_AUDITED(
        "relaxed reads of the shedding word and the feedbackBackfill_ hint "
        "flag; a stale value only shifts one request's shed/backfill "
        "choice, the recorder dedups; TSan: test_serve "
        "PartitionService.ConcurrentClientsGetConsistentDecisions") {
  LaunchResponse response;
  if (config_.breaker.enabled) {
    maybeEvaluateBreaker(ms);
    if (ms.shedding.load(std::memory_order_relaxed) != 0) {
      // Fast-fail: answer immediately without deciding or executing.
      // Sheds count as completed — every admitted request is answered
      // exactly once — and the response carries the shed flag so the
      // client can back off.
      shed_.add();
      completed_.add();
      response.shed = true;
      response.modelVersion = cache_->version();
      requestDone();
      return response;
    }
  }
  // Sampled (1-in-N per thread): an unsampled pass costs one relaxed load
  // and a branch.
  TP_TRACE_SPAN_SAMPLED("serve.request", request.task.globalSize);
  try {
    const runtime::Task& task = request.task;
    // Intern + fingerprint. find() is the allocation-free probe; a first
    // sighting of the (machine, program) pair interns it (kInvalid when the
    // table is full: the launch serves uncached and unrefined, the model
    // still answers).
    std::uint32_t pairId =
        interner_->find(ms.machine.name, task.programName, task.kernelName);
    if (pairId == common::PairInterner::kInvalid) {
      pairId = interner_->intern(ms.machine.name, task.programName,
                                 task.kernelName);
    }
    const bool fingerprinted = pairId != common::PairInterner::kInvalid;
    common::Fingerprint fp;
    if (fingerprinted) {
      fp = launchFingerprint(pairId, task, config_.cacheRoundDigits);
    }
    const std::uint64_t version = cache_->version();
    const std::optional<std::size_t> hit =
        fingerprinted ? cache_->lookup(fp, version) : std::nullopt;
    response.modelVersion = version;
    response.cacheHit = hit.has_value();

    // Default-constructed (no allocation); materialized only on a miss,
    // shared by the cache insert (which copies) and the RefineKey (which
    // moves out of it).
    DecisionKey full;
    if (hit.has_value()) {
      response.label = *hit;
    } else {
      {
        TP_TRACE_SPAN("serve.model_inference");
        response.label = predictWithModel(ms, task);
      }
      if (fingerprinted) {
        full = fullKeyAt(ms, task, version);
        cache_->insert(fp, full, response.label);
      }
    }

    if (refiner_ != nullptr && fingerprinted) {
      // The refiner may override the cached or predicted baseline. A miss
      // hands it the full key, so absent entries are created; a hit
      // passes nullptr (its entry was created when it missed) and serves
      // unrefined if the entry is gone, rather than re-materializing key
      // strings on the warm path.
      adapt::RefineKey refineKey;
      if (!hit.has_value()) {
        refineKey.machine = std::move(full.machine);
        refineKey.program = std::move(full.program);
        refineKey.signature = std::move(full.features);
      }
      const adapt::RefineDecision rd =
          refiner_->decide(fp, hit.has_value() ? nullptr : &refineKey,
                           version, response.label, ms.space);
      response.explored = rd.explore;
      response.refined = rd.refined;
      if (rd.label != response.label || rd.explore) {
        response.cacheHit = false;
        response.label = rd.label;
      }
    }

    const bool onLane =
        executeOnLane(ms, task, response, fingerprinted ? &fp : nullptr);

    if (config_.recordFeedback &&
        (!hit.has_value() ||
         feedbackBackfill_.load(std::memory_order_relaxed))) {
      // Cache hits skip the recorder entirely: it deduplicates on the
      // launch signature, and a hit's signature was recorded when it
      // first missed — so the warm path never takes the feedback lock.
      // Exception: once remote wins were merged into the cache, hits may
      // be launches that never missed locally (see feedbackBackfill_).
      // admit() froze the map, so the audited accessor is the right read.
      feedbackPostFreeze()->record(
          task, ms.machine, ms.space,
          request.sizeLabel.empty() ? "n=" + std::to_string(task.globalSize)
                                    : request.sizeLabel);
    }
    recordLatency(ms, secondsSince(admitted));
    completed_.add();
    if (hit.has_value() && !response.explored && onLane) inlineHits_.add();
  } catch (...) {
    failed_.add();
    requestDone();
    throw;
  }
  requestDone();
  return response;
}

bool PartitionService::executeOnLane(MachineState& ms,
                                     const runtime::Task& task,
                                     LaunchResponse& response,
                                     const common::Fingerprint* fp)
    TP_LOCK_FREE_AUDITED(
        "lane ownership is a ClaimGuard CAS claim released on every path "
        "including unwind; TSan: test_serve "
        "PartitionService.ConcurrentClientsGetConsistentDecisions") {
  // Claim an inline lane with one CAS. Start the scan at a per-thread
  // offset so concurrent callers spread over lanes instead of convoying
  // on lane 0. The RAII guard keeps the claim exception-safe: any throw
  // below releases the lane on unwind instead of leaking it (lint rule
  // A3).
  const std::size_t numLanes = ms.inlineLanes.size();
  const std::size_t start = common::threadStripe(numLanes);
  for (std::size_t i = 0; i < numLanes; ++i) {
    MachineState::InlineLane& lane = ms.inlineLanes[(start + i) % numLanes];
    common::ClaimGuard claim(lane.busy);
    if (!claim.claimed()) continue;
    if (lane.scheduler == nullptr) {
      // First claim of this lane: build its private context/scheduler now
      // (one-time; we own the lane exclusively until the busy release).
      lane.context = std::make_unique<vcl::Context>(
          ms.machine, config_.execMode, ms.computePool);
      lane.scheduler = std::make_unique<runtime::Scheduler>(*lane.context);
    }
    finishDecided(ms, *lane.scheduler, task, response, fp);
    return true;  // the guard releases the lane
  }
  // Every lane is busy: run on a private context built on this frame.
  ms.laneExhausted.fetch_add(1, std::memory_order_relaxed);
  vcl::Context context(ms.machine, config_.execMode, ms.computePool);
  runtime::Scheduler scheduler(context);
  finishDecided(ms, scheduler, task, response, fp);
  return false;
}

void PartitionService::finishDecided(MachineState& ms,
                                     runtime::Scheduler& scheduler,
                                     const runtime::Task& task,
                                     LaunchResponse& response,
                                     const common::Fingerprint* fp) {
  response.partitioning = ms.space.at(response.label);
  response.execution = scheduler.execute(task, response.partitioning);

  if (refiner_ != nullptr && fp != nullptr) {
    const adapt::Observation obs =
        refiner_->observe(*fp, response.modelVersion, response.label,
                          response.execution.makespan, ms.space);
    const bool reinstallIncumbent = obs.tracked && response.refined &&
                                    !response.explored && !response.cacheHit;
    if (obs.improved || reinstallIncumbent) {
      // Measured win: future lookups of this signature serve the refined
      // label (a stale-version key is dropped harmlessly). The reinstall
      // case covers exploiting a previously adopted win whose cache entry
      // was evicted: reinstall the *current* incumbent — not this
      // request's own label, which a concurrent probe's win may have
      // superseded. The full key is materialized here (win write-backs
      // are rare), stamped with the version the decision was made under.
      cache_->insert(*fp, fullKeyAt(ms, task, response.modelVersion),
                     obs.bestLabel);
    }
  }

  ms.load.record(response.execution.makespan, response.execution.devices);
}

std::future<LaunchResponse> PartitionService::submit(LaunchRequest request) {
  const auto admitted = Clock::now();
  MachineState& ms = admit(request.machine);  // validation throws here
  std::promise<LaunchResponse> promise;
  try {
    promise.set_value(serveAdmitted(ms, request, admitted));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return promise.get_future();
}

LaunchResponse PartitionService::call(LaunchRequest request) {
  const auto admitted = Clock::now();
  return serveAdmitted(admit(request.machine), request, admitted);
}

std::size_t PartitionService::predictWithModel(
    const MachineState& ms, const runtime::Task& task) const {
  const auto x =
      features::combinedFeatureVector(task.features, task.launchInfo());
  common::SharedMutexLockShared lock(ms.modelMutex);
  const int label = ms.model->predict(x);
  TP_REQUIRE(label >= 0 && static_cast<std::size_t>(label) < ms.space.size(),
             "PartitionService: model for "
                 << ms.machine.name << " predicted label " << label
                 << " outside the space of " << ms.space.size());
  return static_cast<std::size_t>(label);
}

std::size_t PartitionService::predictLabel(const std::string& machine,
                                           const runtime::Task& task) const {
  return predictWithModel(state(machine), task);
}

PartitionService::RetrainResult PartitionService::retrain() {
  TP_TRACE_SPAN("serve.retrain");
  const auto retrainStart = Clock::now();
  RetrainResult result;
  FeedbackRecorder* feedback = nullptr;
  std::vector<MachineState*> states;
  {
    // feedback_ is written by addMachine() under machinesMutex_; read the
    // pointer under the same lock (it is never reset once set, so using
    // it after the unlock is safe).
    common::MutexLock lock(machinesMutex_);
    feedback = feedback_.get();
    states.reserve(machines_.size());
    for (const auto& [name, ms] : machines_) {
      (void)name;
      states.push_back(ms.get());
    }
  }
  TP_REQUIRE(feedback != nullptr,
             "PartitionService: retrain before any machine was added");
  const runtime::FeatureDatabase db = [&] {
    TP_TRACE_SPAN("serve.retrain.snapshot");
    return feedback->snapshot();
  }();
  result.recordsUsed = db.size();
  for (MachineState* ms : states) {
    if (db.forMachine(ms->machine.name).empty()) continue;
    TP_TRACE_SPAN_ARG("serve.retrain.fit", result.recordsUsed);
    // Train outside the model lock: serving continues on the old model
    // until the swap below.
    auto model = runtime::trainDeploymentModel(
        db, ms->machine.name, config_.retrainSpec,
        runtime::FeatureSet::Combined, config_.retrainSeed);
    {
      common::SharedMutexLock lock(ms->modelMutex);
      ms->model = std::move(model);
    }
    ++result.machinesRetrained;
  }
  TP_TRACE_SPAN("serve.retrain.sweep");
  // New generation: every cached decision of the old models is stale.
  // (Swap-then-bump: a prediction racing the swap is cached under the old
  // version and swept here; the reverse order would let old-model labels
  // survive into the new generation.)
  result.modelVersion = cache_->bumpVersion();
  // Version plumbing: stamp every machine with the generation its model
  // now serves, so stats and the refiner's decay agree on "current".
  for (MachineState* ms : states) {
    common::SharedMutexLock lock(ms->modelMutex);
    ms->modelVersion = result.modelVersion;
  }
  retrains_.fetch_add(1, std::memory_order_relaxed);
  lastRetrainSeconds_.store(secondsSince(retrainStart),
                            std::memory_order_relaxed);
  return result;
}

std::uint64_t PartitionService::modelVersion() const noexcept {
  return cache_->version();
}

std::vector<PartitionService::DeployedModel> PartitionService::deployedModels()
    const {
  std::vector<DeployedModel> out;
  common::MutexLock lock(machinesMutex_);
  out.reserve(machines_.size());
  for (const auto& [name, ms] : machines_) {
    common::SharedMutexLockShared modelLock(ms->modelMutex);
    out.push_back(DeployedModel{name, ms->model});
  }
  return out;
}

std::vector<adapt::WinRecord> PartitionService::exportRefinedWins(
    bool refinedOnly) const {
  if (refiner_ == nullptr) return {};
  return refiner_->exportWins(refinedOnly);
}

adapt::MergeResult PartitionService::mergeRemoteWins(
    const std::vector<adapt::WinRecord>& wins) {
  TP_TRACE_SPAN_ARG("serve.merge_remote_wins", wins.size());
  adapt::MergeResult result;
  std::size_t spaceSize = 0;
  {
    // Every machine spans the same space (enforced by addMachine), so
    // any registered one bounds the valid labels.
    common::MutexLock lock(machinesMutex_);
    if (!machines_.empty()) spaceSize = machines_.begin()->second->space.size();
  }
  if (refiner_ == nullptr || spaceSize == 0) {
    result.dropped = wins.size();
    return result;
  }
  // Remote state is wire-decoded and not ours to trust: a label outside
  // the partitioning space would be elected, cached, and then throw on
  // every warm request for its key. Drop such records at the edge.
  std::vector<adapt::WinRecord> valid;
  valid.reserve(wins.size());
  for (const adapt::WinRecord& rec : wins) {
    const bool labelsOk =
        rec.baseLabel < spaceSize && rec.incumbentLabel < spaceSize &&
        std::all_of(rec.arms.begin(), rec.arms.end(),
                    [&](const adapt::WinArm& arm) {
                      return arm.label < spaceSize;
                    });
    if (labelsOk) {
      valid.push_back(rec);
    } else {
      ++result.dropped;
    }
  }
  const std::uint64_t version = cache_->version();
  // From here on, warm hits may serve launches this service never
  // measured; make the hit paths backfill feedback (see the member).
  if (!valid.empty()) {
    feedbackBackfill_.store(true, std::memory_order_relaxed);
  }
  // The refiner addresses records through the service fingerprinter (its
  // constructor injection), so merged keys land exactly where live
  // traffic for the same launches does.
  const adapt::MergeResult merged = refiner_->mergeWins(valid, version);
  result.adopted = merged.adopted;
  result.updated = merged.updated;
  result.stale = merged.stale;
  result.dropped += merged.dropped;
  // Write adopted incumbents through into the decision cache, so warm
  // lookups serve the merged win immediately. The incumbent is re-read
  // from the refiner (not taken from the record): a concurrent local
  // observation or a better peer record may have superseded it.
  for (const adapt::WinRecord& rec : valid) {
    if (rec.modelVersion != version) continue;
    const std::uint32_t pairId =
        interner_->intern(rec.key.machine, rec.key.program);
    if (pairId == common::PairInterner::kInvalid) continue;
    const common::Fingerprint fp =
        launchFingerprint(pairId, rec.key.signature);
    const auto inc = refiner_->incumbent(fp, version);
    if (!inc.tracked) continue;
    DecisionKey key;
    key.machine = rec.key.machine;
    key.program = rec.key.program;
    key.modelVersion = version;
    key.features = rec.key.signature;  // already quantized by the sender
    cache_->insert(fp, key, inc.label);
  }
  return result;
}

adapt::Refiner::Incumbent PartitionService::refinedIncumbent(
    const adapt::RefineKey& key, std::uint64_t version) const {
  if (refiner_ == nullptr) return {};
  return refiner_->incumbent(key, version);
}

void PartitionService::installModels(const std::vector<ModelUpdate>& updates,
                                     std::uint64_t version) {
  TP_REQUIRE(version >= cache_->version(),
             "PartitionService: installModels would move the generation "
             "backward (" << version << " < " << cache_->version() << ")");
  std::vector<MachineState*> states;
  {
    common::MutexLock lock(machinesMutex_);
    for (const ModelUpdate& update : updates) {
      TP_REQUIRE(update.model != nullptr,
                 "PartitionService: null model for machine "
                     << update.machine);
      const auto it = machines_.find(update.machine);
      TP_REQUIRE(it != machines_.end(),
                 "PartitionService: installModels for unknown machine '"
                     << update.machine << "'");
      common::SharedMutexLock modelLock(it->second->modelMutex);
      it->second->model = update.model;
    }
    states.reserve(machines_.size());
    for (const auto& [name, ms] : machines_) {
      (void)name;
      states.push_back(ms.get());
    }
  }
  // Swap-then-advance, like retrain(): decisions racing the swap are
  // cached under the old generation and swept by the advance.
  const std::uint64_t before = cache_->version();
  const std::uint64_t current = cache_->advanceVersion(version);
  if (version == before) {
    // Same-generation install (snapshot warm-start at the current
    // generation, or a second retrain coordinator racing to the same
    // number): advanceVersion was a no-op and swept nothing, but the
    // previous models' labels must not keep serving as cache hits under
    // a generation they no longer belong to. Drop everything.
    cache_->clear();
  }
  for (MachineState* ms : states) {
    common::SharedMutexLock lock(ms->modelMutex);
    ms->modelVersion = current;
  }
}

runtime::FeatureDatabase PartitionService::trafficSnapshot() const {
  FeedbackRecorder* feedback = nullptr;
  {
    // Racing a concurrent addMachine(): the recorder pointer is guarded
    // by machinesMutex_ until the freeze, so read it under the lock (the
    // pointee is internally synchronized and never destroyed before us).
    common::MutexLock lock(machinesMutex_);
    feedback = feedback_.get();
  }
  TP_REQUIRE(feedback != nullptr,
             "PartitionService: no feedback schema before addMachine()");
  return feedback->snapshot();
}

void PartitionService::drain()
    TP_LOCK_FREE_AUDITED(
        "seq_cst (deliberate, A1-explicit) wait loop on the in-flight "
        "latch, pairing with requestDone()'s decrement+notify; TSan: "
        "test_serve PartitionService.RetrainUnderLiveTrafficDoesNotDeadlock") {
  for (;;) {
    const std::uint64_t v = inFlight_.load(std::memory_order_seq_cst);
    if (v == 0) return;
    inFlight_.wait(v, std::memory_order_seq_cst);
  }
}

void PartitionService::shutdown()
    TP_LOCK_FREE_AUDITED(
        "seq_cst (deliberate, A1-explicit) store-then-drain of the "
        "accepting_ gate, pairing with admit()'s increment-then-check; "
        "TSan: test_serve PartitionService.ShutdownDrainsAndRejectsNewWork") {
  accepting_.store(false, std::memory_order_seq_cst);
  drain();
}

ServiceStats PartitionService::stats() const {
  ServiceStats s;
  s.requestsSubmitted = submitted_.total();
  s.requestsCompleted = completed_.total();
  s.requestsFailed = failed_.total();
  s.requestsInline = inlineHits_.total();
  s.requestsShed = shed_.total();
  s.breakerTrips = breakerTrips_.load(std::memory_order_relaxed);
  s.cache = cache_->counters();
  s.cacheHitRate = s.cache.hitRate();
  s.modelVersion = cache_->version();
  s.retrains = retrains_.load(std::memory_order_relaxed);
  if (refiner_ != nullptr) {
    s.refiner = refiner_->counters();
    s.refinedKeys = refiner_->trackedKeys();
  }
  s.latency = latency_.summary();

  // feedback_ is guarded by machinesMutex_ during registration — reading
  // it outside the lock here raced a concurrent first addMachine() (the
  // annotation pass surfaced this; the regression test hammers stats()
  // against addMachine under TSan).
  common::MutexLock lock(machinesMutex_);
  s.feedbackRecords = feedback_ != nullptr ? feedback_->size() : 0;
  s.internedPairs = interner_->size();
  s.internRejections = interner_->fullRejections();
  for (const auto& [name, ms] : machines_) {
    (void)name;
    MachineStats m;
    m.machine = ms->machine.name;
    s.inlineLaneExhausted += ms->laneExhausted.load(std::memory_order_relaxed);
    {
      common::SharedMutexLockShared modelLock(ms->modelMutex);
      m.modelVersion = ms->modelVersion;
    }
    const MachineLoadStats::Snapshot load = ms->load.snapshot();
    m.requests = load.requests;
    m.makespanSeconds = load.makespanSum;
    for (std::size_t d = 0; d < load.deviceBusySeconds.size(); ++d) {
      DeviceUtilization util;
      util.device = ms->machine.devices[d].name;
      util.busySeconds = load.deviceBusySeconds[d];
      util.utilization =
          load.makespanSum > 0.0 ? util.busySeconds / load.makespanSum : 0.0;
      m.devices.push_back(std::move(util));
    }
    s.machines.push_back(std::move(m));
  }
  return s;
}

const runtime::PartitioningSpace& PartitionService::space(
    const std::string& machine) const {
  return state(machine).space;
}

obs::SloTracker::Report PartitionService::sloReport(
    const std::string& machine) const {
  const MachineState& ms = state(machine);
  return ms.slo != nullptr ? ms.slo->report() : obs::SloTracker::Report{};
}

void PartitionService::maybeEvaluateBreaker(MachineState& ms)
    TP_LOCK_FREE_AUDITED(
        "relaxed admission-tick bump; an occasionally duplicated or "
        "skipped evaluation only shifts WHEN the breaker re-judges the "
        "window, never what it judges; TSan: test_serve "
        "PartitionService.BreakerShedsUnderOverloadAndRecovers") {
  const std::uint64_t tick = ms.admitTick.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t every = std::max<std::uint64_t>(1, config_.breaker.evalEvery);
  if (tick % every != 0) return;
  evaluateBreaker(ms);
}

void PartitionService::evaluateBreaker(MachineState& ms)
    TP_LOCK_FREE_AUDITED(
        "single-winner evaluation: the ClaimGuard CAS (acq_rel) hands the "
        "hysteresis and lane window from winner to winner; losers return "
        "without touching them; the shedding flag itself is a relaxed "
        "on/off word read by the admission path; TSan: test_serve "
        "PartitionService.BreakerShedsUnderOverloadAndRecovers") {
  common::ClaimGuard claim(ms.evalBusy);
  if (!claim.claimed()) return;  // another admission is already judging

  bool hot = false;
  double value = 0.0;
  double threshold = 0.0;
  if (ms.slo != nullptr) {
    const std::optional<double> burn = ms.slo->report().breachBurnRate();
    if (burn.has_value() && *burn > config_.breaker.burnRateCeiling) {
      hot = true;
      value = *burn;
      threshold = config_.breaker.burnRateCeiling;
    }
  }
  // Lane-exhaustion arm: this machine's bounces per admission since the
  // previous evaluation. The window advances even when the SLO arm
  // already judged hot.
  const std::optional<double> bounceRate = ms.laneExhaustion.update(
      ms.laneExhausted.load(std::memory_order_relaxed),
      ms.admitTick.load(std::memory_order_relaxed));
  if (!hot && bounceRate.has_value() &&
      *bounceRate > kBreakerLaneExhaustionCeiling) {
    hot = true;
    value = *bounceRate;
    threshold = kBreakerLaneExhaustionCeiling;
  }

  switch (ms.breaker.update(hot)) {
    case obs::Hysteresis::Edge::Opened:
      ms.shedding.store(1, std::memory_order_relaxed);
      breakerTrips_.fetch_add(1, std::memory_order_relaxed);
      TP_WARN("admission breaker OPEN on " << ms.machine.name << ": "
                                           << value << " > " << threshold
                                           << " — shedding load");
      break;
    case obs::Hysteresis::Edge::Closed:
      ms.shedding.store(0, std::memory_order_relaxed);
      TP_INFO("admission breaker closed on " << ms.machine.name
                                             << ": window recovered");
      break;
    case obs::Hysteresis::Edge::None:
      break;
  }
}

void PartitionService::evaluateBreakerNow(const std::string& machine) {
  if (!config_.breaker.enabled) return;
  evaluateBreaker(state(machine));
}

std::uint64_t PartitionService::laneExhaustedTotal() const {
  std::uint64_t total = 0;
  common::MutexLock lock(machinesMutex_);
  for (const auto& [name, ms] : machines_) {
    (void)name;
    total += ms->laneExhausted.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t PartitionService::openBreakers() const {
  std::size_t open = 0;
  common::MutexLock lock(machinesMutex_);
  for (const auto& [name, ms] : machines_) {
    (void)name;
    if (ms->shedding.load(std::memory_order_relaxed) != 0) ++open;
  }
  return open;
}

bool PartitionService::breakerOpen(const std::string& machine) const
    TP_LOCK_FREE_AUDITED(
        "one relaxed load of the on/off shedding word; TSan: test_serve "
        "PartitionService.BreakerShedsUnderOverloadAndRecovers") {
  return state(machine).shedding.load(std::memory_order_relaxed) != 0;
}

void PartitionService::registerHealthRules(obs::HealthMonitor& monitor)
    TP_LOCK_FREE_AUDITED(
        "registers rule lambdas reading thread-safe snapshot surfaces "
        "(SLO reports, cache counter snapshots, striped-counter totals, "
        "one relaxed load of the last-retrain word); the monitor runs "
        "them serially under its own mutex; TSan: test_health "
        "HealthMonitor.BreachWhileDrainStaysConsistent") {
  const std::string p = config_.metricsPrefix;
  const auto stockRule = [&](const char* name) {
    obs::DetectorRule rule;
    rule.name = p + name;
    rule.triggerAfter = kRuleTriggerAfter;
    rule.clearAfter = kRuleClearAfter;
    return rule;
  };

  // ONE aggregated latency rule, not one per machine: a fleet-wide
  // latency incident should page once. The firing carries the worst
  // burn rate and names its machine.
  {
    obs::DetectorRule rule = stockRule("latency_slo");
    rule.severity = obs::Severity::Critical;
    rule.evaluate = [this]() -> std::optional<obs::Firing> {
      double worstBurn = 0.0;
      std::string worstMachine;
      common::MutexLock lock(machinesMutex_);
      for (const auto& [name, ms] : machines_) {
        if (ms->slo == nullptr) continue;
        const std::optional<double> burn = ms->slo->report().breachBurnRate();
        if (burn.has_value() && *burn >= worstBurn) {
          worstBurn = *burn;
          worstMachine = name;
        }
      }
      if (worstMachine.empty()) return std::nullopt;
      return obs::Firing{worstBurn, 1.0,
                         "latency SLO breached on " + worstMachine +
                             ": error budget burning at " +
                             std::to_string(worstBurn) + "x"};
    };
    monitor.addRule(std::move(rule));
  }

  {
    obs::DetectorRule rule = stockRule("cache_hit_collapse");
    rule.evaluate = [this, window = obs::WindowedRatio(kRuleMinWindow)]() mutable
        -> std::optional<obs::Firing> {
      const CacheCounters c = cache_->counters();
      const std::optional<double> rate = window.update(c.hits, c.lookups);
      if (!rate.has_value() || *rate >= kHitRateFloor) return std::nullopt;
      return obs::Firing{*rate, kHitRateFloor,
                         "cache hit rate collapsed to " +
                             std::to_string(*rate) + " over the last " +
                             std::to_string(window.lastSpan()) + " lookups"};
    };
    monitor.addRule(std::move(rule));
  }

  {
    obs::DetectorRule rule = stockRule("eviction_storm");
    rule.evaluate = [this, window = obs::WindowedRatio(kRuleMinWindow)]() mutable
        -> std::optional<obs::Firing> {
      const CacheCounters c = cache_->counters();
      const std::optional<double> rate = window.update(c.evictions, c.lookups);
      if (!rate.has_value() || *rate <= kEvictionStormCeiling) {
        return std::nullopt;
      }
      return obs::Firing{*rate, kEvictionStormCeiling,
                         "cache evicting at " + std::to_string(*rate) +
                             " per lookup (undersized for the working set)"};
    };
    monitor.addRule(std::move(rule));
  }

  if (refiner_ != nullptr) {
    obs::DetectorRule rule = stockRule("probe_storm");
    rule.evaluate = [this, window = obs::WindowedRatio(kRuleMinWindow)]() mutable
        -> std::optional<obs::Firing> {
      const adapt::RefinerCounters c = refiner_->counters();
      const std::optional<double> rate =
          window.update(c.explorations, c.decisions);
      if (!rate.has_value() || *rate <= kProbeStormCeiling) {
        return std::nullopt;
      }
      return obs::Firing{*rate, kProbeStormCeiling,
                         "refiner probing on " + std::to_string(*rate) +
                             " of decisions (exploration never converging)"};
    };
    monitor.addRule(std::move(rule));
  }

  {
    obs::DetectorRule rule = stockRule("lane_exhaustion");
    rule.evaluate = [this, window = obs::WindowedRatio(kRuleMinWindow)]() mutable
        -> std::optional<obs::Firing> {
      const std::optional<double> rate =
          window.update(laneExhaustedTotal(), submitted_.total());
      if (!rate.has_value() || *rate <= kLaneExhaustionCeiling) {
        return std::nullopt;
      }
      return obs::Firing{*rate, kLaneExhaustionCeiling,
                         "inline lanes exhausted on " + std::to_string(*rate) +
                             " of submissions (requests running on "
                             "short-lived private contexts)"};
    };
    monitor.addRule(std::move(rule));
  }

  {
    obs::DetectorRule rule = stockRule("retrain_overrun");
    rule.evaluate = [this]() -> std::optional<obs::Firing> {
      const double last = lastRetrainSeconds_.load(std::memory_order_relaxed);
      if (last <= kRetrainOverrunSeconds) return std::nullopt;
      return obs::Firing{last, kRetrainOverrunSeconds,
                         "last retrain took " + std::to_string(last) +
                             "s (model refresh falling behind traffic)"};
    };
    monitor.addRule(std::move(rule));
  }

  if (config_.breaker.enabled) {
    // load_shed fires while the service sheds (new sheds since the last
    // evaluation OR a breaker still open), clears once shedding stopped
    // and every breaker closed — so one overload incident produces one
    // deduped breach/clear pair, not one per shed request.
    obs::DetectorRule rule = stockRule("load_shed");
    rule.severity = obs::Severity::Critical;
    rule.triggerAfter = 1;  // the breaker's own hysteresis already gates
    rule.evaluate = [this, prevShed = std::uint64_t{0}]() mutable
        -> std::optional<obs::Firing> {
      const std::uint64_t shed = shed_.total();
      const std::uint64_t dShed = shed - prevShed;
      prevShed = shed;
      if (dShed == 0 && openBreakers() == 0) return std::nullopt;
      return obs::Firing{static_cast<double>(dShed), 0.0,
                         "admission breaker shedding load (" +
                             std::to_string(dShed) +
                             " requests since the last evaluation)"};
    };
    monitor.addRule(std::move(rule));
  }
}

void PartitionService::saveTraffic(const std::string& path) const {
  FeedbackRecorder* feedback = nullptr;
  {
    common::MutexLock lock(machinesMutex_);
    feedback = feedback_.get();
  }
  TP_REQUIRE(feedback != nullptr, "PartitionService: no traffic recorded yet");
  feedback->saveCsv(path);
}

}  // namespace tp::serve

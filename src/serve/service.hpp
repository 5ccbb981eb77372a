#pragma once

// PartitionService — the trained predictor as a long-lived, thread-safe
// serving component.
//
// Clients on any thread call() (or submit()) LaunchRequests; the service
// answers "how should this task be split?" and executes the split on the
// target machine's simulated devices. Every request — cache hit, miss,
// refiner probe — runs one pipeline on the caller's thread. There is no
// request queue and no worker thread:
//
//   1. admit: resolve the machine, count the request and consult the
//      admission breaker (an open breaker answers `shed` right here);
//   2. intern the (machine, program) pair (common::PairInterner) and fold
//      it with the quantized launch signature into a 128-bit fingerprint,
//      so no key string or signature vector is built before a miss;
//   3. probe the lock-free fingerprinted decision cache (serve/cache.hpp);
//   4. on a miss, extract features, ask the machine's model and insert
//      the decision into the cache;
//   5. with refinement on (config.refine), let the online refiner
//      (adapt/refiner.hpp), addressed by the same fingerprint, keep the
//      label, exploit an adopted win or probe a neighbour;
//   6. claim one of the machine's inline lanes with a single CAS and
//      execute the split on the lane's private vcl::Context +
//      runtime::Scheduler (Scheduler::execute resets the simulated clocks
//      per call, so concurrent requests never interleave). When every
//      lane is busy the request runs on a short-lived private context
//      instead and counts as lane-exhausted;
//   7. release the lane, then record feedback, latency and stats.
//
// The decision fast path of a hit that is not a probe (fingerprint, cache
// probe, lane claim, stats) takes no lock and allocates nothing; the
// response payload (partitioning copy, per-device execution report)
// still allocates, as does submit()'s future (call() avoids it). With
// refinement on, steps 5 and 6 take the refiner's shard mutex.
//
// Feedback: an online recorder (serve/feedback.hpp) measures each
// distinct launch the model decided into a FeatureDatabase. Cache hits
// skip it (the recorder deduplicates on the launch signature, and a hit's
// signature was recorded when it first missed) — except after
// mergeRemoteWins() wrote remote incumbents through into the cache, when
// hits backfill through the recorder's dedup (see feedbackBackfill_).
// retrain() refreshes every machine's model from the accumulated traffic
// and bumps the cache version, invalidating all cached decisions.
//
// Latency is timed once per request, from admission to the finished
// response (feedback included), on every path, and the one sample feeds
// the LatencyRecorder, the `<prefix>latency_ns` histogram and the
// machine's SloTracker. Shed and failed requests record no latency.
// Request counters, machine load and latency reservoirs are striped per
// thread (serve/stats.hpp) and merged on stats() read.
//
// submit() runs the same pipeline and returns an already-resolved future;
// execution faults travel through that future, while an unknown machine
// or a post-shutdown submission throws tp::Error from submit() itself.
// Machine registration freezes at the first admitted request: after that
// the machine map is read without locking. drain() waits until every
// admitted request has been answered.

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "adapt/refiner.hpp"
#include "common/annotations.hpp"
#include "common/intern.hpp"
#include "common/striped.hpp"
#include "ml/classifier.hpp"
#include "obs/clock.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "ocl/queue.hpp"
#include "runtime/partitioning.hpp"
#include "serve/cache.hpp"
#include "serve/feedback.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "sim/machine.hpp"

namespace tp::serve {

/// Per-machine admission breaker: when the machine's SLO window burns
/// error budget past burnRateCeiling, or more than half of the requests
/// admitted to the machine since the previous evaluation (at least 64 of
/// them) found every inline lane busy, new requests for it are shed —
/// answered immediately with LaunchResponse::shed set, nothing decided
/// or executed — until the window recovers. Evaluation is amortized
/// (every evalEvery-th admission, single winner via CAS claim) so the
/// warm path pays one relaxed counter bump and one relaxed flag load.
/// Trip and clear both take consecutive agreeing evaluations (the
/// obs::Hysteresis every detector rule uses), so one bad window cannot
/// flap the breaker.
struct BreakerConfig {
  bool enabled = false;
  /// Trip when the SLO report is breached AND its breachBurnRate()
  /// exceeds this.
  double burnRateCeiling = 2.0;
  /// Consecutive hot evaluations to open and cool ones to close; both
  /// >= 1, or addMachine() throws.
  std::size_t tripAfter = 2;
  std::size_t clearAfter = 3;
  /// Evaluate once per this many admissions to the machine.
  std::uint64_t evalEvery = 256;
};

struct ServiceConfig {
  int divisions = 10;  ///< partitioning-space step granularity (10 = 10%)
  std::size_t cacheCapacity = 1024;  ///< rounded up to a power of two
  int cacheRoundDigits = 6;  ///< significant digits in cache keys
  /// Distinct (machine, program) pairs the intern table can hold; pairs
  /// beyond it serve uncached/unrefined (the model path still answers).
  std::size_t internCapacity = 4096;
  /// Per-machine inline execution lanes (pipeline step 6); 0 = auto (2x
  /// hardware concurrency in [16, 64]). Lane contexts are built lazily on
  /// first claim. When every lane is busy a request runs on a private
  /// short-lived context and counts in ServiceStats::inlineLaneExhausted.
  std::size_t inlineLanes = 0;
  std::size_t latencyWindow = 8192;  ///< samples kept per latency stripe
  bool recordFeedback = true;  ///< measure executed launches for retrain()
  std::string retrainSpec = "forest:32";  ///< ml::makeClassifier spec
  std::uint64_t retrainSeed = 42;
  vcl::ExecMode execMode = vcl::ExecMode::TimeOnly;
  /// Online partition refinement (adapt::Refiner). Off by default: with
  /// refinement on, served labels may deliberately deviate from the pure
  /// model prediction on explored/refined traffic.
  bool refine = false;
  adapt::RefinerConfig refiner;
  /// Optional metrics registry. When set, the service registers readout
  /// callbacks for its existing striped counters, cache/refiner/interner
  /// counters and latency summary under `metricsPrefix` — the service
  /// counters stay the single source of truth; the registry samples them
  /// at exposition time (no double accounting). It also records request
  /// latency into an owned `<prefix>latency_ns` histogram. Everything
  /// under the prefix is removed in the destructor, so the registry must
  /// outlive the service.
  obs::Registry* metrics = nullptr;
  /// Namespace for this service's registry entries. Fleets override it
  /// per replica (e.g. "replica0.serve.") to keep entries distinct.
  std::string metricsPrefix = "serve.";
  /// Per-machine latency SLO tracking (obs::SloTracker). Off unless the
  /// config carries a target (slo.enabled()); when on, every served
  /// request also records into its machine's sliding-window tracker, and
  /// sloReport()/registerHealthRules() judge the window against the
  /// targets. With metrics set, per-machine burn-rate gauges register
  /// under `<metricsPrefix>slo.<machine>.*`.
  obs::SloConfig slo;
  /// SLO-driven admission breaker (load shedding). Off by default; the
  /// burn-rate arm additionally needs slo.enabled().
  BreakerConfig breaker;
};

class PartitionService {
public:
  explicit PartitionService(ServiceConfig config = {});
  ~PartitionService();  ///< shutdown(): waits for in-flight requests

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Register a machine with its deployed model. All machines must be
  /// registered before the first request is admitted (the machine map
  /// freezes then), and must share one partitioning-space size (same
  /// device count) so feedback records share a schema.
  void addMachine(const sim::MachineConfig& machine,
                  std::shared_ptr<const ml::Classifier> model);
  /// Convenience: load a model saved with ml::Classifier::saveFile().
  void addMachine(const sim::MachineConfig& machine,
                  const std::string& modelPath);

  /// call() wrapped in a future: the request is served on the calling
  /// thread and the returned future is already resolved. Execution
  /// faults are delivered through the future; an unknown machine or a
  /// submission after shutdown() throws tp::Error here.
  std::future<LaunchResponse> submit(LaunchRequest request);

  /// Serve one request on the calling thread (the pipeline above).
  LaunchResponse call(LaunchRequest request);

  /// The uncached reference path: extract features and ask the
  /// machine's current model directly. Served decisions always equal this
  /// (for the same model version).
  std::size_t predictLabel(const std::string& machine,
                           const runtime::Task& task) const;

  struct RetrainResult {
    std::uint64_t modelVersion = 0;  ///< cache generation after the bump
    std::size_t machinesRetrained = 0;
    std::size_t recordsUsed = 0;  ///< feedback records in the snapshot
  };
  /// Refresh every machine's model from the recorded traffic (machines
  /// without records keep their model), then invalidate the cache.
  RetrainResult retrain();

  // ---- fleet surface ------------------------------------------------------
  // Hooks for tp::fleet: replicated serving with gossiped refiner wins,
  // model fan-out and snapshot persistence. Each is safe to call
  // concurrently with traffic.

  /// Current cache/model generation.
  std::uint64_t modelVersion() const noexcept;

  struct DeployedModel {
    std::string machine;
    std::shared_ptr<const ml::Classifier> model;
  };
  /// The deployed model of every registered machine (name order), for
  /// snapshotting. The shared_ptrs alias the live models.
  std::vector<DeployedModel> deployedModels() const;

  /// Export the refiner's transferable state (empty when refinement is
  /// off). `refinedOnly` selects adopted wins (gossip) vs every tracked
  /// key (snapshots).
  std::vector<adapt::WinRecord> exportRefinedWins(bool refinedOnly = true) const;

  /// Merge win records from a peer replica (or a snapshot): stale-version
  /// records are rejected, accepted evidence merges into the refiner, and
  /// each adopted incumbent is written through into the decision cache so
  /// warm traffic serves it without a probe. With refinement off all
  /// records count as dropped.
  adapt::MergeResult mergeRemoteWins(const std::vector<adapt::WinRecord>& wins);

  /// The refiner's incumbent for a key at a model generation, addressed
  /// under the service's fingerprint scheme (test/introspection surface;
  /// untracked when refinement is off).
  adapt::Refiner::Incumbent refinedIncumbent(const adapt::RefineKey& key,
                                             std::uint64_t version) const;

  struct ModelUpdate {
    std::string machine;
    std::shared_ptr<const ml::Classifier> model;
  };
  /// Install externally trained models as generation `version` and sweep
  /// cached decisions of older generations. `version` must not be behind
  /// the current generation; installing AT the current generation drops
  /// every cached decision instead (the previous models' labels must not
  /// survive the swap as hits). Machines absent from `updates` keep
  /// their model but are stamped with the new generation (it is
  /// fleet-global). Used by fleet retrain fan-out and snapshot
  /// warm-start.
  void installModels(const std::vector<ModelUpdate>& updates,
                     std::uint64_t version);

  /// Consistent copy of the recorded feedback traffic; throws tp::Error
  /// before the first addMachine() (no schema yet).
  runtime::FeatureDatabase trafficSnapshot() const;

  /// Block until every admitted request has been answered.
  void drain();
  /// Stop admitting, then drain. Idempotent.
  void shutdown();

  ServiceStats stats() const;

  /// The machine's sliding-window SLO judgment (quantiles, burn rates,
  /// breached flag); a default-constructed Report when SLO tracking is
  /// disabled. Safe concurrently with traffic.
  obs::SloTracker::Report sloReport(const std::string& machine) const;

  /// Run one admission-breaker evaluation for `machine` right now
  /// (deterministic test hook; production evaluations ride every
  /// breaker.evalEvery-th admission). No-op unless config.breaker.enabled.
  void evaluateBreakerNow(const std::string& machine);
  /// Whether `machine`'s admission breaker is currently open (shedding).
  bool breakerOpen(const std::string& machine) const;

  /// Install this service's stock detector rules into `monitor`, named
  /// under metricsPrefix (so removeRulesByPrefix(metricsPrefix) unhooks
  /// them): latency_slo (Critical, aggregated over machines — a
  /// fleet-wide latency incident pages once, the firing names the worst
  /// burner), cache_hit_collapse, eviction_storm, probe_storm (with
  /// refinement on), lane_exhaustion, retrain_overrun and load_shed
  /// (with the breaker on). Thresholds are fixed; README.md lists them.
  /// Rate rules judge counter deltas since the previous evaluation. The
  /// closures capture `this`: stop the monitor (or remove the rules)
  /// before this service is destroyed.
  void registerHealthRules(obs::HealthMonitor& monitor);

  const runtime::PartitioningSpace& space(const std::string& machine) const;
  const DecisionCache& cache() const noexcept { return *cache_; }
  const common::PairInterner& interner() const noexcept { return *interner_; }
  /// nullptr unless config.refine is set.
  const adapt::Refiner* refiner() const noexcept { return refiner_.get(); }

  /// Persist the recorded traffic database as CSV.
  void saveTraffic(const std::string& path) const;

private:
  struct MachineState;

  MachineState& state(const std::string& name) const;
  /// Lock-free machine lookup once the map is frozen; nullptr before.
  /// Callers must have observed frozen_ == true (acquire).
  MachineState* stateFast(const std::string& name) const noexcept
      TP_LOCK_FREE_AUDITED(
          "machines_ is immutable once frozen_ is published (release in "
          "admit, acquire here); TSan: test_serve "
          "PartitionService.ConcurrentClientsGetConsistentDecisions");
  /// The feedback recorder after the freeze: the pointer was written by
  /// addMachine() under machinesMutex_ and published by the frozen_
  /// release store; post-freeze readers need no lock.
  FeedbackRecorder* feedbackPostFreeze() const noexcept
      TP_LOCK_FREE_AUDITED(
          "feedback_ is write-once before frozen_ is published; hot paths "
          "only read it after an acquire of frozen_; TSan: test_serve "
          "PartitionService.ConcurrentClientsGetConsistentDecisions") {
    return feedback_.get();
  }
  /// The full decision key of a launch at an explicit generation — the
  /// one place the (machine, program, quantized signature) layout is
  /// materialized on serving paths.
  DecisionKey fullKeyAt(const MachineState& ms, const runtime::Task& task,
                        std::uint64_t version) const;
  /// Hook this service's counters/summaries into config_.metrics under
  /// config_.metricsPrefix (constructor-only; callbacks capture `this`).
  void registerMetrics();
  /// Record one served request into the striped latency structures and
  /// the machine's SLO tracker (when configured).
  void recordLatency(MachineState& ms, double seconds) noexcept;
  std::size_t predictWithModel(const MachineState& ms,
                               const runtime::Task& task) const;
  /// Pipeline step 1 without the breaker: resolve the machine, freeze the
  /// machine map at the first admission, and run the lifecycle accounting
  /// (inFlight/accepting/submitted). Unknown machines and post-shutdown
  /// submissions throw with nothing counted.
  MachineState& admit(const std::string& machine);
  /// The rest of the pipeline for an admitted request whose latency clock
  /// started at `admitted`. Execution faults rethrow after the failed_
  /// accounting; every path ends the request's in-flight count.
  LaunchResponse serveAdmitted(MachineState& ms, const LaunchRequest& request,
                               obs::Clock::time_point admitted);
  /// Pipeline step 6: claim an inline lane and run finishDecided on it, or
  /// on a private context when every lane is busy. `fp` is null for
  /// launches the intern table could not hold. Returns whether a lane was
  /// claimed.
  bool executeOnLane(MachineState& ms, const runtime::Task& task,
                     LaunchResponse& response, const common::Fingerprint* fp);
  /// Execute the decided `response.label`, let the refiner observe the
  /// makespan (writing a measured win back into the cache), and account
  /// the machine load.
  void finishDecided(MachineState& ms, runtime::Scheduler& scheduler,
                     const runtime::Task& task, LaunchResponse& response,
                     const common::Fingerprint* fp);
  /// Amortized breaker evaluation on the admission path: bumps the
  /// machine's admission tick and runs evaluateBreaker() on every
  /// breaker.evalEvery-th admission.
  void maybeEvaluateBreaker(MachineState& ms);
  /// One breaker evaluation: judge the SLO burn rate and the machine's
  /// lane-exhaustion delta, advance the hysteresis, flip the shedding
  /// flag.
  void evaluateBreaker(MachineState& ms);
  /// Lane-exhausted requests summed over every machine.
  std::uint64_t laneExhaustedTotal() const TP_EXCLUDES(machinesMutex_);
  /// Machines whose admission breaker is open (shedding).
  std::size_t openBreakers() const TP_EXCLUDES(machinesMutex_);
  void requestDone() noexcept;

  ServiceConfig config_;
  std::unique_ptr<common::PairInterner> interner_;
  std::unique_ptr<DecisionCache> cache_;
  std::unique_ptr<adapt::Refiner> refiner_;  ///< set when config_.refine

  /// Guards machines_ and feedback_ during registration; once frozen_ is
  /// published both are immutable and the audited feedbackPostFreeze()/
  /// stateFast() accessors read them lock-free.
  mutable common::Mutex machinesMutex_;
  std::map<std::string, std::unique_ptr<MachineState>> machines_
      TP_GUARDED_BY(machinesMutex_);
  std::unique_ptr<FeedbackRecorder> feedback_ TP_GUARDED_BY(machinesMutex_);
  /// Set (under machinesMutex_) by the first admission; from then on
  /// machines_ is immutable and read without the mutex.
  std::atomic<bool> frozen_{false};

  std::atomic<bool> accepting_{true};
  std::atomic<std::uint64_t> inFlight_{0};  ///< atomic-wait on 0 in drain()
  /// Set once mergeRemoteWins() has written remote incumbents through
  /// into the cache: such keys can be served warm without ever having
  /// missed locally, so from then on cache hits also run the feedback
  /// recorder's dedup (one mutex probe) instead of skipping it — the
  /// local traffic database keeps capturing every launch this service
  /// serves. Never set outside fleet/snapshot use: the plain warm path
  /// stays recorder-free.
  std::atomic<bool> feedbackBackfill_{false};

  common::StripedCounter submitted_;
  common::StripedCounter completed_;
  common::StripedCounter failed_;
  common::StripedCounter inlineHits_;
  /// Requests fast-failed by an open admission breaker (they count as
  /// completed too — every admitted request is answered exactly once).
  common::StripedCounter shed_;
  /// Closed-to-open breaker transitions across all machines.
  std::atomic<std::uint64_t> breakerTrips_{0};
  std::atomic<std::uint64_t> retrains_{0};
  /// Wall seconds of the most recent retrain() pass (last-write-wins;
  /// the retrain_overrun detector's input).
  std::atomic<double> lastRetrainSeconds_{0.0};
  LatencyRecorder latency_;
  /// Owned by config_.metrics (created in registerMetrics, destroyed by
  /// the destructor's removeByPrefix); nullptr when metrics are off.
  obs::Histogram* obsLatency_ = nullptr;
};

}  // namespace tp::serve

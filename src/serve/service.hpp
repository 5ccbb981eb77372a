#pragma once

// PartitionService — the trained predictor as a long-lived, thread-safe
// serving component.
//
// Clients on any thread call() LaunchRequests; the service
// answers "how should this task be split?" and executes the split on the
// target machine's simulated devices. Every request — cache hit, miss,
// refiner probe — runs one pipeline on the caller's thread. There is no
// request queue and no worker thread:
//
//   1. admit: resolve the machine, count the request in flight on the
//      caller's stripe of a striped latch (common::StripedLatch), and
//      consult the admission breaker (an open breaker answers `shed`
//      right here);
//   2. intern the (machine, program) pair (common::PairInterner),
//      quantize the launch signature once into per-thread storage, and
//      fold both into a 128-bit fingerprint, the one address of the
//      launch in the cache and the refiner; no key string is built before
//      a miss, and a miss builds its runtime::LaunchKey at most once (the
//      cache insert, the refiner and the feedback recorder share it);
//   3. probe the lock-free fingerprinted decision cache (serve/cache.hpp);
//   4. on a miss, extract features, ask the machine's model and insert
//      the decision into the cache;
//   5. with refinement on (config.refine), let the online refiner
//      (adapt/refiner.hpp), addressed by the same fingerprint, keep the
//      label, exploit an adopted win or probe a neighbour;
//   6. execute the split on the machine's one shared vcl::Context +
//      runtime::Scheduler. Scheduler::execute keeps the simulated
//      timeline on its own stack frame, so concurrent requests share
//      both without a lock and never see each other's clocks;
//   7. record feedback (a miss only: a lock-free dedup probe of the
//      recorder's published table), latency and stats, then leave the
//      in-flight stripe step 1 entered.
//
// Contention: a hit that is not a probe takes no lock and writes no
// cache line another client writes, unless two clients share a stripe.
// What a hit writes:
//   - its stripe of the in-flight latch, on admission and on leaving.
//     leave() notifies only while drain() waits: a libstdc++ atomic
//     notify writes a process-wide waiter table (common/striped.hpp);
//   - its stripes of the submitted, completed and inline-hit counters
//     and of the cache's lookup counters;
//   - its stripe of the machine's load stats, device sums included
//     (serve/stats.hpp keeps them inside the stripe's own lines);
//   - its stripes of the latency reservoir, the latency histogram and
//     the machine's SLO window (a seqlock per stripe);
//   - thread-local storage (the quantized signature, the trace ring) and
//     its own response.
// Shared lines are only read: the machine map, the intern table, the
// cache slot, the generation. Two shared writes are rare: the cache
// slot's CLOCK bit, set only after a sweep cleared it, and an SLO
// sub-window's rotation, once per slice. An enabled admission breaker
// adds one shared relaxed bump per admission (its evaluation tick).
// call() borrows its request, so the caller, not the service, releases
// the Task and with it the buffer and feature refcounts that every
// client sending the same launch writes. A miss adds the model's reader
// lock (predict) and the feedback probe, which locks only on a first
// sighting. With refinement on, steps 5 and 6 take the refiner's shard
// mutex. Allocation: a hit allocates at most 2 times and a steady-state
// miss at most 5 (test_alloc_budget pins both) — the response payload
// (partitioning copy, per-device execution report) and, on a miss, the
// key and feature vector.
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
// call() throws every failure to its caller: tp::Error for an unknown
// machine or a request after shutdown(), and any execution fault after
// the request was counted. Machine registration freezes at the first
// admitted request: after that the machine map is read without locking.
// drain() waits, stripe by stripe, until every request admitted before
// it was called has been answered; shutdown() closes admission first, so
// none is left.

#include <atomic>
#include <cstdint>
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
/// error budget past burnRateCeiling, new requests for it are shed —
/// answered immediately with LaunchResponse::shed set, nothing decided
/// or executed — until the window recovers. The burn rate is its only
/// input, so an enabled breaker needs ServiceConfig::slo.enabled(); the
/// PartitionService constructor throws tp::Error otherwise. Evaluation
/// is amortized (every evalEvery-th admission, single winner via CAS
/// claim) so the warm path pays one relaxed counter bump and one relaxed
/// flag load.
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

/// Partitioning-space step granularity of every served machine (10 =
/// 10% steps).
inline constexpr int kDivisions = 10;
/// Significant digits kept when launch features are quantized into
/// cache keys and feedback signatures.
inline constexpr int kCacheRoundDigits = 6;
/// Seed of every retrain, the service's own and a fleet coordinator's,
/// so the same traffic trains the same model.
inline constexpr std::uint64_t kRetrainSeed = 42;

struct ServiceConfig {
  std::size_t cacheCapacity = 1024;  ///< rounded up to a power of two
  /// Distinct (machine, program) pairs the intern table can hold; pairs
  /// beyond it serve uncached/unrefined (the model path still answers).
  std::size_t internCapacity = 4096;
  bool recordFeedback = true;  ///< measure executed launches for retrain()
  /// ml::makeClassifier spec; a fleet replica requires a deployable one
  /// (ml::isDeployableSpec).
  std::string retrainSpec = "forest:32";
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
  /// SLO-driven admission breaker (load shedding). Off by default; when
  /// on, slo.enabled() must hold.
  BreakerConfig breaker;
};

class PartitionService {
public:
  /// Throws tp::Error for an enabled breaker without an enabled SLO.
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

  /// Serve one request on the calling thread (the pipeline above). The
  /// request is borrowed: the service keeps no copy, share or reference
  /// of it past the return, so releasing it (the Task's buffer and
  /// feature refcounts, which every client sending the same launch
  /// writes) is the caller's work, outside call().
  LaunchResponse call(const LaunchRequest& request);

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

  /// The refiner's incumbent for a launch at a model generation, addressed
  /// the way the request path addresses it (test/introspection surface).
  /// Read-only: a pair the intern table has never seen is reported
  /// untracked without being interned, as is everything when refinement
  /// is off.
  adapt::Refiner::Incumbent refinedIncumbent(const runtime::LaunchKey& key,
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

  /// Block until every request admitted before the call has been
  /// answered.
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
  /// refinement on), retrain_overrun and load_shed (with the breaker
  /// on). Thresholds are fixed; README.md lists them.
  /// Rate rules judge counter deltas since the previous evaluation. The
  /// closures capture `this`: stop the monitor (or remove the rules)
  /// before this service is destroyed.
  void registerHealthRules(obs::HealthMonitor& monitor);

  const runtime::PartitioningSpace& space(const std::string& machine) const;
  const DecisionCache& cache() const noexcept { return *cache_; }
  const common::PairInterner& interner() const noexcept { return *interner_; }
  /// nullptr unless config.refine is set.
  const adapt::Refiner* refiner() const noexcept { return refiner_.get(); }

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
  /// Hook this service's counters/summaries into config_.metrics under
  /// config_.metricsPrefix (constructor-only; callbacks capture `this`).
  void registerMetrics();
  /// Record one served request, admitted at `admittedTicks`, into the
  /// striped latency structures and the machine's SLO tracker (when
  /// configured). Reads the clock once: the same tick ends the sample and
  /// places it in the SLO window.
  void recordLatency(MachineState& ms, std::uint64_t admittedTicks) noexcept;
  std::size_t predictWithModel(const MachineState& ms,
                               const runtime::Task& task) const;
  /// An admitted request: its machine and the in-flight stripe it was
  /// counted on (the request leaves that same stripe).
  struct Admission {
    MachineState& state;
    std::size_t stripe;
  };
  /// Pipeline step 1 without the breaker: resolve the machine, freeze the
  /// machine map at the first admission, and run the lifecycle accounting
  /// (inFlight/accepting/submitted). Unknown machines and post-shutdown
  /// submissions throw with nothing counted.
  Admission admit(const std::string& machine);
  /// The rest of the pipeline for an admitted request whose latency clock
  /// started at `admittedTicks` (obs::nowTicks()). Execution faults
  /// rethrow after the failed_ accounting; every path ends the request's
  /// in-flight count.
  LaunchResponse serveAdmitted(Admission admission,
                               const LaunchRequest& request,
                               std::uint64_t admittedTicks);
  /// Amortized breaker evaluation on the admission path: bumps the
  /// machine's admission tick and runs evaluateBreaker() on every
  /// breaker.evalEvery-th admission.
  void maybeEvaluateBreaker(MachineState& ms);
  /// One breaker evaluation: judge the SLO burn rate, advance the
  /// hysteresis, flip the shedding flag.
  void evaluateBreaker(MachineState& ms);
  /// Machines whose admission breaker is open (shedding).
  std::size_t openBreakers() const TP_EXCLUDES(machinesMutex_);

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
  /// Admitted, unanswered requests, one padded counter per thread stripe:
  /// a request writes only its own stripe's line; drain() waits on each.
  common::StripedLatch inFlight_;
  /// Set once mergeRemoteWins() has written remote incumbents through
  /// into the cache: such keys can be served warm without ever having
  /// missed locally, so from then on cache hits also run the feedback
  /// recorder's dedup (a lock-free probe, after building the launch
  /// key) instead of skipping it — the local traffic database keeps
  /// capturing every launch this service serves. Never set outside
  /// fleet/snapshot use: the plain warm path stays recorder-free.
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

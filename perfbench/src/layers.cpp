#include "layers.hpp"

#include <algorithm>
#include <memory>

#include "common/intern.hpp"
#include "common/stats.hpp"
#include "features/runtime_features.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "ocl/context.hpp"
#include "runtime/scheduler.hpp"
#include "serve/cache.hpp"
#include "serve/feedback.hpp"
#include "serve/stats.hpp"

namespace perfbench {

using namespace tp;

namespace {

/// Median cost of each stage of the request path, measured in isolation.
struct StageCosts {
  double fingerprintNs = 0.0;  ///< PairInterner::find + launchFingerprint
  double probeNs = 0.0;        ///< DecisionCache::lookup (hit)
  double insertNs = 0.0;       ///< DecisionCache::insert (refresh)
  double featuresNs = 0.0;     ///< features::combinedFeatureVector
  double predictNs = 0.0;      ///< ml::Classifier::predict
  double executeNs = 0.0;      ///< Scheduler::execute, private TimeOnly
  double histogramNs = 0.0;    ///< obs::Histogram::record
  double sloNs = 0.0;          ///< obs::SloTracker::record
  double latencyRecordNs = 0.0;  ///< serve::LatencyRecorder::add
  double feedbackDedupNs = 0.0;  ///< FeedbackRecorder::record, seen launch
};

/// Keeps stage results observable so the timed loops are not elided.
volatile std::uint64_t gSink = 0;

constexpr int kStageReps = 5;

/// Median over kStageReps of the mean ns per op of `ops` calls of op(i).
/// Each repetition is one "stage.<name>" span (arg: op count).
template <typename Op>
double stageNs(const std::string& name, std::size_t ops, Op&& op) {
  auto& rec = obs::traceRecorder();
  const std::uint32_t nameId = rec.internName("stage." + name);
  std::vector<double> reps;
  std::uint64_t sink = 0;
  for (int r = 0; r < kStageReps; ++r) {
    const std::uint64_t t0 = obs::nowTicks();
    for (std::size_t i = 0; i < ops; ++i) sink += op(i);
    const std::uint64_t t1 = obs::nowTicks();
    rec.record(nameId, t0, t1, ops);
    reps.push_back(static_cast<double>(t1 - t0) / static_cast<double>(ops));
  }
  gSink = gSink + sink;
  return common::median(reps);
}

StageCosts measureStages(const Fixture& fx) {
  StageCosts costs;
  const std::size_t n = fx.launches.size();
  auto task = [&](std::size_t i) -> const runtime::Task& {
    return fx.tasks[fx.launches[i % n].task];
  };
  auto machineName = [&](std::size_t i) -> const std::string& {
    return fx.machines[fx.launches[i % n].machine].name;
  };

  common::PairInterner interner(4096);
  std::vector<common::Fingerprint> fps;
  for (std::size_t i = 0; i < n; ++i) {
    const auto pair = interner.intern(machineName(i), task(i).programName,
                                      task(i).kernelName);
    fps.push_back(serve::launchFingerprint(pair, task(i), 6));
  }
  costs.fingerprintNs = stageNs("fingerprint", 200 * n, [&](std::size_t i) {
    const auto pair =
        interner.find(machineName(i), task(i).programName, task(i).kernelName);
    return serve::launchFingerprint(pair, task(i), 6).lo;
  });

  serve::DecisionCache cache(1024, 6);
  std::vector<serve::DecisionKey> keys;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(cache.makeKey(machineName(i), serve::programKey(task(i)),
                                 serve::launchSignature(task(i))));
    cache.insert(fps[i], keys[i], i % fx.space.size());
  }
  costs.probeNs = stageNs("cache_probe", 200 * n, [&](std::size_t i) {
    return cache.lookup(fps[i % n], cache.version()).value_or(0);
  });
  costs.insertNs = stageNs("cache_insert", 50 * n, [&](std::size_t i) {
    cache.insert(fps[i % n], keys[i % n], (i % n) % fx.space.size());
    return std::size_t{1};
  });

  std::vector<std::vector<double>> xs;
  costs.featuresNs = stageNs("features", 20 * n, [&](std::size_t i) {
    const auto x =
        features::combinedFeatureVector(task(i).features, task(i).launchInfo());
    return x.size();
  });
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(features::combinedFeatureVector(task(i).features,
                                                 task(i).launchInfo()));
  }
  std::vector<std::size_t> labels(n);
  costs.predictNs = stageNs("predict", 10 * n, [&](std::size_t i) {
    const auto label = static_cast<std::size_t>(
        fx.models[fx.launches[i % n].machine]->predict(xs[i % n]));
    labels[i % n] = label;
    return label;
  });

  std::vector<std::unique_ptr<vcl::Context>> contexts;
  std::vector<std::unique_ptr<runtime::Scheduler>> schedulers;
  for (const auto& machine : fx.machines) {
    contexts.push_back(std::make_unique<vcl::Context>(
        machine, vcl::ExecMode::TimeOnly, nullptr));
    schedulers.push_back(
        std::make_unique<runtime::Scheduler>(*contexts.back()));
  }
  costs.executeNs = stageNs("execute", 20 * n, [&](std::size_t i) {
    const auto result = schedulers[fx.launches[i % n].machine]->execute(
        task(i), fx.space.at(labels[i % n]));
    return result.devices.size();
  });

  obs::Histogram histogram;
  costs.histogramNs = stageNs("histogram_record", 200 * n, [&](std::size_t i) {
    histogram.record(1000 + i % 4096);
    return std::size_t{1};
  });
  obs::SloConfig sloConfig;
  sloConfig.targetP99Seconds = 1e-3;
  obs::SloTracker slo(sloConfig);
  costs.sloNs = stageNs("slo_record", 200 * n, [&](std::size_t i) {
    slo.record(1000 + i % 4096);
    return std::size_t{1};
  });
  serve::LatencyRecorder latency;
  costs.latencyRecordNs =
      stageNs("latency_record", 200 * n, [&](std::size_t i) {
        latency.add(1e-6 * static_cast<double>(1 + i % 4096));
        return std::size_t{1};
      });

  // Dedup of an already recorded launch (the first record of each of
  // these few launches runs a full sweep and is not timed).
  serve::FeedbackRecorder feedback(fx.space.size(), 6);
  constexpr std::size_t kDedupLaunches = 4;
  for (std::size_t i = 0; i < kDedupLaunches; ++i) {
    feedback.record(task(i), fx.machines[fx.launches[i].machine], fx.space,
                    "n");
  }
  costs.feedbackDedupNs =
      stageNs("feedback_dedup", 20000, [&](std::size_t i) {
        const std::size_t l = i % kDedupLaunches;
        return static_cast<std::size_t>(feedback.record(
            task(l), fx.machines[fx.launches[l].machine], fx.space, "n"));
      });
  return costs;
}

/// Durations (ns) of spans named `name` that began in [begin, end].
std::vector<double> spanNs(const obs::TraceRecorder::Snapshot& snap,
                           const std::string& name, std::uint64_t begin,
                           std::uint64_t end) {
  std::vector<double> out;
  const auto it = std::find(snap.names.begin(), snap.names.end(), name);
  if (it == snap.names.end()) return out;
  const auto id = static_cast<std::uint32_t>(it - snap.names.begin());
  for (const auto& thread : snap.threads) {
    for (const auto& event : thread.events) {
      if (event.nameId == id && event.end != 0 && event.begin >= begin &&
          event.begin <= end) {
        out.push_back(static_cast<double>(event.end - event.begin));
      }
    }
  }
  return out;
}

double medianOr0(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : common::median(xs);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// retrain() calls every traced pass of a retraining workload makes at
/// least, so that serve.retrain_ms is always measured.
constexpr std::size_t kTracedRetrains = 3;

}  // namespace

std::size_t tracedRequests(const WorkloadSpec& spec, bool named,
                           const TracedOptions& options) {
  std::size_t n = options.requests;
  if (n == 0) {
    n = named ? requestsPerClient(spec, options.seconds) / 2
              : requestsPerClient(spec, 1) / 10;
  }
  if (spec.retrainEvery != 0) {
    n = std::max(n, kTracedRetrains * spec.retrainEvery + 1);
  }
  return std::max<std::size_t>(1, n);
}

std::vector<Metric> tracedRun(const Fixture& fx, const AnswerKey& key,
                              const WorkloadSpec& named,
                              const TracedOptions& options, bool& correct,
                              std::uint64_t& attempted, std::uint64_t& failed) {
  auto& recorder = obs::traceRecorder();
  recorder.enable();
  const StageCosts stages = measureStages(fx);

  struct Phase {
    std::string workload;
    RunResult result;
  };
  std::vector<Phase> phases;
  auto account = [&](const RunResult& r, std::uint64_t warmupMismatches) {
    attempted += r.attempted;
    failed += r.failed + r.shed;
    if (!r.correct() || warmupMismatches != 0) correct = false;
  };
  for (const auto& listed : workloads()) {
    const bool isNamed = listed.name == named.name;
    const WorkloadSpec& spec = isNamed ? named : listed;
    auto dep = deploy(fx, key, spec);
    const auto draws = makeDraws(fx, spec, options.seed,
                                 tracedRequests(spec, isNamed, options));
    phases.push_back({spec.name, runTraffic(*dep, fx, key, spec, draws, true)});
    account(phases.back().result, dep->warmupMismatches);
  }
  recorder.disable();
  const auto snap = recorder.snapshot();
  if (!options.tracePath.empty()) {
    recorder.writeChromeTraceFile(options.tracePath);
  }

  // The named workload once more, untraced and the same size: the
  // tracing overhead and the untraced tail.
  RunResult untraced;
  {
    auto dep = deploy(fx, key, named);
    const auto draws = makeDraws(fx, named, options.seed,
                                 tracedRequests(named, true, options));
    untraced = runTraffic(*dep, fx, key, named, draws, false);
    account(untraced, dep->warmupMismatches);
  }

  auto phase = [&](const std::string& name) -> const RunResult& {
    for (const auto& p : phases) {
      if (p.workload == name) return p.result;
    }
    return phases.front().result;
  };
  auto spans = [&](const std::string& span, const RunResult& r) {
    return medianOr0(spanNs(snap, span, r.beginTicks, r.endTicks));
  };
  const RunResult& warm = phase("warm_hits");
  const RunResult& miss = phase("miss_stream");
  const RunResult& adapt = phase("adapt_churn");
  const RunResult& mine = phase(named.name);

  const double callHit = spans("serve.call_hit", warm);
  const double callMiss = spans("serve.call_miss", miss);
  const double hitStages = stages.fingerprintNs + stages.probeNs +
                           stages.executeNs + stages.histogramNs +
                           stages.sloNs + stages.latencyRecordNs;
  const double missStages = hitStages + stages.featuresNs + stages.predictNs +
                            stages.insertNs + stages.feedbackDedupNs;

  const auto& wb = warm.before;
  const auto& wa = warm.after;
  const auto& mb = miss.before;
  const auto& ma = miss.after;
  const std::uint64_t queued =
      (ma.requestsCompleted - mb.requestsCompleted) -
      (ma.requestsInline - mb.requestsInline) -
      (ma.requestsShed - mb.requestsShed);
  const std::uint32_t p99 = quantileNs(untraced.latencyNs, 0.99);
  const std::uint32_t p999 = quantileNs(untraced.latencyNs, 0.999);
  auto beyond = [&](std::uint32_t ns) {
    return static_cast<double>(std::count_if(
        untraced.latencyNs.begin(), untraced.latencyNs.end(),
        [ns](std::uint32_t v) { return v > ns; }));
  };
  const double tracedRps = common::median(mine.roundReqPerSec);
  const double untracedRps = common::median(untraced.roundReqPerSec);

  std::vector<Metric> m = {
      {"serve.call_hit_ns", callHit, "ns"},
      {"serve.call_miss_ns", callMiss, "ns"},
      {"serve.call_probe_ns", spans("serve.call_probe", adapt), "ns"},
      {"serve.call_p99_us", static_cast<double>(p99) / 1e3, "us"},
      {"serve.call_p99_beyond", beyond(p99), "count"},
      {"serve.call_p999_us", static_cast<double>(p999) / 1e3, "us"},
      {"serve.call_p999_beyond", beyond(p999), "count"},
      {"serve.request_build_ns", spans("bench.request_build", warm), "ns"},
      {"serve.unexplained_hit_ns", callHit - hitStages, "ns"},
      {"serve.unexplained_miss_ns", callMiss - missStages, "ns"},
      {"serve.inline_share",
       ratio(wa.requestsInline - wb.requestsInline,
             wa.requestsCompleted - wb.requestsCompleted), "ratio"},
      {"serve.lane_exhausted_per_req",
       ratio(wa.inlineLaneExhausted - wb.inlineLaneExhausted,
             wa.requestsSubmitted - wb.requestsSubmitted), "ratio"},
      {"serve.mean_batch", ratio(queued, ma.batches - mb.batches), "count"},
      {"serve.max_batch", static_cast<double>(ma.maxBatch), "count"},
      {"serve.retrain_ms", 1e3 * medianOr0(adapt.retrainSeconds), "ms"},
      {"serve.latency_record_ns", stages.latencyRecordNs, "ns"},
      {"serve.feedback_dedup_ns", stages.feedbackDedupNs, "ns"},
      {"cache.hit_rate",
       ratio(ma.cache.hits - mb.cache.hits,
             ma.cache.lookups - mb.cache.lookups),
       "ratio"},
      {"cache.evictions_per_lookup",
       ratio(ma.cache.evictions - mb.cache.evictions,
             ma.cache.lookups - mb.cache.lookups), "ratio"},
      {"cache.probe_ns", stages.probeNs, "ns"},
      {"cache.insert_ns", stages.insertNs, "ns"},
      {"common.fingerprint_ns", stages.fingerprintNs, "ns"},
      {"common.intern_rejections",
       static_cast<double>(mine.after.internRejections), "count"},
      {"features.vector_ns", stages.featuresNs, "ns"},
      {"ml.predict_ns", stages.predictNs, "ns"},
      {"ml.label_accuracy", ratio(untraced.oracleLabels, untraced.succeeded),
       "ratio"},
      {"ml.train_ms", 1e3 * fx.trainSeconds, "ms"},
      {"runtime.execute_ns", stages.executeNs, "ns"},
      {"runtime.measure_launch_us",
       1e6 * fx.sweepSeconds / static_cast<double>(fx.sweepLaunches), "us"},
      {"runtime.sweep_s", fx.sweepSeconds, "s"},
      {"suite.make_s", fx.makeSeconds, "s"},
      {"suite.input_mb", fx.inputBytes / 1e6, "MB"},
      {"adapt.probe_share", ratio(adapt.explored, adapt.succeeded), "ratio"},
      {"adapt.refined_share", ratio(adapt.refined, adapt.succeeded), "ratio"},
      {"adapt.wins",
       static_cast<double>(adapt.after.refiner.wins -
                           adapt.before.refiner.wins),
       "count"},
      {"obs.slo_record_ns", stages.sloNs, "ns"},
      {"obs.histogram_record_ns", stages.histogramNs, "ns"},
      {"trace.overhead_req_per_s", untracedRps - tracedRps, "1/s"},
      {"trace.spans", static_cast<double>(snap.totalEvents), "count"},
      {"trace.dropped", static_cast<double>(snap.totalDropped), "count"},
  };
  return m;
}

}  // namespace perfbench

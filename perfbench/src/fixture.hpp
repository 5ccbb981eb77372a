#pragma once

// Deployment set-up shared by every workload: the suite instances served
// as traffic, the oracle sweep that labels them, and the per-machine
// deployment models trained on the other half of each size ladder.
//
// Each suite program has a six-rung problem-size ladder. Rungs 0, 2 and 4
// are swept and train the models; rungs 1, 3 and 5 are the served
// launches, so every launch the service answers is one its model never
// saw (23 programs x 3 sizes x 2 machines = 138 launches). The sweep of a
// served launch is its answer key: times[label] is the makespan the
// service must report for that label, and the best, CPU-only and
// single-GPU entries are the references for quality.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ml/classifier.hpp"
#include "runtime/database.hpp"
#include "runtime/partitioning.hpp"
#include "runtime/task.hpp"
#include "sim/machine.hpp"

namespace perfbench {

/// One (program size, machine) pair the service is asked about.
struct Launch {
  std::size_t task = 0;     ///< index into Fixture::tasks
  std::size_t machine = 0;  ///< index into Fixture::machines
  tp::runtime::LaunchRecord record;  ///< the sweep: times per label
};

struct Fixture {
  std::vector<tp::sim::MachineConfig> machines;
  tp::runtime::PartitioningSpace space{1, 10};
  std::vector<tp::runtime::Task> tasks;  ///< served program sizes
  std::vector<Launch> launches;          ///< tasks x machines
  std::vector<std::shared_ptr<const tp::ml::Classifier>> models;

  // Set-up layer costs (per-layer metrics).
  double makeSeconds = 0.0;   ///< suite instance construction
  double sweepSeconds = 0.0;  ///< runtime::measureLaunch, every rung
  std::size_t sweepLaunches = 0;
  double trainSeconds = 0.0;  ///< deployment models, both machines
  double inputBytes = 0.0;    ///< buffers held by the served tasks
};

/// Model spec of the deployment models (and of the service's retrain).
inline const char* const kModelSpec = "forest:32";

/// Build the fixture: instances, sweep, models. Deterministic.
Fixture buildFixture();

}  // namespace perfbench

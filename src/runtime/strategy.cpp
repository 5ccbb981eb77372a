#include "runtime/strategy.hpp"

namespace tp::runtime {

std::size_t oracleSearch(const Task& task, const sim::MachineConfig& machine,
                         const PartitioningSpace& space,
                         std::vector<double>* timings) {
  // A TimeOnly context of its own: the search only costs each label and
  // must never run the kernel natively, whatever the caller's mode.
  vcl::Context probe(machine, vcl::ExecMode::TimeOnly, nullptr);
  Scheduler scheduler(probe);

  std::size_t best = 0;
  double bestTime = -1.0;
  if (timings != nullptr) timings->assign(space.size(), 0.0);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const double t = scheduler.execute(task, space.at(i)).makespan;
    if (timings != nullptr) (*timings)[i] = t;
    if (bestTime < 0.0 || t < bestTime) {
      bestTime = t;
      best = i;
    }
  }
  return best;
}

}  // namespace tp::runtime

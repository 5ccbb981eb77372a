#pragma once

// vcl::Context — one per (machine, execution mode) pair. Owns the command
// queue of every device of the machine. The queues hold no clock, so one
// context serves any number of concurrent callers.

#include <memory>
#include <vector>

#include "ocl/queue.hpp"
#include "sim/machine.hpp"

namespace tp::vcl {

class Context {
public:
  Context(sim::MachineConfig machine, ExecMode mode,
          common::ThreadPool* pool = &common::globalThreadPool())
      : machine_(std::move(machine)), mode_(mode) {
    queues_.reserve(machine_.devices.size());
    for (const auto& d : machine_.devices) {
      queues_.push_back(std::make_unique<CommandQueue>(d, mode, pool));
    }
  }

  const sim::MachineConfig& machine() const noexcept { return machine_; }
  ExecMode mode() const noexcept { return mode_; }
  std::size_t numDevices() const noexcept { return queues_.size(); }

  const CommandQueue& queue(std::size_t device) const {
    TP_ASSERT(device < queues_.size());
    return *queues_[device];
  }

private:
  sim::MachineConfig machine_;
  ExecMode mode_;
  std::vector<std::unique_ptr<CommandQueue>> queues_;
};

}  // namespace tp::vcl

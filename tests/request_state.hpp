#pragma once

// What a borrowed serve::LaunchRequest must still read after call()
// returns: every field, and the share counts of its buffers and compiled
// features. Shared by the PartitionService and Fleet borrow tests.

#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "serve/request.hpp"

namespace tp::testing_support {

struct RequestState {
  std::string machine;
  std::string sizeLabel;
  std::string programName;
  std::string kernelName;
  std::size_t globalSize = 0;
  std::size_t localSize = 0;
  std::map<std::string, double> sizeBindings;
  double transferScale = 0.0;
  long featureShares = 0;
  /// Each buffer argument's address and use_count(), in argument order.
  std::vector<std::pair<const vcl::Buffer*, long>> buffers;
  std::vector<double> scalars;  ///< the int and float arguments

  bool operator==(const RequestState&) const = default;
};

inline RequestState requestState(const serve::LaunchRequest& request) {
  const runtime::Task& task = request.task;
  RequestState s{request.machine,        request.sizeLabel,
                 task.programName,       task.kernelName,
                 task.globalSize,        task.localSize,
                 task.sizeBindings,      task.transferScale,
                 task.features.shareCount(), {}, {}};
  for (const runtime::TaskArg& arg : task.args) {
    if (const auto* b = std::get_if<runtime::BufferArg>(&arg)) {
      s.buffers.emplace_back(b->buffer.get(), b->buffer.use_count());
    } else if (const auto* i = std::get_if<int>(&arg)) {
      s.scalars.push_back(*i);
    } else {
      s.scalars.push_back(std::get<float>(arg));
    }
  }
  return s;
}

}  // namespace tp::testing_support

#include "runtime/task.hpp"

#include "common/error.hpp"

namespace tp::runtime {

double Task::totalBytesIn() const {
  double bytes = 0.0;
  for (const auto& arg : args) {
    const auto* b = std::get_if<BufferArg>(&arg);
    if (b == nullptr || !b->isRead) continue;
    bytes += static_cast<double>(b->buffer->bytes());
  }
  return bytes * transferScale;
}

double Task::totalBytesOut() const {
  double bytes = 0.0;
  for (const auto& arg : args) {
    const auto* b = std::get_if<BufferArg>(&arg);
    if (b == nullptr || !b->isWritten) continue;
    bytes += static_cast<double>(b->buffer->bytes());
  }
  return bytes * transferScale;
}

features::LaunchInfo Task::launchInfo() const& {
  features::LaunchInfo info;
  info.sizeBindings = &sizeBindings;
  info.globalSize = globalSize;
  info.localSize = localSize;
  info.bytesToDevice = totalBytesIn();
  info.bytesFromDevice = totalBytesOut();
  return info;
}

void Task::validate() const {
  TP_REQUIRE(globalSize > 0, "Task: empty NDRange");
  TP_REQUIRE(localSize > 0, "Task: zero work-group size");
  TP_REQUIRE(globalSize % localSize == 0,
             "Task: global size " << globalSize
                                  << " not a multiple of work-group size "
                                  << localSize);
  for (const auto& arg : args) {
    const auto* b = std::get_if<BufferArg>(&arg);
    if (b == nullptr) continue;
    TP_REQUIRE(b->buffer != nullptr, "Task: null buffer argument");
    if (b->access == features::AccessKind::Split) {
      TP_REQUIRE(b->blockElems >= 1, "Task: split buffer with zero block");
      TP_REQUIRE(
          b->buffer->size() >= globalSize * b->blockElems,
          "Task: split buffer '" << b->buffer->size() << "' smaller than "
                                 << globalSize << " items x "
                                 << b->blockElems << " elements");
    }
  }
}

}  // namespace tp::runtime

#include "runtime/scheduler.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace tp::runtime {

using features::AccessKind;

ExecutionResult Scheduler::execute(const Task& task,
                                   const Partitioning& p) const {
  task.validate();
  TP_REQUIRE(p.numDevices() == context_.numDevices(),
             "partitioning has " << p.numDevices() << " devices, machine has "
                                 << context_.numDevices());
  TP_REQUIRE(p.activeDevices() > 0, "partitioning assigns no work");

  const std::size_t totalGroups = task.numGroups();
  // Exact integer apportioning (runtime/partitioning.cpp): the counts sum
  // to totalGroups and zero-share devices receive nothing. Device d runs
  // the contiguous groups [begin, begin + groups[d]), in device order.
  PerDevice<std::size_t> groups(p.numDevices());
  apportion(totalGroups, p, groups);
  // The kernel's counts under this launch, shared by every device.
  const features::LaunchCounts counts =
      task.features.evaluate(task.sizeBindings, task.globalSize);
  const bool compute = context_.mode() == vcl::ExecMode::Compute;

  // Private full-size scratch copies for MergeSum buffers, per device.
  // scratch[argIndex][device] — only allocated for active writers.
  struct MergeScratch {
    std::size_t argIndex;
    std::vector<std::vector<std::byte>> perDevice;  // indexed by device
    double bytes = 0.0;
    int writers = 0;
  };
  std::vector<MergeScratch> merges;
  if (compute) {
    for (std::size_t a = 0; a < task.args.size(); ++a) {
      const auto* b = std::get_if<BufferArg>(&task.args[a]);
      if (b != nullptr && b->access == AccessKind::MergeSum) {
        MergeScratch m;
        m.argIndex = a;
        m.perDevice.resize(context_.numDevices());
        m.bytes = static_cast<double>(b->buffer->bytes());
        merges.push_back(std::move(m));
      }
    }
  }

  ExecutionResult result;
  result.devices.reserve(static_cast<std::size_t>(p.activeDevices()));
  double mergeBytes = 0.0;
  int mergeWriters = 0;

  vcl::WorkGroupCtx ctxTemplate;
  ctxTemplate.localSize = task.localSize;
  ctxTemplate.globalSize = task.globalSize;
  ctxTemplate.numGroups = totalGroups;

  std::size_t gEnd = 0;
  for (std::size_t d = 0; d < context_.numDevices(); ++d) {
    const std::size_t gBegin = gEnd;
    gEnd += groups[d];
    if (gBegin == gEnd) continue;
    const std::size_t itemBegin = gBegin * task.localSize;
    const std::size_t itemCount = (gEnd - gBegin) * task.localSize;

    const vcl::CommandQueue& queue = context_.queue(d);
    DeviceExecution exec;
    exec.device = d;
    exec.groupBegin = gBegin;
    exec.groupEnd = gEnd;

    // ---- host → device transfers -------------------------------------
    // dramBytes doubles as the chunk's unique global-memory footprint: each
    // split slice and each replicated/merged buffer streams from device
    // DRAM once; repeated accesses are cache hits.
    double bytesIn = 0.0;
    double dramBytes = 0.0;
    for (const auto& arg : task.args) {
      const auto* b = std::get_if<BufferArg>(&arg);
      if (b == nullptr) continue;
      switch (b->access) {
        case AccessKind::Split: {
          const auto slice =
              static_cast<double>(itemCount * b->blockElems * 4);
          if (b->isRead) bytesIn += slice;
          dramBytes += slice;
          if (b->isRead && b->isWritten) dramBytes += slice;
          break;
        }
        case AccessKind::Replicate:
          bytesIn += static_cast<double>(b->buffer->bytes());
          dramBytes += static_cast<double>(b->buffer->bytes());
          break;
        case AccessKind::MergeSum:
          // Private copy is zero-initialized on the device; nothing moves.
          dramBytes += static_cast<double>(b->buffer->bytes());
          break;
        case AccessKind::Unused:
          break;
      }
    }
    exec.transferInSeconds = queue.enqueueWrite(bytesIn * task.transferScale);

    // ---- kernel chunk -------------------------------------------------
    vcl::LaunchArgs launchArgs;
    if (compute) {
      for (const auto& arg : task.args) {
        if (const auto* iv = std::get_if<int>(&arg)) {
          launchArgs.addScalar(*iv);
          continue;
        }
        if (const auto* fv = std::get_if<float>(&arg)) {
          launchArgs.addScalar(*fv);
          continue;
        }
        const auto& b = std::get<BufferArg>(arg);
        std::size_t offset = 0;
        std::size_t count = b.buffer->size();
        std::byte* base = nullptr;
        switch (b.access) {
          case AccessKind::Split:
            offset = itemBegin * b.blockElems;
            count = itemCount * b.blockElems;
            break;
          case AccessKind::Replicate:
          case AccessKind::Unused:
            break;  // full view of the shared host buffer
          case AccessKind::MergeSum: {
            // Redirect to this device's private zero-filled copy.
            for (auto& m : merges) {
              const auto* mb = std::get_if<BufferArg>(&task.args[m.argIndex]);
              if (mb == &b) {
                m.perDevice[d].assign(b.buffer->bytes(), std::byte{0});
                base = m.perDevice[d].data();
                ++m.writers;
                break;
              }
            }
            TP_ASSERT(base != nullptr);
            break;
          }
        }
        switch (b.buffer->kind()) {
          case vcl::ElemKind::F32:
            launchArgs.addView(vcl::BufferView<float>(
                base != nullptr ? reinterpret_cast<float*>(base)
                                : b.buffer->data<float>(),
                offset, count));
            break;
          case vcl::ElemKind::I32:
            launchArgs.addView(vcl::BufferView<int>(
                base != nullptr ? reinterpret_cast<int*>(base)
                                : b.buffer->data<int>(),
                offset, count));
            break;
          case vcl::ElemKind::U32:
            launchArgs.addView(vcl::BufferView<unsigned>(
                base != nullptr ? reinterpret_cast<unsigned*>(base)
                                : b.buffer->data<unsigned>(),
                offset, count));
            break;
        }
      }
    }
    exec.kernelSeconds =
        queue.enqueueKernel(counts, gBegin, gEnd, ctxTemplate, task.native,
                            launchArgs, dramBytes);

    // ---- device → host transfers --------------------------------------
    double bytesOut = 0.0;
    for (const auto& arg : task.args) {
      const auto* b = std::get_if<BufferArg>(&arg);
      if (b == nullptr || !b->isWritten) continue;
      switch (b->access) {
        case AccessKind::Split:
          bytesOut += static_cast<double>(itemCount * b->blockElems * 4);
          break;
        case AccessKind::MergeSum:
          bytesOut += static_cast<double>(b->buffer->bytes());
          break;
        case AccessKind::Replicate:
        case AccessKind::Unused:
          break;
      }
    }
    exec.transferOutSeconds = queue.enqueueRead(bytesOut * task.transferScale);
    // The device's in-order timeline, summed in enqueue order from 0.
    exec.endTime =
        exec.transferInSeconds + exec.kernelSeconds + exec.transferOutSeconds;

    // Merge accounting (time model; independent of Compute mode).
    for (const auto& arg : task.args) {
      const auto* b = std::get_if<BufferArg>(&arg);
      if (b != nullptr && b->access == AccessKind::MergeSum && b->isWritten) {
        mergeBytes += static_cast<double>(b->buffer->bytes());
        ++mergeWriters;
      }
    }

    result.devices.push_back(exec);
  }

  // ---- host-side combination of MergeSum buffers ----------------------
  if (compute) {
    for (auto& m : merges) {
      const auto& b = std::get<BufferArg>(task.args[m.argIndex]);
      const std::size_t elems = b.buffer->size();
      for (std::size_t d = 0; d < m.perDevice.size(); ++d) {
        if (m.perDevice[d].empty()) continue;
        switch (b.buffer->kind()) {
          case vcl::ElemKind::F32: {
            auto* out = b.buffer->data<float>();
            const auto* part =
                reinterpret_cast<const float*>(m.perDevice[d].data());
            for (std::size_t i = 0; i < elems; ++i) out[i] += part[i];
            break;
          }
          case vcl::ElemKind::I32: {
            auto* out = b.buffer->data<int>();
            const auto* part =
                reinterpret_cast<const int*>(m.perDevice[d].data());
            for (std::size_t i = 0; i < elems; ++i) out[i] += part[i];
            break;
          }
          case vcl::ElemKind::U32: {
            auto* out = b.buffer->data<unsigned>();
            const auto* part =
                reinterpret_cast<const unsigned*>(m.perDevice[d].data());
            for (std::size_t i = 0; i < elems; ++i) out[i] += part[i];
            break;
          }
        }
      }
    }
  }

  double latest = 0.0;
  for (const auto& exec : result.devices) {
    latest = std::max(latest, exec.endTime);
  }
  // Host combine touches each merged byte once per writing device (read
  // partial + accumulate), bounded by host memory bandwidth.
  result.mergeSeconds =
      mergeWriters > 1 ? mergeBytes / context_.machine().cpu().memBandwidth : 0.0;
  result.makespan = latest + result.mergeSeconds;
  return result;
}

}  // namespace tp::runtime

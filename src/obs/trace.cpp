#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <ios>
#include <ostream>

#include "common/error.hpp"
#include "common/striped.hpp"
#include "obs/json.hpp"

namespace tp::obs {

/// One recording thread's ring for one capture session. The seqlock
/// word is the only synchronization: the owning thread claims it to
/// write a slot, snapshot() claims it to copy the ring. All other
/// fields are plain — they are only ever touched under the claim.
struct TraceRecorder::ThreadBuffer {
  std::atomic<std::uint32_t> seq{0};  ///< odd = writer or drain inside
  std::uint32_t tid = 0;
  std::uint64_t epoch = 0;
  std::vector<TraceEvent> ring;  ///< preallocated to the session capacity
  std::uint64_t head = 0;        ///< events ever recorded; next slot head%cap
  std::uint64_t dropped = 0;     ///< exact overwrite count
};

TraceRecorder::TraceRecorder() = default;
TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::enable(Config config) {
  common::MutexLock lock(mutex_);
  // Retire the previous session's buffers instead of freeing them: a
  // writer that cached a buffer pointer across the epoch bump may still
  // complete one stale record into it, which must stay harmless. Retired
  // buffers are invisible to snapshot().
  for (auto& buffer : buffers_) {
    retired_.push_back(std::move(buffer));
  }
  buffers_.clear();
  ringCapacity_ = std::max<std::size_t>(config.ringCapacity, 2);
  sampleEveryN_.store(std::max<std::uint32_t>(1, config.sampleEveryN),
                      std::memory_order_relaxed);
  baseTicks_.store(nowTicks(), std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

std::uint32_t TraceRecorder::internName(std::string_view name) {
  common::MutexLock lock(mutex_);
  const auto it = nameIds_.find(name);
  if (it != nameIds_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  nameIds_.emplace(std::string(name), id);
  return id;
}

TraceRecorder::ThreadBuffer* TraceRecorder::threadBuffer(std::uint64_t epoch) {
  struct Cached {
    const TraceRecorder* owner = nullptr;
    std::uint64_t epoch = 0;
    ThreadBuffer* buffer = nullptr;
  };
  thread_local Cached cached;
  if (cached.owner == this && cached.epoch == epoch) return cached.buffer;

  common::MutexLock lock(mutex_);
  if (epoch != epoch_.load(std::memory_order_relaxed)) {
    // Raced an enable(): the caller's epoch is already stale. Drop the
    // event rather than file it under the wrong session.
    return nullptr;
  }
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<std::uint32_t>(common::threadOrdinal());
  buffer->epoch = epoch;
  buffer->ring.resize(ringCapacity_);
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  cached = Cached{this, epoch, raw};
  return raw;
}

void TraceRecorder::record(std::uint32_t nameId, std::uint64_t begin,
                           std::uint64_t end, std::uint64_t arg) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  ThreadBuffer* buffer = threadBuffer(epoch);
  if (buffer == nullptr) return;
  const std::uint32_t claimed = common::seqClaim(buffer->seq);
  const std::size_t cap = buffer->ring.size();
  if (buffer->head >= cap) ++buffer->dropped;
  buffer->ring[buffer->head % cap] =
      TraceEvent{begin, end, nameId, buffer->tid, arg};
  ++buffer->head;
  common::seqRelease(buffer->seq, claimed);
}

TraceRecorder::Snapshot TraceRecorder::snapshot() const {
  Snapshot snap;
  common::MutexLock lock(mutex_);
  snap.baseTicks = baseTicks_.load(std::memory_order_relaxed);
  snap.names = names_;
  snap.threads.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    ThreadEvents out;
    out.tid = buffer->tid;
    // The claim excludes the owning writer for the duration of the
    // copy; record() spins, it never tears. Drains are rare (end of a
    // session / bench phase), so the stall is acceptable.
    const std::uint32_t claimed = common::seqClaim(buffer->seq);
    out.dropped = buffer->dropped;
    const std::size_t cap = buffer->ring.size();
    const std::size_t kept =
        static_cast<std::size_t>(std::min<std::uint64_t>(buffer->head, cap));
    out.events.reserve(kept);
    const std::uint64_t oldest = buffer->head - kept;
    for (std::size_t i = 0; i < kept; ++i) {
      out.events.push_back(buffer->ring[(oldest + i) % cap]);
    }
    common::seqRelease(buffer->seq, claimed);
    snap.totalEvents += out.events.size();
    snap.totalDropped += out.dropped;
    snap.threads.push_back(std::move(out));
  }
  return snap;
}

void TraceRecorder::writeChromeTrace(std::ostream& os) const {
  writeChromeTrace(os, snapshot());
}

void TraceRecorder::writeChromeTrace(std::ostream& os, const Snapshot& snap) {
  std::vector<TraceEvent> events;
  events.reserve(snap.totalEvents);
  for (const ThreadEvents& thread : snap.threads) {
    events.insert(events.end(), thread.events.begin(), thread.events.end());
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.tid != b.tid) return a.tid < b.tid;
              // Ties on one thread: the longer span is the outer one.
              return a.end > b.end;
            });

  const std::ios::fmtflags flags =
      os.setf(std::ios::fixed, std::ios::floatfield);
  const std::streamsize precision = os.precision(3);
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    const std::string& name = event.nameId < snap.names.size()
                                  ? snap.names[event.nameId]
                                  : std::string("unknown");
    // Rebase onto the session start so traces open at ts ~0. A stale
    // pre-session tick (clamped to 0) cannot occur in current sessions;
    // guard anyway so the emitted JSON stays schema-valid.
    const std::uint64_t begin =
        event.begin > snap.baseTicks ? event.begin - snap.baseTicks : 0;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << escapeJson(name) << "\",";
    if (event.end == 0) {
      os << "\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ticksToMicros(begin);
    } else {
      const std::uint64_t dur = event.end > event.begin
                                    ? event.end - event.begin
                                    : 0;
      os << "\"ph\":\"X\",\"ts\":" << ticksToMicros(begin)
         << ",\"dur\":" << ticksToMicros(dur);
    }
    os << ",\"pid\":1,\"tid\":" << event.tid << ",\"args\":{\"arg\":"
       << event.arg << "}}";
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << snap.totalDropped << "}}\n";
  os.flags(flags);
  os.precision(precision);
}

void TraceRecorder::writeChromeTraceFile(const std::string& path) const {
  std::ofstream os(path);
  TP_REQUIRE(os.good(),
             "TraceRecorder: cannot open trace output '" << path << "'");
  writeChromeTrace(os);
  TP_REQUIRE(os.good(), "TraceRecorder: write to '" << path << "' failed");
}

TraceRecorder& traceRecorder() {
  static TraceRecorder instance;
  return instance;
}

}  // namespace tp::obs

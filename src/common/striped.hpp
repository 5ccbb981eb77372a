#pragma once

// Striped (per-thread) accumulators for write-hot, read-rare statistics.
//
// A single shared counter serializes every writer on one cache line; a
// mutex-guarded block serializes them on a lock. Striping gives each
// thread its own cache-line-padded slot (threads are assigned a stable
// ordinal at first use, round-robin over the stripe count), so writers
// touch only their stripe with relaxed atomic adds and never contend
// unless more threads than stripes exist. Readers sum every stripe —
// each field is read atomically, but a concurrent writer may land
// between two field reads, so multi-field snapshots are "racy but
// per-field exact": totals are exact once writers quiesce.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/annotations.hpp"

namespace tp::common {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Stable small ordinal for the calling thread (assigned on first call,
/// process-wide). Never reused; long-lived thread churn wraps stripes
/// around, which only costs contention, never correctness.
inline std::size_t threadOrdinal() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

inline std::size_t threadStripe(std::size_t numStripes) noexcept {
  return threadOrdinal() % numStripes;
}

/// Default stripe count: enough that typical thread pools do not collide.
inline std::size_t defaultStripes() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t n = hw == 0 ? 16 : 2 * static_cast<std::size_t>(hw);
  return n < 16 ? 16 : (n > 64 ? 64 : n);
}

template <typename T>
struct alignas(kCacheLineBytes) CachePadded {
  T value{};
};

/// Whether T starts on a cache line and fills whole lines, so that an
/// array of T gives each element lines of its own. Every stripe type
/// static_asserts it: a stripe that shares a line with its neighbour
/// makes two writers contend again.
template <typename T>
inline constexpr bool kWholeCacheLines =
    alignof(T) % kCacheLineBytes == 0 && sizeof(T) % kCacheLineBytes == 0;

/// Spin-claim a seqlock word: CAS it from even (stable) to odd (writer
/// inside) and return the even value. Critical sections guarded this way
/// must be short — claimants spin. Release with seqRelease(), which
/// publishes the mutations and leaves the word even again.
inline std::uint32_t seqClaim(std::atomic<std::uint32_t>& seq) noexcept
    TP_LOCK_FREE_AUDITED(
        "seqlock claim: CAS even->odd spin, acq_rel orders the critical "
        "section; TSan: test_serve LatencyRecorder.SnapshotRacesWithWriters"
        "Cleanly") {
  for (;;) {
    std::uint32_t s = seq.load(std::memory_order_relaxed);
    if ((s & 1u) == 0 &&
        seq.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel)) {
      return s;
    }
  }
}

inline void seqRelease(std::atomic<std::uint32_t>& seq,
                       std::uint32_t claimed) noexcept
    TP_LOCK_FREE_AUDITED(
        "seqlock release: publishes the claimed section with a release "
        "store; TSan: test_serve LatencyRecorder.SnapshotRacesWithWriters"
        "Cleanly") {
  seq.store(claimed + 2, std::memory_order_release);
}

/// RAII claim of a CAS busy flag (0 = free, 1 = claimed). Construction
/// attempts one claim; check claimed() before touching the protected
/// state. The destructor releases, so any exception thrown inside the
/// critical section leaves the flag free instead of leaking the claim —
/// the invariant lint rule A3 enforces for every claim/release section.
/// Call release() explicitly where the protocol wants the flag dropped
/// before trailing work (it is idempotent; the destructor then no-ops).
class ClaimGuard {
public:
  explicit ClaimGuard(std::atomic<std::uint32_t>& flag) noexcept
      TP_LOCK_FREE_AUDITED(
          "single CAS 0->1 claim attempt, acq_rel so the critical section "
          "is ordered against the previous owner's release; TSan: "
          "test_serve PartitionService.ConcurrentClientsGetConsistent"
          "Decisions")
      : flag_(&flag) {
    std::uint32_t expected = 0;
    claimed_ = flag.load(std::memory_order_relaxed) == 0 &&
               flag.compare_exchange_strong(expected, 1,
                                            std::memory_order_acq_rel);
  }
  ClaimGuard(const ClaimGuard&) = delete;
  ClaimGuard& operator=(const ClaimGuard&) = delete;
  ClaimGuard(ClaimGuard&& other) noexcept
      : flag_(other.flag_), claimed_(other.claimed_) {
    other.claimed_ = false;
  }
  ClaimGuard& operator=(ClaimGuard&&) = delete;
  ~ClaimGuard() { release(); }

  bool claimed() const noexcept { return claimed_; }

  void release() noexcept
      TP_LOCK_FREE_AUDITED(
          "release store of 0 publishes the critical section to the next "
          "claimant's acq_rel CAS; idempotent; TSan: test_serve "
          "PartitionService.ConcurrentClientsGetConsistentDecisions") {
    if (claimed_) {
      flag_->store(0, std::memory_order_release);
      claimed_ = false;
    }
  }

private:
  std::atomic<std::uint32_t>* flag_;
  bool claimed_ = false;
};

/// Monotonic counter, striped per thread. add() is a relaxed atomic add on
/// the caller's stripe; total() sums all stripes.
class StripedCounter {
public:
  explicit StripedCounter(std::size_t stripes = 0)
      : stripes_(stripes == 0 ? defaultStripes() : stripes) {}

  void add(std::uint64_t n = 1) noexcept
      TP_LOCK_FREE_AUDITED(
          "relaxed add on the caller's own stripe; monotonic counter, "
          "per-field exact on read; TSan: test_serve "
          "DecisionCacheContention.CountersAndCapacityStayConsistent") {
    stripes_[threadStripe(stripes_.size())].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : stripes_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

private:
  std::vector<CachePadded<std::atomic<std::uint64_t>>> stripes_;
};

/// In-flight latch, striped per thread: enter() counts a unit of work on
/// the caller's stripe and returns that stripe, leave() uncounts it on the
/// same stripe, and wait() blocks until every stripe reads 0. Entering
/// and leaving touch only the caller's cache line, so concurrent clients
/// never write a line another client writes unless they share a stripe.
///
/// Every operation is seq_cst (deliberate, A1-explicit), so a gate flag
/// checked after enter() and set before wait() forms a Dekker pair per
/// stripe: in the single total order either the enter precedes wait()'s
/// load of that stripe (wait() sees it and waits for its leave), or the
/// gate store precedes the check (the enterer sees the closed gate and
/// leaves). wait() returns once every unit that entered before it was
/// called has left; with the gate closed first, no unit is left inside.
///
/// leave() notifies only while a wait() is registered. In libstdc++ an
/// atomic notify on an 8-byte word is a seq_cst fetch_add on an entry of
/// a process-wide waiter table keyed by (address >> 2) % 16, and every
/// 64-byte-aligned stripe maps to the same entry — an unconditional
/// notify would make every request write one line all clients write. So
/// wait() first increments a padded waiter count, and leave() reads it
/// after its decrement. Both are seq_cst, a second Dekker pair: either
/// the registration precedes the decrement that empties a stripe (leave()
/// sees the waiter and notifies), or the decrement precedes it (wait()'s
/// later load of the stripe reads 0 and never blocks on it). With no
/// waiter, leave() only reads the count's line, which stays shared.
class StripedLatch {
public:
  explicit StripedLatch(std::size_t stripes = 0)
      : stripes_(stripes == 0 ? defaultStripes() : stripes) {}

  std::size_t enter() noexcept
      TP_LOCK_FREE_AUDITED(
          "seq_cst increment of the caller's stripe, the enter half of the "
          "per-stripe Dekker pair with wait(); TSan: test_serve "
          "PartitionService.ShutdownUnderLiveTrafficCountsEveryRequest, "
          "test_common StripedLatchTest.SharedStripesDrainToZero") {
    const std::size_t stripe = threadStripe(stripes_.size());
    stripes_[stripe].value.fetch_add(1, std::memory_order_seq_cst);
    return stripe;
  }

  /// Uncount a unit on the stripe its enter() returned.
  void leave(std::size_t stripe) noexcept
      TP_LOCK_FREE_AUDITED(
          "seq_cst decrement, then a seq_cst load of the waiter count (the "
          "leave half of the waiter Dekker pair); the one that empties a "
          "stripe notifies wait()'s atomic wait on it only when a waiter "
          "is registered; TSan: test_common StripedLatchTest.WaitBlocked"
          "OnAStripeIsWokenByTheLeaveThatEmptiesIt, "
          "StripedLatchTest.SharedStripesDrainToZero, test_serve "
          "PartitionService.ShutdownUnderLiveTrafficCountsEveryRequest") {
    auto& count = stripes_[stripe].value;
    if (count.fetch_sub(1, std::memory_order_seq_cst) == 1 &&
        waiters_.value.load(std::memory_order_seq_cst) != 0) {
      count.notify_all();
    }
  }

  /// Block until every stripe reads 0, stripe by stripe.
  void wait() const noexcept
      TP_LOCK_FREE_AUDITED(
          "registers in the waiter count (seq_cst increment, the wait half "
          "of the waiter Dekker pair) before a seq_cst wait loop per "
          "stripe, woken by leave()'s notify; TSan: test_common "
          "StripedLatchTest.WaitBlockedOnAStripeIsWokenByTheLeaveThat"
          "EmptiesIt, StripedLatchTest.SharedStripesDrainToZero, test_serve "
          "PartitionService.ShutdownUnderLiveTrafficCountsEveryRequest") {
    waiters_.value.fetch_add(1, std::memory_order_seq_cst);
    for (const auto& s : stripes_) {
      for (;;) {
        const std::uint64_t v = s.value.load(std::memory_order_seq_cst);
        if (v == 0) break;
        s.value.wait(v, std::memory_order_seq_cst);
      }
    }
    waiters_.value.fetch_sub(1, std::memory_order_seq_cst);
  }

private:
  std::vector<CachePadded<std::atomic<std::uint64_t>>> stripes_;
  /// wait() calls in progress; written only by waiters.
  mutable CachePadded<std::atomic<std::uint64_t>> waiters_;
};

}  // namespace tp::common

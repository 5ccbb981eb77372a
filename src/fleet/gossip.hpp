#pragma once

// GossipBus — anti-entropy rounds across fleet replicas.
//
// Each participant registers a round function (for a Replica:
// publishWins(), which broadcasts its adopted refiner wins over the
// transport). runRound() invokes every participant once, on the calling
// thread; the bus owns no thread, so its owner decides when rounds run
// (Fleet::gossipRound(), a test, a benchmark's wave loop). Rounds are
// anti-entropy in the classic sense: participants re-offer their full
// win state each round and merging is idempotent, so replicas converge
// even if individual messages were lost — and a participant whose state
// digest has not changed skips the broadcast entirely. Rounds may be
// started from several threads at once; they run one at a time.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"

namespace tp::fleet {

class GossipBus {
public:
  using RoundFn = std::function<void()>;

  GossipBus() = default;
  GossipBus(const GossipBus&) = delete;
  GossipBus& operator=(const GossipBus&) = delete;

  /// Add a participant; its fn runs once per round, on the runRound()
  /// caller's thread.
  void join(const std::string& node, RoundFn fn);
  /// Remove a participant. Blocks until any in-flight round has finished
  /// invoking its copied fns, so after leave() returns the fn is never
  /// called again — a Replica may destroy itself safely.
  void leave(const std::string& node);

  /// One anti-entropy round: every participant's fn, in join order.
  /// Each fn runs inside a failure boundary: a throwing participant is
  /// counted (roundErrors()) and logged, the remaining participants
  /// still run, and the caller sees no exception — mirroring
  /// HealthMonitor's per-rule error counting. Returns the number of
  /// participants invoked.
  std::size_t runRound();

  std::uint64_t rounds() const;
  /// Participant fns that threw (each counted once per round it threw).
  std::uint64_t roundErrors() const;

private:
  mutable common::Mutex mutex_;  ///< guards participants_ + round counts
  common::Mutex roundMutex_;     ///< held while a round invokes its fns
  std::vector<std::pair<std::string, RoundFn>> participants_
      TP_GUARDED_BY(mutex_);
  std::uint64_t rounds_ TP_GUARDED_BY(mutex_) = 0;
  std::uint64_t roundErrors_ TP_GUARDED_BY(mutex_) = 0;
};

}  // namespace tp::fleet

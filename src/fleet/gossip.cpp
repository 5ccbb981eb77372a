#include "fleet/gossip.hpp"

#include <algorithm>
#include <exception>

#include "common/log.hpp"
#include "obs/trace.hpp"

namespace tp::fleet {

void GossipBus::join(const std::string& node, RoundFn fn) {
  common::MutexLock lock(mutex_);
  for (auto& [name, existing] : participants_) {
    if (name == node) {
      existing = std::move(fn);
      return;
    }
  }
  participants_.emplace_back(node, std::move(fn));
}

void GossipBus::leave(const std::string& node) {
  {
    common::MutexLock lock(mutex_);
    participants_.erase(
        std::remove_if(participants_.begin(), participants_.end(),
                       [&](const auto& p) { return p.first == node; }),
        participants_.end());
  }
  // An in-flight round copied its fn list before we erased: wait it out,
  // so the departing participant's fn can never run after leave()
  // returns (its owner is free to destroy itself).
  common::MutexLock drain(roundMutex_);
}

std::size_t GossipBus::runRound() {
  // Invoke outside the bus lock: round fns broadcast over the transport,
  // whose handlers merge into replicas and may call back into join/leave
  // (replica teardown) from other threads. roundMutex_ is what leave()
  // waits on to drain an in-flight round.
  common::MutexLock round(roundMutex_);
  TP_TRACE_SPAN("fleet.gossip_round");
  std::vector<RoundFn> fns;
  {
    common::MutexLock lock(mutex_);
    fns.reserve(participants_.size());
    for (const auto& [node, fn] : participants_) {
      (void)node;
      fns.push_back(fn);
    }
    ++rounds_;
  }
  for (std::size_t i = 0; i < fns.size(); ++i) {
    // Failure boundary: one participant's exception must not starve the
    // rest of the round or escape to the caller driving gossip (a peer's
    // decode error would abort every later participant). Count and log —
    // never swallow silently.
    try {
      fns[i]();
    } catch (const std::exception& e) {
      TP_WARN("gossip round participant " << i << " threw: " << e.what());
      common::MutexLock lock(mutex_);
      ++roundErrors_;
    } catch (...) {
      TP_WARN("gossip round participant " << i << " threw a non-exception");
      common::MutexLock lock(mutex_);
      ++roundErrors_;
    }
  }
  return fns.size();
}

std::uint64_t GossipBus::rounds() const {
  common::MutexLock lock(mutex_);
  return rounds_;
}

std::uint64_t GossipBus::roundErrors() const {
  common::MutexLock lock(mutex_);
  return roundErrors_;
}

}  // namespace tp::fleet

#include "common/intern.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"

namespace tp::common {

namespace {

std::size_t tableSizeFor(std::size_t capacity) {
  // Keep the load factor at or below 1/2 so linear probes stay short.
  std::size_t n = 16;
  while (n < capacity * 2) n <<= 1;
  return n;
}

}  // namespace

PairInterner::PairInterner(std::size_t capacity, char joiner)
    : capacity_(capacity),
      joiner_(joiner),
      mask_(tableSizeFor(capacity) - 1),
      slots_(std::make_unique<Slot[]>(mask_ + 1)),
      entries_(std::make_unique<Entry[]>(capacity)) {
  TP_REQUIRE(capacity_ > 0, "PairInterner: capacity must be > 0");
  TP_REQUIRE(capacity_ < kInvalid, "PairInterner: capacity too large");
}

std::uint64_t PairInterner::pairHash(std::string_view first,
                                     std::string_view head,
                                     std::string_view tail,
                                     bool split) const noexcept {
  // The split form hashes the same bytes as the joined one, so
  // find(a, h, t) == find(a, h + joiner + t) without concatenating.
  const std::uint64_t h =
      split ? hashPair(first, head, joiner_, tail) : hashPair(first, head);
  return h == 0 ? 1 : h;  // 0 is the empty-slot sentinel
}

bool PairInterner::equals(const Entry& e, std::string_view first,
                          std::string_view head, std::string_view tail,
                          bool split) const noexcept {
  if (e.first != first) return false;
  if (!split) return e.second == head;
  const std::string_view second = e.second;
  return second.size() == head.size() + 1 + tail.size() &&
         second.substr(0, head.size()) == head &&
         second[head.size()] == joiner_ &&
         second.substr(head.size() + 1) == tail;
}

std::uint32_t PairInterner::findHashed(std::uint64_t hash,
                                       std::string_view first,
                                       std::string_view head,
                                       std::string_view tail,
                                       bool split) const noexcept {
  for (std::size_t i = hash & mask_;; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    const std::uint64_t h = slot.hash.load(std::memory_order_acquire);
    if (h == 0) return kInvalid;  // slots are never removed: chain ends here
    if (h == hash) {
      const std::uint32_t id = slot.id.load(std::memory_order_relaxed);
      // The release store of `hash` happened after the entry was written,
      // so the acquire load above makes the entry visible.
      if (equals(entries_[id], first, head, tail, split)) return id;
    }
  }
}

std::uint32_t PairInterner::find(std::string_view first,
                                 std::string_view second) const noexcept {
  return findHashed(pairHash(first, second, {}, false), first, second, {},
                    false);
}

std::uint32_t PairInterner::find(std::string_view first,
                                 std::string_view secondHead,
                                 std::string_view secondTail) const noexcept {
  return findHashed(pairHash(first, secondHead, secondTail, true), first,
                    secondHead, secondTail, true);
}

std::uint32_t PairInterner::internHashed(std::uint64_t hash,
                                         std::string_view first,
                                         std::string_view head,
                                         std::string_view tail, bool split) {
  if (const std::uint32_t id = findHashed(hash, first, head, tail, split);
      id != kInvalid) {
    return id;
  }
  MutexLock lock(insertMutex_);
  // Re-check under the lock: another thread may have interned it between
  // the lock-free miss above and our acquisition.
  if (const std::uint32_t id = findHashed(hash, first, head, tail, split);
      id != kInvalid) {
    return id;
  }
  const std::size_t n = size_.load(std::memory_order_relaxed);
  if (n >= capacity_) {
    fullRejections_.fetch_add(1, std::memory_order_relaxed);
    return kInvalid;
  }
  const auto id = static_cast<std::uint32_t>(n);
  Entry& entry = entries_[id];
  entry.first.assign(first);
  if (split) {
    entry.second.reserve(head.size() + 1 + tail.size());
    entry.second.assign(head);
    entry.second.push_back(joiner_);
    entry.second.append(tail);
  } else {
    entry.second.assign(head);
  }
  std::size_t i = hash & mask_;
  while (slots_[i].hash.load(std::memory_order_relaxed) != 0) {
    i = (i + 1) & mask_;  // load factor <= 1/2: an empty slot always exists
  }
  slots_[i].id.store(id, std::memory_order_relaxed);
  slots_[i].hash.store(hash, std::memory_order_release);
  size_.store(n + 1, std::memory_order_release);
  return id;
}

std::uint32_t PairInterner::intern(std::string_view first,
                                   std::string_view second) {
  return internHashed(pairHash(first, second, {}, false), first, second, {},
                      false);
}

std::uint32_t PairInterner::intern(std::string_view first,
                                   std::string_view secondHead,
                                   std::string_view secondTail) {
  return internHashed(pairHash(first, secondHead, secondTail, true), first,
                      secondHead, secondTail, true);
}

const std::string& PairInterner::first(std::uint32_t id) const {
  TP_REQUIRE(id < size(), "PairInterner: id " << id << " out of range");
  return entries_[id].first;
}

const std::string& PairInterner::second(std::uint32_t id) const {
  TP_REQUIRE(id < size(), "PairInterner: id " << id << " out of range");
  return entries_[id].second;
}

}  // namespace tp::common

#include "runtime/partitioning.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace tp::runtime {

bool Partitioning::isSingleDevice() const {
  int nonZero = 0;
  for (const int u : units) {
    if (u > 0) ++nonZero;
  }
  return nonZero == 1;
}

std::size_t Partitioning::singleDevice() const {
  TP_ASSERT(isSingleDevice());
  for (std::size_t d = 0; d < units.size(); ++d) {
    if (units[d] > 0) return d;
  }
  TP_ASSERT(false);
  return 0;
}

int Partitioning::activeDevices() const {
  int count = 0;
  for (const int u : units) {
    if (u > 0) ++count;
  }
  return count;
}

std::string Partitioning::toString() const {
  std::ostringstream os;
  for (std::size_t d = 0; d < units.size(); ++d) {
    if (d > 0) os << '/';
    os << units[d] * 100 / divisions;
  }
  return os.str();
}

void apportion(std::size_t total, const Partitioning& p,
               std::span<std::size_t> counts) {
  const std::size_t n = p.numDevices();
  TP_REQUIRE(counts.size() == n, "apportion: " << counts.size()
                                               << " counts for " << n
                                               << " devices");
  std::fill(counts.begin(), counts.end(), std::size_t{0});
  if (total == 0) return;

  // Denominator is the actual unit sum, so the result is exact even for
  // hand-built partitionings whose units do not sum to `divisions`.
  std::size_t unitSum = 0;
  for (const int u : p.units) {
    TP_REQUIRE(u >= 0, "apportion: negative unit share");
    unitSum += static_cast<std::size_t>(u);
  }
  TP_REQUIRE(unitSum > 0, "apportion: partitioning assigns no work");

  // Largest-remainder in integer arithmetic: floor(total * units / sum)
  // per device, then hand the < n leftover items to the active devices
  // with the largest remainders, ties to the lower index.
  PerDevice<std::size_t> remainder(n);
  std::size_t assigned = 0;
  for (std::size_t d = 0; d < n; ++d) {
    const std::size_t scaled = total * static_cast<std::size_t>(p.units[d]);
    counts[d] = scaled / unitSum;
    remainder[d] = scaled % unitSum;
    assigned += counts[d];
  }
  // sum(remainder) == (total - assigned) * unitSum, so the leftover count
  // is at most the number of active devices: each device gains at most
  // one. The k-th leftover goes to the k-th active device in (remainder
  // descending, index ascending) order; each pass takes the best device
  // ranked after the previous pick, so no order array is needed.
  const auto rankedBefore = [&](std::size_t a, std::size_t b) {
    return remainder[a] > remainder[b] ||
           (remainder[a] == remainder[b] && a < b);
  };
  std::size_t previous = n;  // n: nothing picked yet
  for (std::size_t leftover = total - assigned; leftover > 0; --leftover) {
    std::size_t best = n;
    for (std::size_t d = 0; d < n; ++d) {
      if (p.units[d] <= 0) continue;
      if (previous != n && !rankedBefore(previous, d)) continue;
      if (best == n || rankedBefore(d, best)) best = d;
    }
    TP_ASSERT(best != n);
    ++counts[best];
    previous = best;
  }
}

PartitioningSpace::PartitioningSpace(std::size_t numDevices, int divisions)
    : numDevices_(numDevices), divisions_(divisions) {
  TP_REQUIRE(numDevices >= 1, "PartitioningSpace: need at least one device");
  TP_REQUIRE(divisions >= 1, "PartitioningSpace: divisions must be >= 1");

  // Enumerate compositions of `divisions` into numDevices parts.
  std::vector<int> current(numDevices, 0);
  // Recursive lambda via explicit stack-free recursion.
  auto enumerate = [&](auto&& self, std::size_t device, int remaining) -> void {
    if (device + 1 == numDevices) {
      current[device] = remaining;
      all_.push_back(Partitioning{current, divisions});
      return;
    }
    for (int u = 0; u <= remaining; ++u) {
      current[device] = u;
      self(self, device + 1, remaining - u);
    }
  };
  enumerate(enumerate, 0, divisions);
  for (std::size_t i = 0; i < all_.size(); ++i) {
    index_.emplace(all_[i].units, i);
  }
}

const Partitioning& PartitioningSpace::at(std::size_t index) const {
  TP_ASSERT_MSG(index < all_.size(),
                "partitioning index " << index << " out of range");
  return all_[index];
}

std::size_t PartitioningSpace::indexOf(const Partitioning& p) const {
  if (p.divisions == divisions_) {
    const auto it = index_.find(p.units);
    if (it != index_.end()) return it->second;
  }
  TP_THROW("partitioning " << p.toString() << " not in space");
}

std::size_t PartitioningSpace::cpuOnlyIndex() const {
  return singleDeviceIndex(0);
}

std::size_t PartitioningSpace::singleDeviceIndex(std::size_t device) const {
  TP_REQUIRE(device < numDevices_, "device index out of range");
  Partitioning p;
  p.divisions = divisions_;
  p.units.assign(numDevices_, 0);
  p.units[device] = divisions_;
  return indexOf(p);
}

PartitionFamily PartitioningSpace::family(std::size_t index) const {
  const Partitioning& p = at(index);
  const bool usesCpu = p.units[0] > 0;
  int gpusUsed = 0;
  for (std::size_t d = 1; d < p.units.size(); ++d) {
    if (p.units[d] > 0) ++gpusUsed;
  }
  if (usesCpu && gpusUsed == 0) return PartitionFamily::CpuOnly;
  if (!usesCpu && gpusUsed == 1) return PartitionFamily::SingleGpu;
  if (!usesCpu) return PartitionFamily::MultiGpu;
  return PartitionFamily::Mixed;
}

std::vector<std::size_t> PartitioningSpace::neighbors(std::size_t index,
                                                      int radius) const {
  const Partitioning& base = at(index);
  std::vector<std::size_t> out;
  if (radius <= 0) return out;
  Partitioning candidate = base;
  for (std::size_t from = 0; from < numDevices_; ++from) {
    for (std::size_t to = 0; to < numDevices_; ++to) {
      if (from == to) continue;
      const int movable = std::min(base.units[from], radius);
      for (int m = 1; m <= movable; ++m) {
        candidate.units = base.units;
        candidate.units[from] -= m;
        candidate.units[to] += m;
        out.push_back(indexOf(candidate));
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> PartitioningSpace::familyLabels() const {
  std::vector<int> out(all_.size());
  for (std::size_t i = 0; i < all_.size(); ++i) {
    out[i] = static_cast<int>(family(i));
  }
  return out;
}

}  // namespace tp::runtime

// Per-CPU cycle accounting by category.
//
// The "system throughput" metric of the paper (§6: CPU cycles measured
// with perf) is reconstructed from this ledger: every nanosecond a
// physical CPU is occupied is attributed to exactly one category, and
// the metrics layer checks conservation (busy + idle == wall time).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "sim/types.hpp"

namespace paratick::hw {

enum class CycleCategory : std::uint8_t {
  kGuestUser = 0,    // workload computation inside the guest
  kGuestKernel,      // guest kernel work: irq handlers, tick work, scheduler, idle path
  kExitOverhead,     // VMX transitions + KVM exit handling (direct + indirect cost)
  kHostKernel,       // host tick work, host scheduler decisions
  kHaltPoll,         // cycles burnt polling in kvm_vcpu_halt
  kIdle,             // physical CPU unoccupied
  kCount,
};

[[nodiscard]] constexpr std::string_view to_string(CycleCategory c) {
  switch (c) {
    case CycleCategory::kGuestUser: return "guest-user";
    case CycleCategory::kGuestKernel: return "guest-kernel";
    case CycleCategory::kExitOverhead: return "exit-overhead";
    case CycleCategory::kHostKernel: return "host-kernel";
    case CycleCategory::kHaltPoll: return "halt-poll";
    case CycleCategory::kIdle: return "idle";
    case CycleCategory::kCount: break;
  }
  return "?";
}

inline constexpr std::size_t kCycleCategoryCount =
    static_cast<std::size_t>(CycleCategory::kCount);

class CycleLedger {
 public:
  void charge(CycleCategory cat, sim::Cycles c) {
    totals_[static_cast<std::size_t>(cat)] += c;
  }

  [[nodiscard]] sim::Cycles total(CycleCategory cat) const {
    return totals_[static_cast<std::size_t>(cat)];
  }

  /// Sum of all non-idle categories.
  [[nodiscard]] sim::Cycles busy_total() const {
    sim::Cycles sum;
    for (std::size_t i = 0; i < kCycleCategoryCount; ++i) {
      if (static_cast<CycleCategory>(i) != CycleCategory::kIdle) sum += totals_[i];
    }
    return sum;
  }

  /// Sum over every category including idle.
  [[nodiscard]] sim::Cycles grand_total() const {
    sim::Cycles sum;
    for (const auto& t : totals_) sum += t;
    return sum;
  }

  void merge(const CycleLedger& other) {
    for (std::size_t i = 0; i < kCycleCategoryCount; ++i) totals_[i] += other.totals_[i];
  }

  bool operator==(const CycleLedger&) const = default;

 private:
  std::array<sim::Cycles, kCycleCategoryCount> totals_{};
};

}  // namespace paratick::hw

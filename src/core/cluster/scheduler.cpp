#include "core/cluster/scheduler.hpp"

#include "sim/check.hpp"

namespace paratick::core {

namespace {
/// Minimum (hottest host − coolest host) per-window steal gap before a
/// migration is worth its blackout + dirty-page cost.
constexpr sim::SimTime kMinImbalance = sim::SimTime::ms(1);
}  // namespace

std::vector<int> place(int hosts, int global_vms) {
  PARATICK_CHECK_MSG(hosts >= 1 && global_vms >= hosts,
                     "placement needs at least one VM per host");
  std::vector<int> out(static_cast<std::size_t>(global_vms));
  for (int g = 0; g < global_vms; ++g) out[static_cast<std::size_t>(g)] = g % hosts;
  return out;
}

std::optional<Migration> rebalance(const std::vector<VmLoadView>& vms, int hosts) {
  if (hosts < 2 || vms.empty()) return std::nullopt;

  std::vector<sim::SimTime> host_steal(static_cast<std::size_t>(hosts));
  std::vector<int> host_vms(static_cast<std::size_t>(hosts), 0);
  for (const VmLoadView& v : vms) {
    host_steal[static_cast<std::size_t>(v.host)] += v.steal_delta;
    ++host_vms[static_cast<std::size_t>(v.host)];
  }

  int hot = 0;
  int cool = 0;
  for (int h = 1; h < hosts; ++h) {
    const auto hs = static_cast<std::size_t>(h);
    if (host_steal[hs] > host_steal[static_cast<std::size_t>(hot)]) hot = h;
    if (host_steal[hs] < host_steal[static_cast<std::size_t>(cool)]) cool = h;
  }
  if (hot == cool) return std::nullopt;
  if (host_steal[static_cast<std::size_t>(hot)] -
          host_steal[static_cast<std::size_t>(cool)] <
      kMinImbalance) {
    return std::nullopt;
  }
  // Keep every host populated: a drained host would stop contributing
  // contention signal and the next placement round could not refill it.
  if (host_vms[static_cast<std::size_t>(hot)] <= 1) return std::nullopt;

  // The hot host's most-stolen VM benefits the most from moving (and
  // removes the most pressure from the VMs staying behind).
  const VmLoadView* pick = nullptr;
  for (const VmLoadView& v : vms) {
    if (v.host != hot) continue;
    if (pick == nullptr || v.steal_delta > pick->steal_delta) pick = &v;
  }
  return Migration{pick->global_vm, cool};
}

}  // namespace paratick::core

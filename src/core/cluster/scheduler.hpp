// Cluster scheduling: initial VM placement plus periodic steal-aware
// rebalancing decisions.
//
// The scheduler never sees hypervisor ground truth. Its load signal is
// the guest-side steal estimate (guest/steal_estimator.hpp) sampled at
// rebalance barriers — the same information a real cloud operator gets
// from tenant kernels on hardware without a paravirtual steal clock.
// Decisions are pure functions of the views handed in, which keeps
// cluster runs bit-identical across sweep workers and backends.
#pragma once

#include <optional>
#include <vector>

#include "sim/types.hpp"

namespace paratick::core {

/// One live VM's load signal at a rebalance barrier.
struct VmLoadView {
  int global_vm = 0;
  int host = 0;
  /// Guest steal estimate gained since the previous barrier (this
  /// incarnation only; resets to zero after a migration).
  sim::SimTime steal_delta;
  /// Cumulative guest steal estimate of the current incarnation.
  sim::SimTime steal_total;
};

/// A scheduler decision: move `global_vm` to `to_host`.
struct Migration {
  int global_vm = 0;
  int to_host = 0;
};

/// Initial placement, round-robin: host index for each of `global_vms`
/// VMs, values in [0, hosts). Every host receives at least one VM.
[[nodiscard]] std::vector<int> place(int hosts, int global_vms);

/// Greedy consolidation, one migration per rebalance barrier: when the
/// most-stolen host's per-window steal exceeds the least-stolen host's
/// by at least 1 ms, move the hot host's most-stolen VM to the cool
/// host. `vms` are the live VMs' load views (in-flight migrations
/// excluded). Never drains a host of its last VM.
[[nodiscard]] std::optional<Migration> rebalance(const std::vector<VmLoadView>& vms,
                                                 int hosts);

}  // namespace paratick::core

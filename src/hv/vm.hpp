// A virtual machine: a set of vCPUs plus its virtual block device state.
// A VM knows nothing of parallel execution: it lives on the engine of the
// core::System that created it, and that System is its partition when a
// cluster runs hosts on sim::ParallelEngine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hv/vcpu.hpp"

namespace paratick::hv {

using VmId = std::uint32_t;

struct VmConfig {
  int vcpus = 1;
  /// Preferred physical CPUs (pinning targets); empty = hypervisor picks.
  std::vector<hw::CpuId> pinning;
};

class Vm {
 public:
  Vm(VmId id, VmConfig config) : id_(id), config_(std::move(config)) {}

  [[nodiscard]] VmId id() const { return id_; }
  [[nodiscard]] const VmConfig& config() const { return config_; }

  [[nodiscard]] int vcpu_count() const { return static_cast<int>(vcpus_.size()); }
  [[nodiscard]] Vcpu& vcpu(int index) { return *vcpus_[static_cast<std::size_t>(index)]; }
  [[nodiscard]] const Vcpu& vcpu(int index) const {
    return *vcpus_[static_cast<std::size_t>(index)];
  }
  [[nodiscard]] std::vector<std::unique_ptr<Vcpu>>& vcpus() { return vcpus_; }

 private:
  friend class Kvm;
  VmId id_;
  VmConfig config_;
  std::vector<std::unique_ptr<Vcpu>> vcpus_;
};

}  // namespace paratick::hv

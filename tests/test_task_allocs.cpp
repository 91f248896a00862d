// Heap allocations on the task hot path. The binary replaces the global
// operator new with a counting one, so it is its own test executable.
//
// A workload op (compute, lock, unlock) travels from the task body through
// the guest kernel into Kvm::port_* and back; none of those hops should
// need the heap once the system is built.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/system.hpp"
#include "workload/program.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace paratick::workload {
namespace {

using sim::SimTime;

/// Heap allocations per program iteration over System::run(),
/// construction excluded.
double allocs_per_iteration(guest::TickMode mode, const Program& program) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  spec.max_duration = SimTime::sec(10);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.guest.tick_mode = mode;
  vm.setup = [&program](guest::GuestKernel& k) { k.add_task(make_task_body(program)); };
  spec.vms.push_back(std::move(vm));
  const std::uint64_t at_start = g_allocs.load(std::memory_order_relaxed);
  core::System system(std::move(spec));
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  EXPECT_GT(before, at_start) << "the counting operator new is not in use";
  const auto r = system.run();
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(r.completion_time().has_value());
  EXPECT_EQ(system.kernel(0).tasks_done(), 1);
  return static_cast<double>(allocs) / program.repeat_count();
}

class TaskAllocs : public ::testing::TestWithParam<guest::TickMode> {};

TEST_P(TaskAllocs, ComputeOpsDoNotAllocate) {
  Program p;
  p.compute(1'000).repeat(100'000);
  EXPECT_LT(allocs_per_iteration(GetParam(), p), 0.01);
}

TEST_P(TaskAllocs, CriticalSectionsDoNotAllocate) {
  // Per iteration: compute, then lock -> hold -> unlock.
  Program p;
  p.compute(1'000).critical(1, 500).repeat(50'000);
  EXPECT_LT(allocs_per_iteration(GetParam(), p), 0.01);
}

INSTANTIATE_TEST_SUITE_P(Modes, TaskAllocs,
                         ::testing::Values(guest::TickMode::kPeriodic,
                                           guest::TickMode::kDynticksIdle,
                                           guest::TickMode::kFullDynticks,
                                           guest::TickMode::kParatick));

}  // namespace
}  // namespace paratick::workload

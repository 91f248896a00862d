// Heap allocations on the simulation hot path. The binary replaces the
// global operator new with a counting one, so it is its own test
// executable.
//
// A workload op (compute, lock, unlock) travels from the task body through
// the guest kernel into Kvm::port_* and back; none of those hops should
// need the heap once the system is built. The same holds for the
// interrupt, idle, tick, IPI and block-I/O paths of the paper's workloads
// once their queues and buffers have grown to their working size.
//
// Some paths are allocation-free from the first event: the injection that
// saves an interrupted context (Vcpu::interrupted holds it in place), and
// a wake-IPI batch, whose kick list is sized to the VM on its first kick
// and never grows. Set-up is bounded too: a workload program is built with
// one allocation, and a pCPU's host-tick timer lives in place, so the
// per-vCPU cost of building a System is pinned below.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>

#include "core/system.hpp"
#include "workload/fio.hpp"
#include "workload/micro.hpp"
#include "workload/parsec.hpp"
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

// ---------------------------------------------------------------------------
// Run phase of the paper's workloads: after a short warm-up, in which run
// queues, timer lists and I/O buffers reach their working size, no
// executed event may need the heap. The bound leaves room for a rare
// late growth, not for a per-path allocation.
// ---------------------------------------------------------------------------

constexpr double kMaxAllocsPerEvent = 0.001;

struct RunPhase {
  std::uint64_t allocs = 0;
  std::uint64_t events = 0;
  [[nodiscard]] double per_event() const {
    return static_cast<double>(allocs) / static_cast<double>(events);
  }
};

/// Heap allocations and executed events after `warmup` of simulated time,
/// up to `spec.max_duration` or the workload's end.
RunPhase run_phase(core::SystemSpec spec, SimTime warmup) {
  const SimTime horizon = spec.max_duration;
  core::System system(std::move(spec));
  system.power_on();
  system.engine().run_until(warmup);
  const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t events_before = system.engine().events_executed();
  system.engine().run_until(horizon);
  RunPhase r;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  r.events = system.engine().events_executed() - events_before;
  EXPECT_GT(r.events, 20'000u) << "too little run phase to measure";
  return r;
}

void expect_allocation_free(const RunPhase& r) {
  EXPECT_LT(r.per_event(), kMaxAllocsPerEvent)
      << r.allocs << " heap allocations over " << r.events << " events";
}

class RunPhaseAllocs : public ::testing::TestWithParam<guest::TickMode> {
 protected:
  [[nodiscard]] guest::GuestConfig guest_config() const {
    guest::GuestConfig g;
    g.tick_mode = GetParam();
    return g;
  }
};

// Figure 5 shape: a barrier profile and a pipeline profile side by side in
// two 8-vCPU VMs on a 2-socket host, so idle entries, wake IPIs (also
// cross-socket), ticks, MSR writes and block I/O all occur.
TEST_P(RunPhaseAllocs, ParsecFig5ShapeDoesNotAllocate) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec{2, 8, sim::CpuFrequency{2.0}, SimTime::ns(300)};
  spec.max_duration = SimTime::ms(300);
  for (const char* name : {"streamcluster", "dedup"}) {
    core::VmSpec vm;
    vm.vcpus = 8;
    vm.guest = guest_config();
    vm.attach_disk = true;
    vm.setup = [name](guest::GuestKernel& k) {
      install_parsec(k, parsec_profile(name), 8);
    };
    spec.vms.push_back(std::move(vm));
  }
  expect_allocation_free(run_phase(std::move(spec), SimTime::ms(50)));
}

// Table 1 W3: 16 threads synchronizing 1000x/s through one barrier.
TEST_P(RunPhaseAllocs, Table1SyncStormDoesNotAllocate) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(16);
  spec.max_duration = SimTime::sec(2);
  core::VmSpec vm;
  vm.vcpus = 16;
  vm.guest = guest_config();
  vm.setup = [](guest::GuestKernel& k) {
    SyncStormSpec storm;
    storm.threads = 16;
    storm.sync_rate_hz = 1000.0 / 15;
    storm.duration = SimTime::sec(2);
    install_sync_storm(k, storm);
  };
  spec.vms.push_back(std::move(vm));
  expect_allocation_free(run_phase(std::move(spec), SimTime::ms(200)));
}

// Figure 6: one fio job doing synchronous random 4 KiB reads.
TEST_P(RunPhaseAllocs, FioSyncIoDoesNotAllocate) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  spec.max_duration = SimTime::sec(10);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.guest = guest_config();
  vm.attach_disk = true;
  vm.setup = [](guest::GuestKernel& k) {
    FioSpec fio;
    fio.pattern = hw::IoPattern::kRandom;
    fio.ops = 2000;
    install_fio(k, fio);
  };
  spec.vms.push_back(std::move(vm));
  expect_allocation_free(run_phase(std::move(spec), SimTime::ms(5)));
}

// The guest timer path: on each vCPU one task sleeps 300 us per iteration
// (an exact deadline with a hardware reprogram) and one sleeps 30 ms (a
// jiffy-boundary timer), so timers are queued, expired and re-armed
// throughout the run phase.
TEST_P(RunPhaseAllocs, ShortAndLongSleepsDoNotAllocate) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(2);
  spec.max_duration = SimTime::sec(3);
  core::VmSpec vm;
  vm.vcpus = 2;
  vm.guest = guest_config();
  vm.setup = [](guest::GuestKernel& k) {
    Program short_sleeps;
    short_sleeps.compute(20'000).sleep(SimTime::us(300)).repeat(20'000);
    Program long_sleeps;
    long_sleeps.compute(20'000).sleep(SimTime::ms(30)).repeat(100);
    for (int cpu = 0; cpu < k.cpu_count(); ++cpu) {
      k.add_task(make_task_body(short_sleeps), cpu);
      k.add_task(make_task_body(long_sleeps), cpu);
    }
  };
  spec.vms.push_back(std::move(vm));
  expect_allocation_free(run_phase(std::move(spec), SimTime::ms(50)));
}

INSTANTIATE_TEST_SUITE_P(Modes, RunPhaseAllocs,
                         ::testing::Values(guest::TickMode::kPeriodic,
                                           guest::TickMode::kDynticksIdle,
                                           guest::TickMode::kFullDynticks,
                                           guest::TickMode::kParatick));

// ---------------------------------------------------------------------------
// Building a workload program allocates its op list once. Each builder
// reserves an upper bound of its op count (io and fault ops are
// conditional, so the reserve may exceed the size); an op added without
// raising the reserve grows the list and fails here.
// ---------------------------------------------------------------------------

template <typename Build>
std::uint64_t allocs_to_build(Build build) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const Program program = build();
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_FALSE(program.empty());
  return allocs;
}

TEST(ProgramSizing, ParsecProgramsAllocateOnce) {
  for (const ParsecProfile& profile : parsec_suite()) {
    for (const int nthreads : {1, 16, 64}) {
      for (int t = 0; t < nthreads; ++t) {
        EXPECT_EQ(allocs_to_build(
                      [&] { return make_parsec_program(profile, nthreads, t); }),
                  1u)
            << profile.name << " at " << nthreads << " threads, thread " << t;
      }
    }
  }
}

TEST(ProgramSizing, MicroAndFioProgramsAllocateOnce) {
  EXPECT_EQ(allocs_to_build([] { return make_sync_storm_program(SyncStormSpec{}); }), 1u);
  EXPECT_EQ(allocs_to_build([] { return make_tick_storm_program(TickStormSpec{}); }), 1u);
  EXPECT_EQ(allocs_to_build([] { return make_server_program(ServerSpec{}); }), 1u);
  EXPECT_EQ(allocs_to_build([] { return make_pure_compute_program(PureComputeSpec{}); }),
            1u);
  EXPECT_EQ(allocs_to_build([] { return make_fio_program(FioSpec{}); }), 1u);
}

// ---------------------------------------------------------------------------
// Growth the paper's widest VMs pay once: building a System, and the first
// barrier rounds before any warm-up. Both budgets are the counts measured
// with every per-vCPU structure sized up front; a structure that goes
// back to growing by doubling (or to one heap object per pCPU) exceeds
// them.
// ---------------------------------------------------------------------------

/// One VM running streamcluster (a barrier profile) with one task per vCPU.
core::SystemSpec streamcluster_spec(guest::TickMode mode, int vcpus) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(static_cast<std::uint32_t>(vcpus));
  core::VmSpec vm;
  vm.vcpus = vcpus;
  vm.guest.tick_mode = mode;
  vm.setup = [vcpus](guest::GuestKernel& k) {
    install_parsec(k, parsec_profile("streamcluster"), vcpus);
  };
  spec.vms.push_back(std::move(vm));
  return spec;
}

/// Heap allocations from System construction through power_on().
std::uint64_t setup_allocs(guest::TickMode mode, int vcpus) {
  core::SystemSpec spec = streamcluster_spec(mode, vcpus);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  core::System system(std::move(spec));
  system.power_on();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

struct GrowthBudget {
  guest::TickMode mode;
  /// Set-up allocations per further vCPU (with its pCPU and its task).
  double setup_per_vcpu;
  /// Allocations over the first barrier rounds of a 64-vCPU VM.
  std::uint64_t first_rounds;
};

void PrintTo(const GrowthBudget& budget, std::ostream* os) {
  *os << guest::to_string(budget.mode);
}

class GrowthAllocs : public ::testing::TestWithParam<GrowthBudget> {};

TEST_P(GrowthAllocs, SetupCostPerVcpuStaysWithinBudget) {
  const std::uint64_t a16 = setup_allocs(GetParam().mode, 16);
  const std::uint64_t a64 = setup_allocs(GetParam().mode, 64);
  ASSERT_GT(a64, a16);
  const double per_vcpu = static_cast<double>(a64 - a16) / 48.0;
  std::printf("%s set-up allocations: %llu at 16 vCPUs, %llu at 64 vCPUs (%.2f per vCPU)\n",
              guest::to_string(GetParam().mode).data(), static_cast<unsigned long long>(a16),
              static_cast<unsigned long long>(a64), per_vcpu);
  EXPECT_LE(per_vcpu, GetParam().setup_per_vcpu);
}

// No warm-up: from power_on() the first rounds inject the first interrupt
// into every vCPU and send the first wake-IPI batches. Injection saves the
// interrupted context in place, and a kick list is sized to the VM on its
// first kick, so the two cost at most one allocation per vCPU between
// them; what else is in the budget is run queues, timer lists and the
// event queue reaching their working size.
TEST_P(GrowthAllocs, FirstBarrierRoundsStayWithinBudget) {
  constexpr int kVcpus = 64;
  core::System system(streamcluster_spec(GetParam().mode, kVcpus));
  system.power_on();
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  system.engine().run_until(SimTime::ms(5));
  const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - before;
  std::uint64_t wakes = 0;
  for (int t = 0; t < system.kernel(0).task_count(); ++t) {
    wakes += system.kernel(0).task(t).wakes;
  }
  EXPECT_GE(wakes, 3u * (kVcpus - 1)) << "fewer than three barrier rounds ran";
  std::printf("%s first-round allocations: %llu over %llu task wakes\n",
              guest::to_string(GetParam().mode).data(), static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(wakes));
  EXPECT_LE(allocs, GetParam().first_rounds);
}

// Measured: 394 set-up allocations from 16 to 64 vCPUs in every mode (a
// task program growing op by op adds 4 per vCPU, a heap host-tick timer 1),
// and 111-113 over the first rounds (a kick list growing by doubling adds
// 30, a heap-held interrupted context 64).
INSTANTIATE_TEST_SUITE_P(
    Modes, GrowthAllocs,
    ::testing::Values(GrowthBudget{guest::TickMode::kPeriodic, 8.21, 111},
                      GrowthBudget{guest::TickMode::kDynticksIdle, 8.21, 113},
                      GrowthBudget{guest::TickMode::kFullDynticks, 8.21, 113},
                      GrowthBudget{guest::TickMode::kParatick, 8.21, 111}));

}  // namespace
}  // namespace paratick::workload

// Guest-kernel tests: task scheduling, blocking sync (barrier, mutex,
// semaphore), sleeps through the timer subsystem, block I/O waits, and
// preemption — exercised through small full-system simulations.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "expect_error.hpp"
#include "guest/kernel_stack.hpp"
#include "workload/program.hpp"

namespace paratick::guest {
namespace {

using sim::Cycles;
using sim::SimTime;
using workload::Program;
using workload::make_task_body;

struct Built {
  std::unique_ptr<core::System> system;
  metrics::RunResult result;
};

core::SystemSpec base_spec(int cpus, TickMode mode = TickMode::kDynticksIdle) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(static_cast<std::uint32_t>(cpus));
  spec.max_duration = SimTime::sec(5);
  core::VmSpec vm;
  vm.vcpus = cpus;
  vm.guest.tick_mode = mode;
  vm.attach_disk = true;
  spec.vms.push_back(std::move(vm));
  return spec;
}

Built run_with(core::SystemSpec spec, std::function<void(GuestKernel&)> setup) {
  spec.vms[0].setup = std::move(setup);
  auto system = std::make_unique<core::System>(std::move(spec));
  auto result = system->run();
  return {std::move(system), std::move(result)};
}

TEST(GuestKernel, SingleTaskRunsToCompletion) {
  auto built = run_with(base_spec(1), [](GuestKernel& k) {
    Program p;
    p.compute(1'000'000).repeat(10);
    k.add_task(make_task_body(p));
  });
  ASSERT_TRUE(built.result.completion_time().has_value());
  // 10 Mcycles at 2 GHz = 5 ms of pure compute, plus kernel overheads.
  EXPECT_GT(built.result.completion_time()->milliseconds(), 5.0);
  EXPECT_LT(built.result.completion_time()->milliseconds(), 7.0);
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 1);
}

TEST(GuestKernel, TasksSpreadRoundRobinAcrossCpus) {
  auto built = run_with(base_spec(4), [](GuestKernel& k) {
    for (int i = 0; i < 8; ++i) {
      Program p;
      p.compute(100'000);
      k.add_task(make_task_body(p));
    }
  });
  EXPECT_EQ(built.system->kernel(0).task(0).home_cpu, 0);
  EXPECT_EQ(built.system->kernel(0).task(1).home_cpu, 1);
  EXPECT_EQ(built.system->kernel(0).task(5).home_cpu, 1);
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 8);
}

TEST(GuestKernel, BarrierBlocksUntilAllArrive) {
  auto built = run_with(base_spec(2), [](GuestKernel& k) {
    k.create_barrier(0, 2);
    Program fast;
    fast.compute(10'000).barrier(0).compute(10'000);
    Program slow;
    slow.compute(8'000'000).barrier(0).compute(10'000);  // 4 ms
    k.add_task(make_task_body(fast), 0);
    k.add_task(make_task_body(slow), 1);
  });
  // The fast task must have blocked once (waiting for the slow one).
  EXPECT_EQ(built.system->kernel(0).task(0).blocks, 1u);
  EXPECT_EQ(built.system->kernel(0).task(1).blocks, 0u);  // last arrival
  ASSERT_TRUE(built.result.completion_time().has_value());
  EXPECT_GT(built.result.completion_time()->milliseconds(), 4.0);
}

TEST(GuestKernel, BarrierReusableAcrossIterations) {
  auto built = run_with(base_spec(2), [](GuestKernel& k) {
    k.create_barrier(0, 2);
    for (int t = 0; t < 2; ++t) {
      Program p;
      p.compute_exp(50'000).barrier(0).repeat(100);
      k.add_task(make_task_body(p), t);
    }
  });
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 2);
  // ~one block per iteration for whoever loses the race.
  const auto blocks =
      built.system->kernel(0).task(0).blocks + built.system->kernel(0).task(1).blocks;
  EXPECT_GE(blocks, 50u);
  EXPECT_LE(blocks, 100u);
}

TEST(GuestKernel, MutexProvidesExclusionAndHandoff) {
  auto built = run_with(base_spec(4), [](GuestKernel& k) {
    k.create_barrier(0, 4);
    for (int t = 0; t < 4; ++t) {
      Program p;
      p.critical(1, 50'000).barrier(0).repeat(50);  // single hot lock
      k.add_task(make_task_body(p), t);
    }
  });
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 4);
  // Heavy contention: plenty of blocking happened.
  std::uint64_t blocks = 0;
  for (int t = 0; t < 4; ++t) blocks += built.system->kernel(0).task(t).blocks;
  EXPECT_GT(blocks, 100u);
}

TEST(GuestKernel, SemaphoreProducerConsumer) {
  auto built = run_with(base_spec(2), [](GuestKernel& k) {
    Program producer;
    producer.compute(100'000).sem_post(0).repeat(200);
    Program consumer;
    consumer.sem_wait(0).compute(10'000).repeat(200);
    k.add_task(make_task_body(producer), 0);
    k.add_task(make_task_body(consumer), 1);
  });
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 2);
  // The consumer outpaces the producer and blocks for most items.
  EXPECT_GT(built.system->kernel(0).task(1).blocks, 100u);
  EXPECT_LT(built.system->kernel(0).task(0).blocks, 5u);
}

TEST(GuestKernel, SemaphoreCountAllowsBurstWithoutBlocking) {
  auto built = run_with(base_spec(2), [](GuestKernel& k) {
    // Producer posts everything first, consumer drains afterwards.
    Program producer;
    producer.sem_post(0).repeat(50);
    Program consumer;
    consumer.compute(20'000'000).sem_wait(0).repeat(50);  // starts 10 ms late
    k.add_task(make_task_body(producer), 0);
    k.add_task(make_task_body(consumer), 1);
  });
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 2);
}

TEST(GuestKernel, ShortSleepUsesHrtimerAndWakesOnTime) {
  auto built = run_with(base_spec(1), [](GuestKernel& k) {
    Program p;
    p.sleep(SimTime::ms(2)).compute(1000).repeat(5);  // < 4 tick periods
    k.add_task(make_task_body(p));
  });
  ASSERT_TRUE(built.result.completion_time().has_value());
  const double ms = built.result.completion_time()->milliseconds();
  EXPECT_GE(ms, 10.0);  // 5 sleeps of 2 ms
  EXPECT_LT(ms, 14.0);  // woken promptly, not at tick granularity
  EXPECT_EQ(built.system->kernel(0).task(0).blocks, 5u);
}

TEST(GuestKernel, LongSleepWakesOnAJiffyBoundary) {
  auto built = run_with(base_spec(1), [](GuestKernel& k) {
    Program p;
    p.sleep(SimTime::ms(40)).compute(1000);  // >= 4 tick periods -> jiffy path
    k.add_task(make_task_body(p));
  });
  ASSERT_TRUE(built.result.completion_time().has_value());
  const double ms = built.result.completion_time()->milliseconds();
  EXPECT_GE(ms, 40.0);
  EXPECT_LT(ms, 50.0);  // within ~2 jiffies of the deadline

  // A sleep that does not start on a boundary: 30 ms issued ~1 ms in, at
  // 250 Hz. Linux never wakes a sleeper early, so the wake lands on the
  // first jiffy boundary at or after the deadline.
  struct Probe {
    int step = 0;
    SimTime deadline;
  } probe;
  auto late = run_with(base_spec(1), [&probe](GuestKernel& k) {
    k.add_task([&probe](TaskApi& api) {
      switch (probe.step++) {
        case 0:
          api.compute(Cycles{2'000'000});  // 1 ms at 2 GHz
          return;
        case 1:
          probe.deadline = api.now() + SimTime::ms(30);
          api.sleep_for(SimTime::ms(30));
          return;
        default:
          api.finish();
      }
    });
  });
  // woken_at is stamped in the timer callback, a few microseconds of
  // interrupt path after the boundary the timer was due on.
  const std::int64_t jiffy = SimTime::ms(4).nanoseconds();
  const std::int64_t deadline = probe.deadline.nanoseconds();
  const std::int64_t wake = late.system->kernel(0).task(0).woken_at.nanoseconds();
  const std::int64_t boundary = wake - wake % jiffy;
  EXPECT_GT(deadline, SimTime::ms(1).nanoseconds());
  EXPECT_NE(deadline % jiffy, 0);
  EXPECT_GE(wake, deadline);
  EXPECT_GE(boundary, deadline);
  EXPECT_LT(boundary, deadline + jiffy);
  EXPECT_LT(wake - boundary, SimTime::us(100).nanoseconds());
}

TEST(GuestKernel, SleepingVcpuHaltsInsteadOfSpinning) {
  auto built = run_with(base_spec(1), [](GuestKernel& k) {
    Program p;
    p.sleep(SimTime::ms(100)).compute(1000);
    k.add_task(make_task_body(p));
  });
  // During the 100 ms sleep the CPU must be mostly idle.
  const auto idle = built.result.cycles.total(hw::CycleCategory::kIdle).count();
  const auto total = built.result.cycles.grand_total().count();
  EXPECT_GT(static_cast<double>(idle) / static_cast<double>(total), 0.9);
}

TEST(GuestKernel, SyncIoBlocksTaskUntilCompletion) {
  auto built = run_with(base_spec(1), [](GuestKernel& k) {
    Program p;
    hw::IoRequest req;
    req.bytes = 4096;
    p.io(req).repeat(10);
    k.add_task(make_task_body(p));
  });
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 1);
  ASSERT_TRUE(built.result.completion_time().has_value());
  // 10 reads at >= ~30 us device latency.
  EXPECT_GE(built.result.completion_time()->microseconds(), 300.0);
  EXPECT_EQ(built.system->disk(0)->completed_requests(), 10u);
  EXPECT_EQ(built.system->kernel(0).task(0).blocks, 10u);
}

TEST(GuestKernel, TickPreemptionSharesOneCpuBetweenTasks) {
  auto built = run_with(base_spec(1), [](GuestKernel& k) {
    for (int t = 0; t < 2; ++t) {
      Program p;
      // Chunked compute so preemption can happen at op boundaries.
      p.compute(1'000'000).repeat(20);  // 10 ms total each
      k.add_task(make_task_body(p), 0);
    }
  });
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 2);
  ASSERT_TRUE(built.result.vms[0].completion_time.has_value());
  // Both ran interleaved on one vCPU: total ~20 ms + overhead.
  const double ms = built.result.vms[0].completion_time->milliseconds();
  EXPECT_GT(ms, 20.0);
  EXPECT_LT(ms, 25.0);
  // Round-robin means task 0 cannot finish 10 ms before task 1.
  EXPECT_GT(built.system->kernel(0).task(0).finished_at.milliseconds(), 15.0);
}

TEST(GuestKernel, RemoteWakeSendsRescheduleIpi) {
  auto built = run_with(base_spec(2), [](GuestKernel& k) {
    k.create_barrier(0, 2);
    for (int t = 0; t < 2; ++t) {
      Program p;
      p.compute_norm(200'000, 0.5).barrier(0).repeat(20);
      k.add_task(make_task_body(p), t);
    }
  });
  EXPECT_GT(built.result.exits_by_cause[static_cast<std::size_t>(
                hw::ExitCause::kIpiSend)],
            0u);
  EXPECT_EQ(built.system->kernel(0).tasks_done(), 2);
}

TEST(GuestKernel, PolicyStatsAggregateAcrossCpus) {
  auto built = run_with(base_spec(2), [](GuestKernel& k) {
    // Unequal lengths: CPU 0 idles long before the run completes.
    Program fast;
    fast.compute(100'000);
    Program slow;
    slow.compute(20'000'000);
    k.add_task(make_task_body(fast), 0);
    k.add_task(make_task_body(slow), 1);
  });
  const auto stats = built.system->kernel(0).aggregated_policy_stats();
  EXPECT_GT(stats.msr_writes, 0u);   // both boots armed their ticks
  EXPECT_GT(stats.idle_entries, 0u);
}

TEST(GuestKernel, AllDoneFiresExactlyWhenLastTaskFinishes) {
  auto built = run_with(base_spec(2), [](GuestKernel& k) {
    Program fast;
    fast.compute(100'000);
    Program slow;
    slow.compute(10'000'000);
    k.add_task(make_task_body(fast), 0);
    k.add_task(make_task_body(slow), 1);
  });
  ASSERT_TRUE(built.result.vms[0].completion_time.has_value());
  EXPECT_EQ(*built.result.vms[0].completion_time,
            built.system->kernel(0).task(1).finished_at);
}

TEST(GuestKernel, FaultOpCausesBackgroundExit) {
  auto built = run_with(base_spec(1), [](GuestKernel& k) {
    Program p;
    p.compute(10'000).fault().repeat(25);
    k.add_task(make_task_body(p));
  });
  EXPECT_EQ(built.result.exits_by_cause[static_cast<std::size_t>(
                hw::ExitCause::kBackground)],
            25u);
}

TEST(KernelStack, ReturnsLastFrameFirstAndRejectsOverflowAndUnderflow) {
  KernelStack stack;
  std::vector<int> ran;
  stack.push([&ran] { ran.push_back(1); });
  stack.push([&ran] { ran.push_back(2); });
  stack.ret();
  stack.ret();
  EXPECT_EQ(ran, (std::vector<int>{2, 1}));
  EXPECT_TRUE(stack.empty());
  EXPECT_SIM_ERROR(stack.ret(), "no frame to return to");
  for (std::size_t i = 0; i < KernelStack::kCapacity; ++i) stack.push([] {});
  EXPECT_SIM_ERROR(stack.push([] {}), "stack overflow");
}

// Frames are moved, never copied: a captured shared_ptr is shared by the
// test and the pushed frame only, and released once ret() has run it.
TEST(KernelStack, FramesMoveInAndAreReleasedAfterRunning) {
  KernelStack stack;
  auto token = std::make_shared<int>(7);
  int seen = 0;
  stack.push([token, &seen] { seen = *token; });
  EXPECT_EQ(token.use_count(), 2);
  stack.ret();
  EXPECT_EQ(seen, 7);
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(stack.empty());
}

// A frame that pushes from inside its own ret() reuses the slot it was
// popped from; it must still run to completion, and the new frame is the
// one the next ret() runs.
TEST(KernelStack, AFramePushedFromARunningFrameRunsNext) {
  KernelStack stack;
  std::vector<int> ran;
  stack.push([&ran] { ran.push_back(0); });
  stack.push([&stack, &ran] {
    stack.push([&ran] { ran.push_back(2); });
    ran.push_back(1);
  });
  stack.ret();
  EXPECT_EQ(ran, (std::vector<int>{1}));
  stack.ret();
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  stack.ret();
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 0}));
  EXPECT_TRUE(stack.empty());
}

// An interrupt injected at the VM entry that completes a synchronous port
// verb: a wake IPI lands while the vCPU is in the TSC_DEADLINE write exit
// of a short sleep. The hypervisor saves the verb's completion as the
// interrupted context; the sleep path must continue (block the task)
// exactly once, and only at the handler's iret.
class InterruptedVerb : public ::testing::TestWithParam<TickMode> {};

TEST_P(InterruptedVerb, PathContinuesOnceAfterTheHandlersIret) {
  core::SystemSpec spec = base_spec(1, GetParam());
  spec.vms[0].setup = [](GuestKernel& k) {
    Program p;
    p.sleep(SimTime::us(50)).compute(1000);  // hrtimer path: an MSR write
    k.add_task(make_task_body(p));
  };
  core::System system(std::move(spec));
  hv::Vcpu& vcpu = system.kvm().vms()[0]->vcpu(0);
  GuestCpu& cpu = system.kernel(0).cpu(0);
  GuestTask& task = system.kernel(0).task(0);
  system.power_on();

  // Step into the MSR write exit of the sleep's hrtimer programming.
  while (!(cpu.timers().pending_count() > 0 && vcpu.state == hv::VcpuState::kInHost)) {
    ASSERT_TRUE(system.engine().step());
  }
  ASSERT_FALSE(vcpu.current.active);  // a synchronous exit, not a preemption
  const std::uint64_t arm_exits = system.kvm().exits().count(hw::ExitCause::kGuestTimerArm);
  const std::uint64_t injections = vcpu.injections;
  system.kvm().deliver_interrupt(vcpu, hw::vectors::kRescheduleIpi,
                                 hw::ExitCause::kWakeIpi);

  bool saw_handler = false;
  while (task.blocks == 0) {
    const bool in_handler = vcpu.interrupted.has_value();
    ASSERT_TRUE(system.engine().step());
    if (vcpu.interrupted.has_value() && !saw_handler) {
      saw_handler = true;
      // Injected at the entry completing the write: the saved context is
      // the verb's completion, not a partial segment or the idle loop.
      EXPECT_EQ(vcpu.interrupted->then, hv::Resume::kPortDone);
      EXPECT_EQ(vcpu.interrupted->remaining, Cycles{0});
    }
    if (task.blocks != 0) {
      // The path continued in the step that ran the handler's iret.
      EXPECT_TRUE(in_handler);
      EXPECT_FALSE(vcpu.interrupted.has_value());
    }
  }
  EXPECT_TRUE(saw_handler);
  EXPECT_EQ(vcpu.injections, injections + 1);
  EXPECT_EQ(system.kvm().exits().count(hw::ExitCause::kGuestTimerArm), arm_exits);

  system.engine().run_until(SimTime::sec(1));
  const auto result = system.finish();
  EXPECT_EQ(system.kernel(0).tasks_done(), 1);
  EXPECT_EQ(task.blocks, 1u);  // continued once: one block, one wake
  EXPECT_EQ(task.wakes, 1u);
  EXPECT_TRUE(result.completion_time().has_value());
}

INSTANTIATE_TEST_SUITE_P(Modes, InterruptedVerb,
                         ::testing::Values(TickMode::kPeriodic, TickMode::kDynticksIdle,
                                           TickMode::kFullDynticks, TickMode::kParatick));

}  // namespace
}  // namespace paratick::guest

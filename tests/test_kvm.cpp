// Hypervisor run-loop tests: exits, entries, injection, halt/wake, the
// paratick host hook (Figure 2), host ticks, halt polling, overcommit
// scheduling and the virtio backend — all against a scripted stub guest.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/system.hpp"
#include "hv/kvm.hpp"
#include "hw/block_device.hpp"

namespace paratick::hv {
namespace {

using sim::Cycles;
using sim::SimTime;

class StubGuest final : public GuestCpuIface {
 public:
  // The hypervisor and vCPU this stub executes on (Kvm::port_* verbs).
  Kvm* kvm = nullptr;
  Vcpu* vcpu = nullptr;
  std::function<void(StubGuest&)> on_power_on;             // default: halt
  std::function<void(StubGuest&, hw::Vector)> on_irq;      // default: iret
  std::function<void(StubGuest&)> on_idle;                 // default: halt

  std::vector<hw::Vector> irqs;
  int power_ons = 0;
  int idle_resumes = 0;
  /// Continuations of issued synchronous verbs; port_done runs the top.
  std::vector<std::function<void()>> frames;

  /// Continue at `next` once the verb issued next completes.
  void then(std::function<void()> next) { frames.push_back(std::move(next)); }
  /// Halt once the verb issued next completes.
  void then_halt() {
    then([this] { kvm->port_hlt(*vcpu); });
  }

  void power_on() override {
    ++power_ons;
    if (on_power_on) {
      on_power_on(*this);
    } else {
      kvm->port_hlt(*vcpu);
    }
  }
  void handle_interrupt(hw::Vector v) override {
    irqs.push_back(v);
    if (on_irq) {
      on_irq(*this, v);
    } else {
      kvm->port_iret(*vcpu);
    }
  }
  void idle_resume() override {
    ++idle_resumes;
    if (on_idle) {
      on_idle(*this);
    } else {
      kvm->port_hlt(*vcpu);
    }
  }
  void port_done() override {
    ASSERT_FALSE(frames.empty()) << "verb completed with no continuation";
    auto next = std::move(frames.back());
    frames.pop_back();
    next();
  }
};

class KvmTest : public ::testing::Test {
 protected:
  void build(int pcpus, int vcpus, HostConfig config = {}) {
    machine_.emplace(hw::MachineSpec::small(static_cast<std::uint32_t>(pcpus)));
    kvm_.emplace(engine_, *machine_, config);
    VmConfig vconf;
    vconf.vcpus = vcpus;
    vm_ = &kvm_->create_vm(vconf);
    guests_.resize(static_cast<std::size_t>(vcpus));
    for (int i = 0; i < vcpus; ++i) {
      auto& g = guests_[static_cast<std::size_t>(i)];
      g.kvm = &*kvm_;
      g.vcpu = &vm_->vcpu(i);
      kvm_->attach_guest(vm_->vcpu(i), &g);
    }
  }

  StubGuest& guest(int i = 0) { return guests_[static_cast<std::size_t>(i)]; }
  Vcpu& vcpu(int i = 0) { return vm_->vcpu(i); }

  sim::Engine engine_;
  std::optional<hw::Machine> machine_;
  std::optional<Kvm> kvm_;
  Vm* vm_ = nullptr;
  std::vector<StubGuest> guests_;
};

TEST_F(KvmTest, PowerOnReachesGuest) {
  build(1, 1);
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(1));
  EXPECT_EQ(guest().power_ons, 1);
  EXPECT_EQ(vcpu().state, VcpuState::kHalted);
}

TEST_F(KvmTest, RunConsumesTimeAndChargesCycles) {
  build(1, 1);
  SimTime finished;
  guest().on_power_on = [&](StubGuest& g) {
    g.then([&, &g = g] {
      finished = g.kvm->engine().now();
      g.kvm->port_hlt(*g.vcpu);
    });
    g.kvm->port_run(*g.vcpu, Cycles{200'000}, hw::CycleCategory::kGuestUser);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(5));
  // 200k cycles at 2 GHz = 100 us (plus boot/exit costs).
  EXPECT_GE(finished, SimTime::us(100));
  EXPECT_LT(finished, SimTime::us(200));
  EXPECT_GE(machine_->cpu(0).ledger().total(hw::CycleCategory::kGuestUser).count(),
            200'000);
}

TEST_F(KvmTest, MsrWriteCostsTimerArmExitAndArmsTimer) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_write_tsc_deadline(*g.vcpu, SimTime::ms(2));
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(1));
  EXPECT_EQ(kvm_->exits().count(hw::ExitCause::kGuestTimerArm), 1u);
  EXPECT_EQ(vcpu().guest_deadline, SimTime::ms(2));
}

TEST_F(KvmTest, TimerFireWakesHaltedVcpuWithLocalTimerVector) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_write_tsc_deadline(*g.vcpu, SimTime::ms(2));
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(3));
  ASSERT_EQ(guest().irqs.size(), 1u);
  EXPECT_EQ(guest().irqs[0], hw::vectors::kLocalTimer);
  EXPECT_EQ(vcpu().wakeups, 1u);
}

TEST_F(KvmTest, TimerFireWhileRunningIsPreemptionTimerExit) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    g.then([&g] {
      // Long busy segment so the deadline hits while running.
      g.then_halt();
      g.kvm->port_run(*g.vcpu, Cycles{1'000'000}, hw::CycleCategory::kGuestUser);
    });
    g.kvm->port_write_tsc_deadline(*g.vcpu, SimTime::us(50));
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(2));
  EXPECT_EQ(kvm_->exits().count(hw::ExitCause::kGuestTimerFire), 1u);
  ASSERT_GE(guest().irqs.size(), 1u);
  EXPECT_EQ(guest().irqs[0], hw::vectors::kLocalTimer);
}

TEST_F(KvmTest, InterruptedSegmentResumesAndCompletes) {
  build(1, 1);
  static bool completed;
  completed = false;
  guest().on_power_on = [&](StubGuest& g) {
    g.then([&g] {
      g.then([&g] {
        completed = true;
        g.kvm->port_hlt(*g.vcpu);
      });
      g.kvm->port_run(*g.vcpu, Cycles{1'000'000}, hw::CycleCategory::kGuestUser);
    });
    g.kvm->port_write_tsc_deadline(*g.vcpu, SimTime::us(50));
  };
  // default irq handler irets, which must resume the interrupted segment
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(2));
  EXPECT_TRUE(completed);
  // Full 1M cycles were charged despite the interruption.
  EXPECT_GE(machine_->cpu(0).ledger().total(hw::CycleCategory::kGuestUser).count(),
            1'000'000);
}

TEST_F(KvmTest, HltWithPendingVectorReturnsImmediately) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_run(*g.vcpu, Cycles{2000}, hw::CycleCategory::kGuestUser);
  };
  // Raise a vector while the vCPU is inside the HLT exit window (~8 us
  // after the ~2.7 us boot+segment): HLT must return without sleeping.
  engine_.schedule_at(SimTime::us(5), [&] {
    ASSERT_EQ(vcpu().state, VcpuState::kInHost);
    kvm_->deliver_interrupt(vcpu(), 99, hw::ExitCause::kWakeIpi);
  });
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(1));
  ASSERT_GE(guest().irqs.size(), 1u);
  EXPECT_EQ(guest().irqs[0], 99);
  EXPECT_EQ(vcpu().wakeups, 0u);  // never actually slept
}

TEST_F(KvmTest, HostTickExitsAccrueWhileRunning) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_run(*g.vcpu, Cycles{40'000'000},  // 20 ms busy
                    hw::CycleCategory::kGuestUser);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(25));
  // 250 Hz host tick over ~20 ms busy: ~5 exits.
  const auto ticks = kvm_->exits().count(hw::ExitCause::kHostTick);
  EXPECT_GE(ticks, 3u);
  EXPECT_LE(ticks, 7u);
}

TEST_F(KvmTest, NoHostTickWhileHalted) {
  build(1, 1);
  kvm_->power_on_all();
  engine_.run_until(SimTime::sec(1));
  EXPECT_LE(kvm_->exits().count(hw::ExitCause::kHostTick), 1u);
}

TEST_F(KvmTest, ParatickHookInjectsVector235AtTickRate) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    HypercallRequest req;
    req.enable_paratick = true;
    req.guest_tick_period = SimTime::ms(4);
    g.then([&g] {
      g.then_halt();
      g.kvm->port_run(*g.vcpu, Cycles{40'000'000},  // 20 ms
                      hw::CycleCategory::kGuestUser);
    });
    g.kvm->port_hypercall(*g.vcpu, req);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(30));
  EXPECT_EQ(kvm_->exits().count(hw::ExitCause::kHypercall), 1u);
  int paraticks = 0;
  for (auto v : guest().irqs) paraticks += v == hw::vectors::kParatick ? 1 : 0;
  // ~20 ms running at 250 Hz -> ~5 virtual ticks, injected at entries.
  EXPECT_GE(paraticks, 3);
  EXPECT_LE(paraticks, 7);
}

TEST_F(KvmTest, ParatickPendingLocalTimerSuppressesInjection) {
  build(1, 1);
  // §5.1: if a local timer interrupt is about to be injected, it counts as
  // the tick (last_tick updated, no vector 235).
  guest().on_power_on = [&](StubGuest& g) {
    HypercallRequest req;
    req.enable_paratick = true;
    req.guest_tick_period = SimTime::ms(4);
    g.then([&g] {
      g.then_halt();
      g.kvm->port_write_tsc_deadline(*g.vcpu, g.kvm->engine().now() + SimTime::ms(5));
    });
    g.kvm->port_hypercall(*g.vcpu, req);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(10));
  ASSERT_FALSE(guest().irqs.empty());
  EXPECT_EQ(guest().irqs[0], hw::vectors::kLocalTimer);
  // last_tick was refreshed by the heuristic at that entry.
  EXPECT_GE(vcpu().last_tick, SimTime::ms(5));
  for (auto v : guest().irqs) EXPECT_NE(v, hw::vectors::kParatick);
}

TEST_F(KvmTest, IdleParatickVcpuGetsNoVirtualTicks) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    HypercallRequest req;
    req.enable_paratick = true;
    g.then_halt();
    g.kvm->port_hypercall(*g.vcpu, req);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::sec(1));
  for (auto v : guest().irqs) EXPECT_NE(v, hw::vectors::kParatick);
}

TEST_F(KvmTest, AuxTimerBacksIncompatibleFrequencies) {
  HostConfig config;
  config.host_tick_freq = sim::Frequency{300.0};  // not a multiple of 250
  build(1, 1, config);
  guest().on_power_on = [&](StubGuest& g) {
    HypercallRequest req;
    req.enable_paratick = true;
    req.guest_tick_period = SimTime::ms(4);
    g.then([&g] {
      g.then_halt();
      g.kvm->port_run(*g.vcpu, Cycles{80'000'000},  // 40 ms
                      hw::CycleCategory::kGuestUser);
    });
    g.kvm->port_hypercall(*g.vcpu, req);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(50));
  EXPECT_GT(kvm_->exits().count(hw::ExitCause::kAuxParatickTimer), 0u);
  int paraticks = 0;
  for (auto v : guest().irqs) paraticks += v == hw::vectors::kParatick ? 1 : 0;
  // Still roughly one virtual tick per 4 ms of running time.
  EXPECT_GE(paraticks, 8);
  EXPECT_LE(paraticks, 12);
}

TEST_F(KvmTest, IpiSendCostsExitAndWakesTarget) {
  build(2, 2);
  guest(1).on_power_on = [](StubGuest& g) { g.kvm->port_hlt(*g.vcpu); };
  guest(0).on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_send_ipi(*g.vcpu, 1, hw::vectors::kRescheduleIpi);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(1));
  EXPECT_EQ(kvm_->exits().count(hw::ExitCause::kIpiSend), 1u);
  ASSERT_FALSE(guest(1).irqs.empty());
  EXPECT_EQ(guest(1).irqs[0], hw::vectors::kRescheduleIpi);
}

TEST_F(KvmTest, IpiToRunningTargetCausesWakeIpiExit) {
  build(2, 2);
  guest(1).on_power_on = [](StubGuest& g) {
    g.then_halt();
    g.kvm->port_run(*g.vcpu, Cycles{10'000'000}, hw::CycleCategory::kGuestUser);
  };
  guest(0).on_power_on = [&](StubGuest& g) {
    g.then([&g] {
      g.then_halt();
      g.kvm->port_send_ipi(*g.vcpu, 1, hw::vectors::kRescheduleIpi);
    });
    g.kvm->port_run(*g.vcpu, Cycles{100'000}, hw::CycleCategory::kGuestUser);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(10));
  EXPECT_EQ(kvm_->exits().count(hw::ExitCause::kWakeIpi), 1u);
}

TEST_F(KvmTest, BlockIoRoundTrip) {
  build(1, 1);
  hw::BlockDevice disk(engine_, hw::BlockDeviceSpec::sata_ssd(), sim::Rng{5});
  kvm_->attach_block_device(*vm_, disk);

  std::vector<hw::IoRequest> drained;
  guest().on_irq = [&](StubGuest& g, hw::Vector v) {
    if (v == hw::vectors::kBlockDevice) {
      std::vector<hw::IoRequest> got;
      g.kvm->port_drain_io_completions(*g.vcpu, got);
      drained.insert(drained.end(), got.begin(), got.end());
    }
    g.kvm->port_iret(*g.vcpu);
  };
  guest().on_power_on = [&](StubGuest& g) {
    hw::IoRequest req;
    req.bytes = 4096;
    req.cookie = 4242;  // guest cookie must round-trip through the backend
    g.then_halt();
    g.kvm->port_io_submit(*g.vcpu, req);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(5));
  EXPECT_EQ(kvm_->exits().count(hw::ExitCause::kIoKick), 1u);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].cookie, 4242u);
}

TEST_F(KvmTest, HaltPollingAvoidsScheduleOutForFastWakes) {
  HostConfig config;
  config.halt_polling = true;
  config.halt_poll_window = SimTime::us(200);
  build(1, 1, config);
  guest().on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_write_tsc_deadline(*g.vcpu, g.kvm->engine().now() + SimTime::us(50));
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(1));
  ASSERT_FALSE(guest().irqs.empty());
  // Wake arrived within the poll window: cycles were burned polling...
  EXPECT_GT(machine_->cpu(0).ledger().total(hw::CycleCategory::kHaltPoll).count(), 0);
  // ...and the wake did not go through the scheduler (no halted wakeup).
  EXPECT_EQ(vcpu().wakeups, 1u);
}

TEST_F(KvmTest, HaltPollWindowExpiryReleasesCpu) {
  HostConfig config;
  config.halt_polling = true;
  config.halt_poll_window = SimTime::us(100);
  build(1, 1, config);
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(2));
  EXPECT_EQ(vcpu().state, VcpuState::kHalted);
  const auto polled =
      machine_->cpu(0).ledger().total(hw::CycleCategory::kHaltPoll).count();
  EXPECT_NEAR(static_cast<double>(polled), 200'000.0, 2000.0);  // 100 us at 2 GHz
}

TEST_F(KvmTest, SharedModeRunsMoreVcpusThanCpus) {
  HostConfig config;
  config.sched_mode = SchedMode::kShared;
  config.timeslice = SimTime::ms(2);
  build(1, 3, config);
  std::vector<bool> finished(3, false);
  for (int i = 0; i < 3; ++i) {
    guest(i).on_power_on = [&, i](StubGuest& g) {
      g.then([&, i, &g = g] {
        finished[static_cast<std::size_t>(i)] = true;
        g.kvm->port_hlt(*g.vcpu);
      });
      g.kvm->port_run(*g.vcpu, Cycles{8'000'000}, hw::CycleCategory::kGuestUser);
    };
  }
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(40));
  EXPECT_TRUE(finished[0]);
  EXPECT_TRUE(finished[1]);
  EXPECT_TRUE(finished[2]);
}

TEST_F(KvmTest, SharedModePreemptsOnTimeslice) {
  HostConfig config;
  config.sched_mode = SchedMode::kShared;
  config.timeslice = SimTime::ms(1);
  build(1, 2, config);
  SimTime second_started;
  guest(0).on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_run(*g.vcpu, Cycles{20'000'000}, hw::CycleCategory::kGuestUser);  // 10 ms
  };
  guest(1).on_power_on = [&](StubGuest& g) {
    second_started = g.kvm->engine().now();
    g.kvm->port_hlt(*g.vcpu);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(30));
  // vCPU 1 must have been scheduled long before vCPU 0's 10 ms burst ended.
  EXPECT_LT(second_started, SimTime::ms(8));
  EXPECT_GT(second_started, SimTime::zero());
}

TEST_F(KvmTest, ExitStatsTrackPerVm) {
  build(2, 1);
  VmConfig vconf2;
  vconf2.vcpus = 1;
  Vm& vm2 = kvm_->create_vm(vconf2);
  StubGuest g2;
  g2.kvm = &*kvm_;
  g2.vcpu = &vm2.vcpu(0);
  kvm_->attach_guest(vm2.vcpu(0), &g2);

  guest(0).on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_background_exit(*g.vcpu);
  };
  g2.on_power_on = [&](StubGuest& g) {
    g.then([&g] {
      g.then_halt();
      g.kvm->port_background_exit(*g.vcpu);
    });
    g.kvm->port_background_exit(*g.vcpu);
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(1));
  EXPECT_EQ(kvm_->exits().count_for_vm(0, hw::ExitCause::kBackground), 1u);
  EXPECT_EQ(kvm_->exits().count_for_vm(1, hw::ExitCause::kBackground), 2u);
  EXPECT_EQ(kvm_->exits().count(hw::ExitCause::kBackground), 3u);
}

TEST_F(KvmTest, ChainedInterruptsDeliverBackToBack) {
  build(1, 1);
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(1));
  ASSERT_EQ(vcpu().state, VcpuState::kHalted);
  // Two vectors wake the sleeping vCPU; both must be delivered at the same
  // entry, higher vector first, second one chained at iret.
  kvm_->deliver_interrupt(vcpu(), 50, hw::ExitCause::kWakeIpi);
  kvm_->deliver_interrupt(vcpu(), 60, hw::ExitCause::kWakeIpi);
  engine_.run_until(SimTime::ms(2));
  ASSERT_EQ(guest().irqs.size(), 2u);
  EXPECT_EQ(guest().irqs[0], 60);  // higher vector first
  EXPECT_EQ(guest().irqs[1], 50);
  EXPECT_EQ(vcpu().wakeups, 1u);  // one wake covered both
  EXPECT_EQ(vcpu().injections, 2u);
  EXPECT_EQ(vcpu().last_injected, 50);  // the chained one, injected at iret
}

TEST_F(KvmTest, PleDisabledSpinsWithoutPauseExits) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_spin(*g.vcpu, Cycles{100'000});
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(1));
  EXPECT_EQ(kvm_->exits().count(hw::ExitCause::kPauseLoop), 0u);
}

TEST_F(KvmTest, PleEnabledAddsPauseExitsForLongSpins) {
  HostConfig config;
  config.pause_loop_exiting = true;
  config.ple_window = Cycles{8192};
  build(1, 1, config);
  guest().on_power_on = [&](StubGuest& g) {
    g.then_halt();
    g.kvm->port_spin(*g.vcpu, Cycles{100'000});
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(2));
  const auto ple = kvm_->exits().count(hw::ExitCause::kPauseLoop);
  EXPECT_GE(ple, 10u);  // ~100k / 8192
  EXPECT_LE(ple, 13u);
}

TEST_F(KvmTest, DisarmingDeadlineCancelsTimer) {
  build(1, 1);
  guest().on_power_on = [&](StubGuest& g) {
    g.then([&g] {
      g.then_halt();
      g.kvm->port_write_tsc_deadline(*g.vcpu, std::nullopt);
    });
    g.kvm->port_write_tsc_deadline(*g.vcpu, SimTime::ms(1));
  };
  kvm_->power_on_all();
  engine_.run_until(SimTime::ms(5));
  EXPECT_TRUE(guest().irqs.empty());  // never fired
  EXPECT_FALSE(vcpu().guest_deadline.has_value());
}

TEST(KvmSystem, PeriodicIdleVcpuTellsTheTickStory) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  spec.max_duration = SimTime::ms(20);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.guest.tick_mode = guest::TickMode::kPeriodic;
  spec.vms.push_back(std::move(vm));
  core::System system(std::move(spec));
  system.run();

  // The periodic idle VM cycles: wake -> entry -> inject(timer) ->
  // exit(arm) -> entry -> halt -> ...; ~5 ticks in 20 ms at 250 Hz.
  const Vcpu& v = system.kvm().vms()[0]->vcpu(0);
  EXPECT_NEAR(static_cast<double>(v.injections), 5, 2);
  EXPECT_NEAR(static_cast<double>(v.halts), 6, 2);
  EXPECT_NEAR(static_cast<double>(v.wakeups), 5, 2);
  EXPECT_EQ(v.last_injected, hw::vectors::kLocalTimer);
}

}  // namespace
}  // namespace paratick::hv

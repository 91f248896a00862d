// Unit tests of the scheduler-tick policies — the tick-sched class in its
// periodic, dynticks-idle and full-dynticks modes, and paratick — against
// the paper's Figures 1 (tickless) and 3 (paratick), using a synchronous
// mock CPU.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "guest/tick_policies.hpp"
#include "mock_tick_cpu.hpp"
#include "sim/rng.hpp"

namespace paratick::guest {
namespace {

using sim::SimTime;
using testing::MockTickCpu;

class TickPolicyTest : public ::testing::Test {
 protected:
  MockTickCpu cpu;
};

// ---------------------------------------------------------------------------
// Periodic (§2/§3.1)
// ---------------------------------------------------------------------------

using PeriodicTest = TickPolicyTest;

TEST_F(PeriodicTest, BootArmsOnePeriodOut) {
  auto p = make_tick_policy(TickMode::kPeriodic, cpu);
  p->on_boot();
  ASSERT_EQ(cpu.msr_writes.size(), 1u);
  EXPECT_EQ(cpu.msr_writes[0].deadline, SimTime::ms(4));
  EXPECT_EQ(cpu.returns, 1);
}

TEST_F(PeriodicTest, EveryTickRearmsOnTheGrid) {
  auto p = make_tick_policy(TickMode::kPeriodic, cpu);
  p->on_boot();
  for (int i = 1; i <= 5; ++i) {
    cpu.clock = SimTime::ms(4 * i);
    p->on_physical_tick();
    EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(4 * (i + 1)));
  }
  EXPECT_EQ(p->stats().ticks_handled, 5u);
  EXPECT_EQ(p->stats().msr_writes, 6u);  // boot + 5 rearms
  EXPECT_EQ(cpu.tick_work_calls, 5);
}

TEST_F(PeriodicTest, CatchesUpAfterProcessingDelay) {
  auto p = make_tick_policy(TickMode::kPeriodic, cpu);
  p->on_boot();
  cpu.clock = SimTime::ms(13);  // three periods slipped by
  p->on_physical_tick();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(16));  // next grid point
}

TEST_F(PeriodicTest, IdleTransitionsAreFree) {
  auto p = make_tick_policy(TickMode::kPeriodic, cpu);
  p->on_boot();
  const auto writes = cpu.msr_writes.size();
  p->on_idle_enter();
  p->on_idle_exit();
  EXPECT_EQ(cpu.msr_writes.size(), writes);  // the tick just keeps running
  EXPECT_EQ(cpu.returns, 3);
}

TEST_F(PeriodicTest, IgnoresVirtualTicks) {
  auto p = make_tick_policy(TickMode::kPeriodic, cpu);
  p->on_virtual_tick();
  EXPECT_EQ(cpu.tick_work_calls, 0);
  EXPECT_EQ(cpu.returns, 1);
}

// ---------------------------------------------------------------------------
// Dynticks idle (Figure 1)
// ---------------------------------------------------------------------------

using DynticksTest = TickPolicyTest;

TEST_F(DynticksTest, Fig1a_TickWorkThenRearmWhileRunning) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  cpu.clock = SimTime::ms(4);
  p->on_physical_tick();
  EXPECT_EQ(cpu.tick_work_calls, 1);
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(8));
}

TEST_F(DynticksTest, Fig1b_TickNeededKeepsTickWithoutMsrWrite) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  const auto writes = cpu.msr_writes.size();
  cpu.snapshot.tick_needed = true;  // RCU / softirq pending
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.size(), writes);
  auto* d = dynamic_cast<TickSchedPolicy*>(p.get());
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->tick_stopped());
}

TEST_F(DynticksTest, Fig1b_NearEventKeepsTickButArmsEarlierHrtimer) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  const auto writes = cpu.msr_writes.size();
  cpu.snapshot.next_event = SimTime::ms(2);  // within one tick period
  p->on_idle_enter();
  // The tick survives (no stop), but high-res mode hands the hardware the
  // earlier hrtimer — otherwise the 2 ms event would wait for the 4 ms
  // grid point.
  EXPECT_EQ(cpu.msr_writes.size(), writes + 1);
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(2));
  auto* d = dynamic_cast<TickSchedPolicy*>(p.get());
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->tick_stopped());
}

TEST_F(DynticksTest, Fig1b_NearEventAlreadyCoveredSkipsMsrWrite) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();  // tick armed at 4 ms
  const auto writes = cpu.msr_writes.size();
  cpu.snapshot.next_event = SimTime::ms(4);  // the armed tick covers it
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.size(), writes);
}

TEST_F(DynticksTest, Fig1b_FarEventDefersTimerToIt) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  cpu.snapshot.next_event = SimTime::ms(40);
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(40));
  auto* d = dynamic_cast<TickSchedPolicy*>(p.get());
  EXPECT_TRUE(d->tick_stopped());
}

TEST_F(DynticksTest, Fig1b_NoEventDisablesTimerEntirely) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  p->on_idle_enter();
  EXPECT_FALSE(cpu.msr_writes.back().deadline.has_value());  // disarm
}

TEST_F(DynticksTest, Fig1c_IdleExitRestartsStoppedTick) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  p->on_idle_enter();  // stops the tick
  cpu.clock = SimTime::ms(10);
  p->on_idle_exit();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(14));
  auto* d = dynamic_cast<TickSchedPolicy*>(p.get());
  EXPECT_FALSE(d->tick_stopped());
}

TEST_F(DynticksTest, Fig1c_IdleExitFreeWhenTickNotStopped) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  cpu.snapshot.tick_needed = true;
  p->on_idle_enter();
  const auto writes = cpu.msr_writes.size();
  p->on_idle_exit();
  EXPECT_EQ(cpu.msr_writes.size(), writes);
}

TEST_F(DynticksTest, Fig1a_StoppedTickDoesNotRearm) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  cpu.snapshot.next_event = SimTime::ms(40);
  p->on_idle_enter();  // defers to 40 ms
  const auto writes = cpu.msr_writes.size();
  cpu.clock = SimTime::ms(40);
  p->on_physical_tick();  // the deferred wake-up
  EXPECT_EQ(cpu.tick_work_calls, 1);
  EXPECT_EQ(cpu.msr_writes.size(), writes);  // Figure 1a: skip the re-arm
}

TEST_F(DynticksTest, RepeatedIdleEntrySkipsRedundantWrite) {
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  p->on_idle_enter();  // disarm (nullopt)
  const auto writes = cpu.msr_writes.size();
  // Woken by an interrupt that did not restart the tick (still idle), then
  // idle again with an unchanged (empty) timer list:
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.size(), writes);
  EXPECT_EQ(p->stats().msr_writes_avoided, 1u);
}

TEST_F(DynticksTest, TwoExitsPerIdleTransition) {
  // The §3.2 cost: one MSR write on idle entry, one on idle exit.
  auto p = make_tick_policy(TickMode::kDynticksIdle, cpu);
  p->on_boot();
  const auto base = p->stats().msr_writes;
  for (int i = 0; i < 10; ++i) {
    p->on_idle_enter();
    cpu.clock += SimTime::us(50);
    p->on_idle_exit();
  }
  EXPECT_EQ(p->stats().msr_writes - base, 20u);
}

// ---------------------------------------------------------------------------
// Full dynticks (NO_HZ_FULL) — the §2 mode the paper excludes; implemented
// as an extension.
// ---------------------------------------------------------------------------

using FullDynticksTest = TickPolicyTest;

TEST_F(FullDynticksTest, SingleTaskStopsTickWhileBusy) {
  auto p = make_tick_policy(TickMode::kFullDynticks, cpu);
  p->on_boot();
  cpu.running = 1;
  cpu.idle = false;
  cpu.clock = SimTime::ms(4);
  p->on_physical_tick();
  // Deferred to the 1 s housekeeping horizon instead of the next period.
  ASSERT_TRUE(cpu.msr_writes.back().deadline.has_value());
  EXPECT_EQ(*cpu.msr_writes.back().deadline,
            SimTime::ms(4) + TickSchedPolicy::kHousekeepingPeriod);
  EXPECT_EQ(p->stats().busy_stops, 1u);
}

TEST_F(FullDynticksTest, MultipleTasksKeepPeriodicTick) {
  auto p = make_tick_policy(TickMode::kFullDynticks, cpu);
  p->on_boot();
  cpu.running = 2;  // contended CPU: the tick must keep time-slicing
  cpu.clock = SimTime::ms(4);
  p->on_physical_tick();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(8));
  EXPECT_EQ(p->stats().busy_stops, 0u);
}

TEST_F(FullDynticksTest, RcuPendingKeepsTickEvenWithOneTask) {
  auto p = make_tick_policy(TickMode::kFullDynticks, cpu);
  p->on_boot();
  cpu.running = 1;
  cpu.snapshot.tick_needed = true;
  cpu.clock = SimTime::ms(4);
  p->on_physical_tick();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(8));
}

TEST_F(FullDynticksTest, PendingEventBoundsTheDeferral) {
  auto p = make_tick_policy(TickMode::kFullDynticks, cpu);
  p->on_boot();
  cpu.running = 1;
  cpu.snapshot.next_event = SimTime::ms(20);
  cpu.clock = SimTime::ms(4);
  p->on_physical_tick();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(20));
}

TEST_F(FullDynticksTest, IdleExitWithSingleTaskStaysAdaptive) {
  auto p = make_tick_policy(TickMode::kFullDynticks, cpu);
  p->on_boot();
  p->on_idle_enter();  // stop (no events)
  cpu.clock = SimTime::ms(10);
  cpu.running = 1;
  p->on_idle_exit();
  ASSERT_TRUE(cpu.msr_writes.back().deadline.has_value());
  EXPECT_EQ(*cpu.msr_writes.back().deadline,
            SimTime::ms(10) + TickSchedPolicy::kHousekeepingPeriod);
}

TEST_F(FullDynticksTest, StillPaysMsrWritePerAdaptiveDecision) {
  // The §2 point: full dynticks reduces tick *interrupts* but every
  // adaptive decision is still an MSR write — a VM exit in a guest.
  auto p = make_tick_policy(TickMode::kFullDynticks, cpu);
  p->on_boot();
  const auto base = p->stats().msr_writes;
  cpu.running = 1;
  for (int i = 0; i < 10; ++i) {
    p->on_idle_enter();
    cpu.clock += SimTime::us(100);
    p->on_idle_exit();
  }
  EXPECT_GE(p->stats().msr_writes - base, 10u);
}

// ---------------------------------------------------------------------------
// Paratick (Figures 2/3, §5.2)
// ---------------------------------------------------------------------------

using ParatickTest = TickPolicyTest;

TEST_F(ParatickTest, BootDeclaresFrequencyInsteadOfArming) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  EXPECT_EQ(cpu.hypercalls, 1);
  EXPECT_EQ(cpu.declared_period, SimTime::ms(4));
  EXPECT_TRUE(cpu.msr_writes.empty());
}

TEST_F(ParatickTest, Fig3a_VirtualTickNeverArms) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  for (int i = 0; i < 20; ++i) {
    cpu.clock += SimTime::ms(4);
    p->on_virtual_tick();
  }
  EXPECT_EQ(cpu.tick_work_calls, 20);
  EXPECT_TRUE(cpu.msr_writes.empty());
  EXPECT_EQ(p->stats().virtual_ticks, 20u);
}

TEST_F(ParatickTest, Fig3b_PhysicalTickWhileIdleActsAsVirtualTick) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.idle = true;
  p->on_physical_tick();
  EXPECT_EQ(cpu.tick_work_calls, 1);
  EXPECT_TRUE(cpu.msr_writes.empty());  // never re-armed
}

TEST_F(ParatickTest, Fig3b_PhysicalTickWhileBusyDoesNothing) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.idle = false;
  p->on_physical_tick();
  EXPECT_EQ(cpu.tick_work_calls, 0);  // virtual ticks are flowing
  EXPECT_EQ(cpu.returns, 2);
}

TEST_F(ParatickTest, Fig3c_NothingScheduledMeansNoTimer) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  p->on_idle_enter();
  EXPECT_TRUE(cpu.msr_writes.empty());
}

TEST_F(ParatickTest, Fig3c_TickNeededArmsOnePeriodOut) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.snapshot.tick_needed = true;
  p->on_idle_enter();
  ASSERT_EQ(cpu.msr_writes.size(), 1u);
  EXPECT_EQ(cpu.msr_writes[0].deadline, SimTime::ms(4));
}

TEST_F(ParatickTest, Fig3c_NextEventArmsAtEvent) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.snapshot.next_event = SimTime::ms(25);
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(25));
}

TEST_F(ParatickTest, Fig3d_IdleExitNeverTouchesTimer) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.snapshot.tick_needed = true;
  p->on_idle_enter();
  const auto writes = cpu.msr_writes.size();
  for (int i = 0; i < 5; ++i) p->on_idle_exit();
  EXPECT_EQ(cpu.msr_writes.size(), writes);
}

TEST_F(ParatickTest, NeverDisarmHeuristicReusesEarlierDeadline) {
  // §5.2.4: "only if the timer is not running or the newly determined
  // expiry time is sooner than the timer's, it is (re)programmed."
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.snapshot.next_event = SimTime::ms(10);
  p->on_idle_enter();  // arms at 10 ms
  ASSERT_EQ(cpu.msr_writes.size(), 1u);

  p->on_idle_exit();
  cpu.clock = SimTime::ms(2);
  cpu.snapshot.next_event = SimTime::ms(12);  // later than the armed 10 ms
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.size(), 1u);  // no exit: the armed timer suffices
  EXPECT_EQ(p->stats().msr_writes_avoided, 1u);
}

TEST_F(ParatickTest, EarlierDeadlineDoesReprogram) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.snapshot.next_event = SimTime::ms(10);
  p->on_idle_enter();
  p->on_idle_exit();
  cpu.snapshot.next_event = SimTime::ms(6);  // sooner: must reprogram
  p->on_idle_enter();
  ASSERT_EQ(cpu.msr_writes.size(), 2u);
  EXPECT_EQ(cpu.msr_writes[1].deadline, SimTime::ms(6));
}

TEST_F(ParatickTest, FiredTimerIsNotReusable) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.snapshot.next_event = SimTime::ms(10);
  p->on_idle_enter();  // arms at 10 ms
  cpu.clock = SimTime::ms(10);
  cpu.idle = true;
  p->on_physical_tick();  // fires: the record must be consumed
  cpu.clock = SimTime::ms(11);
  cpu.snapshot.next_event = SimTime::ms(20);
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(20));  // re-armed
}

TEST_F(ParatickTest, StaleArmedDeadlineIsNotReused) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  cpu.snapshot.next_event = SimTime::ms(10);
  p->on_idle_enter();
  // Time passes beyond the armed deadline without the policy seeing the
  // fire (e.g. delivered as a virtual tick); the record is stale.
  cpu.clock = SimTime::ms(15);
  cpu.snapshot.next_event = SimTime::ms(30);
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(30));
}

TEST_F(ParatickTest, StatsCountIdleTransitions) {
  auto p = make_tick_policy(TickMode::kParatick, cpu);
  p->on_boot();
  for (int i = 0; i < 7; ++i) {
    p->on_idle_enter();
    p->on_idle_exit();
  }
  EXPECT_EQ(p->stats().idle_entries, 7u);
  EXPECT_EQ(p->stats().idle_exits, 7u);
}

// ---------------------------------------------------------------------------
// Cross-policy properties
// ---------------------------------------------------------------------------

class AllPolicies : public ::testing::TestWithParam<TickMode> {};

TEST_P(AllPolicies, EveryEntryPointReturnsExactlyOnce) {
  MockTickCpu cpu;
  auto p = make_tick_policy(GetParam(), cpu);
  p->on_boot();
  cpu.clock += SimTime::ms(4);
  p->on_physical_tick();
  p->on_virtual_tick();
  p->on_idle_enter();
  p->on_idle_exit();
  EXPECT_EQ(cpu.returns, 5);
}

TEST_P(AllPolicies, NameMatchesMode) {
  MockTickCpu cpu;
  auto p = make_tick_policy(GetParam(), cpu);
  EXPECT_EQ(p->mode(), GetParam());
  EXPECT_EQ(p->name(), to_string(GetParam()));
}

TEST_P(AllPolicies, IdleCycleMsrWritesOrdered) {
  // Over many idle transitions with no pending events:
  //   periodic: 0 writes, paratick: 0 writes, dynticks: 2 per transition.
  MockTickCpu cpu;
  auto p = make_tick_policy(GetParam(), cpu);
  p->on_boot();
  const auto base = p->stats().msr_writes;
  for (int i = 0; i < 50; ++i) {
    p->on_idle_enter();
    cpu.clock += SimTime::us(40);
    p->on_idle_exit();
  }
  const auto writes = p->stats().msr_writes - base;
  switch (GetParam()) {
    case TickMode::kDynticksIdle:
      EXPECT_EQ(writes, 100u);
      break;
    case TickMode::kFullDynticks:
      EXPECT_GE(writes, 50u);  // adaptive decisions still cost writes
      break;
    case TickMode::kPeriodic:
    case TickMode::kParatick:
      EXPECT_EQ(writes, 0u);
      break;
  }
}

TEST_P(AllPolicies, TickIntervalsAreObserved) {
  MockTickCpu cpu;
  auto p = make_tick_policy(GetParam(), cpu);
  p->on_boot();
  cpu.idle = GetParam() == TickMode::kParatick;  // fig 3b only ticks when idle
  for (int i = 1; i <= 6; ++i) {
    cpu.clock = SimTime::ms(4 * i);
    if (GetParam() == TickMode::kParatick && i % 2 == 0) {
      p->on_virtual_tick();
    } else {
      p->on_physical_tick();
    }
  }
  const auto& intervals = p->tick_intervals_us();
  EXPECT_EQ(intervals.count(), 5u);
  EXPECT_DOUBLE_EQ(intervals.mean(), 4000.0);
  EXPECT_DOUBLE_EQ(intervals.stddev(), 0.0);
}

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(SimTime t) { add(static_cast<std::uint64_t>(t.nanoseconds())); }
  void add(const std::optional<SimTime>& t) {
    add(std::uint64_t{t.has_value()});
    if (t) add(*t);
  }
  void add(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// A fixed-seed random walk over every policy entry point, clock steps and
// CPU states, folded into one digest of everything the policy did.
std::uint64_t scripted_digest(TickMode mode) {
  MockTickCpu cpu;
  auto p = make_tick_policy(mode, cpu);
  sim::Rng rng(0x7a11c0de);
  p->on_boot();
  for (int step = 0; step < 4000; ++step) {
    cpu.clock += SimTime::us(rng.uniform_int(0, 9000));
    cpu.running = static_cast<int>(rng.uniform_int(0, 3));
    cpu.snapshot.tick_needed = rng.bernoulli(0.25);
    if (rng.bernoulli(0.3)) {
      cpu.snapshot.next_event.reset();
    } else {
      cpu.snapshot.next_event = cpu.clock + SimTime::us(rng.uniform_int(-1000, 60000));
    }
    switch (rng.uniform_int(0, 5)) {
      case 0:
        p->on_physical_tick();
        break;
      case 1:
        p->on_virtual_tick();
        break;
      case 2:
        p->on_idle_enter();
        cpu.idle = true;
        break;
      case 3:
        p->on_idle_exit();
        cpu.idle = false;
        break;
      case 4:
        p->program_hrtimer(cpu.clock + SimTime::us(rng.uniform_int(1, 20000)));
        break;
      default:
        cpu.idle = rng.bernoulli(0.5);  // state change with no policy call
        break;
    }
  }
  Digest d;
  for (const auto& w : cpu.msr_writes) {
    d.add(w.at);
    d.add(w.deadline);
  }
  d.add(static_cast<std::uint64_t>(cpu.kernel_cycles.count()));
  d.add(static_cast<std::uint64_t>(cpu.tick_work_calls));
  d.add(static_cast<std::uint64_t>(cpu.hypercalls));
  d.add(static_cast<std::uint64_t>(cpu.returns));
  const auto& s = p->stats();
  for (const std::uint64_t v : {s.ticks_handled, s.virtual_ticks, s.msr_writes,
                                s.msr_writes_avoided, s.idle_entries, s.idle_exits,
                                s.busy_stops}) {
    d.add(v);
  }
  d.add(p->armed_deadline());
  d.add(static_cast<std::uint64_t>(p->tick_intervals_us().count()));
  d.add(p->tick_intervals_us().mean());
  return d.value();
}

TEST_P(AllPolicies, ScriptedOracleDigestIsUnchanged) {
  // Golden values: any change to a policy's decisions, counters or timer
  // writes changes its digest.
  std::uint64_t expected = 0;
  switch (GetParam()) {
    case TickMode::kPeriodic: expected = 0x6fc2044c70b43eb0ull; break;
    case TickMode::kDynticksIdle: expected = 0x90edbc1d1d9994f6ull; break;
    case TickMode::kFullDynticks: expected = 0xf1ba16ce89119c91ull; break;
    case TickMode::kParatick: expected = 0xb37e8c6d62d5fabcull; break;
  }
  EXPECT_EQ(scripted_digest(GetParam()), expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, AllPolicies,
                         ::testing::Values(TickMode::kPeriodic,
                                           TickMode::kDynticksIdle,
                                           TickMode::kFullDynticks,
                                           TickMode::kParatick));

// ---------------------------------------------------------------------------
// hrtimer path coherence: a deadline armed by the hrtimer subsystem is the
// policy's armed deadline, so idle entry does not write it a second time.
// ---------------------------------------------------------------------------

class HrtimerCoherence : public ::testing::TestWithParam<TickMode> {};

TEST_P(HrtimerCoherence, IdleEntrySeesDeadlineArmedByHrtimerPath) {
  MockTickCpu cpu;
  auto p = make_tick_policy(GetParam(), cpu);
  p->on_boot();  // NO_HZ modes arm the tick at 4 ms
  const auto policy_writes = p->stats().msr_writes;
  p->program_hrtimer(SimTime::ms(2));  // earlier: reprogram
  ASSERT_EQ(cpu.msr_writes.back().deadline, SimTime::ms(2));
  EXPECT_EQ(p->armed_deadline(), SimTime::ms(2));
  const auto writes = cpu.msr_writes.size();
  cpu.clock = SimTime::us(100);
  cpu.snapshot.next_event = SimTime::ms(2);
  p->on_idle_enter();
  EXPECT_EQ(cpu.msr_writes.size(), writes);  // no second write for the same event
  EXPECT_EQ(p->stats().msr_writes, policy_writes);  // hrtimer writes are not counted
  EXPECT_EQ(cpu.returns, 3);
}

INSTANTIATE_TEST_SUITE_P(NoHzModes, HrtimerCoherence,
                         ::testing::Values(TickMode::kDynticksIdle,
                                           TickMode::kFullDynticks));

}  // namespace
}  // namespace paratick::guest

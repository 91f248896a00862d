// A synchronous mock of TickCpu for unit-testing tick policies against
// the paper's Figures 1 and 3 without a full simulation. Every service
// returns at once; a return with no frame left goes back to the test,
// which counts it in `returns`.
#pragma once

#include <optional>
#include <vector>

#include "guest/cost_model.hpp"
#include "guest/kernel_stack.hpp"
#include "guest/tick_policy.hpp"

namespace paratick::guest::testing {

class MockTickCpu final : public TickCpu {
 public:
  // --- knobs the test sets ---
  sim::SimTime clock = sim::SimTime::zero();
  sim::SimTime period = sim::SimTime::ms(4);
  bool idle = false;
  int running = 1;
  IdleSnapshot snapshot;
  GuestCostModel cost_model;

  // --- recorded activity ---
  struct MsrWrite {
    sim::SimTime at;
    std::optional<sim::SimTime> deadline;  // nullopt = disarm
  };
  std::vector<MsrWrite> msr_writes;
  int tick_work_calls = 0;
  int hypercalls = 0;
  sim::SimTime declared_period;
  sim::Cycles kernel_cycles;
  int returns = 0;  // policy entry points that returned to the test
  KernelStack frames;

  // --- TickCpu ---
  [[nodiscard]] sim::SimTime now() const override { return clock; }
  [[nodiscard]] sim::SimTime tick_period() const override { return period; }
  [[nodiscard]] bool is_idle() const override { return idle; }
  [[nodiscard]] int nr_running() const override { return running; }
  [[nodiscard]] const GuestCostModel& costs() const override { return cost_model; }

  void push_frame(sim::InlineCallback&& next) override { frames.push(std::move(next)); }
  void ret() override {
    if (frames.empty()) {
      ++returns;
      return;
    }
    frames.ret();
  }
  void do_tick_work() override {
    ++tick_work_calls;
    ret();
  }
  void kernel_work(sim::Cycles c) override {
    kernel_cycles += c;
    ret();
  }
  void write_tsc_deadline(std::optional<sim::SimTime> deadline) override {
    msr_writes.push_back({clock, deadline});
    ret();
  }
  void paratick_hypercall(sim::SimTime declared) override {
    ++hypercalls;
    declared_period = declared;
    ret();
  }
  [[nodiscard]] IdleSnapshot idle_snapshot() const override { return snapshot; }
};

}  // namespace paratick::guest::testing

// The modeled guest kernel: per-vCPU contexts, task scheduling, blocking
// synchronization, block-I/O waits, soft timers, RCU — and a
// scheduler-tick policy (tick-sched in its periodic, dynticks-idle or
// full-dynticks mode, or paratick).
//
// GuestCpu implements both the hypervisor-facing interface (boot,
// interrupt delivery, idle resumption, port-verb completion) and the
// TickCpu interface the tick policies act on. Its kernel paths continue
// through the per-vCPU KernelStack (guest/kernel_stack.hpp), never
// through heap-allocated continuations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "guest/cost_model.hpp"
#include "sim/stats.hpp"
#include "guest/kernel_stack.hpp"
#include "guest/rcu.hpp"
#include "guest/steal_estimator.hpp"
#include "guest/task.hpp"
#include "guest/tick_policy.hpp"
#include "guest/timer_queue.hpp"
#include "hv/kvm.hpp"
#include "hv/port.hpp"
#include "hv/vcpu.hpp"
#include "sim/ring_queue.hpp"

namespace paratick::fault {
class FaultInjector;
}  // namespace paratick::fault

namespace paratick::guest {

struct GuestConfig {
  TickMode tick_mode = TickMode::kDynticksIdle;
  sim::Frequency tick_freq{250.0};
  GuestCostModel costs;
  std::uint64_t seed = 1234;
  /// Optional chaos injector (spurious/dropped softirqs). Not owned; must
  /// outlive the kernel. Null = no guest-level faults.
  fault::FaultInjector* fault = nullptr;
  /// Guest-side steal-time estimator (guest/steal_estimator.hpp). Off by
  /// default: the sampling timer adds events, perturbing runs that must
  /// stay byte-identical to pre-estimator baselines.
  StealEstimatorConfig steal;
};

class GuestKernel;

class GuestCpu final : public hv::GuestCpuIface, public TickCpu {
 public:
  GuestCpu(GuestKernel& kernel, int index, hv::Kvm& kvm, hv::Vcpu& vcpu);
  ~GuestCpu() override;

  GuestCpu(const GuestCpu&) = delete;
  GuestCpu& operator=(const GuestCpu&) = delete;

  // --- hv::GuestCpuIface ---
  void power_on() override;
  void handle_interrupt(hw::Vector v) override;
  void idle_resume() override;
  void port_done() override { stack_.ret(); }

  // --- TickCpu (what the tick policy sees) ---
  [[nodiscard]] sim::SimTime now() const override;
  [[nodiscard]] sim::SimTime tick_period() const override;
  [[nodiscard]] bool is_idle() const override { return current_ == nullptr; }
  [[nodiscard]] int nr_running() const override {
    return static_cast<int>(runq_.size()) + (current_ != nullptr ? 1 : 0);
  }
  [[nodiscard]] const GuestCostModel& costs() const override;
  void push_frame(sim::InlineCallback&& next) override { stack_.push(std::move(next)); }
  void ret() override { stack_.ret(); }
  void do_tick_work() override;
  void kernel_work(sim::Cycles c) override;
  void write_tsc_deadline(std::optional<sim::SimTime> deadline) override;
  void paratick_hypercall(sim::SimTime period) override;
  [[nodiscard]] IdleSnapshot idle_snapshot() const override;

  // --- scheduling / kernel services ---
  void enqueue_task(GuestTask& t);
  void schedule();
  /// Re-enter the current task's body: where every task op completes.
  void resume_current();
  void block_current();
  void maybe_preempt();
  [[nodiscard]] GuestTask* current() const { return current_; }
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] std::size_t runqueue_depth() const { return runq_.size(); }
  [[nodiscard]] TickPolicy& policy() { return *policy_; }
  /// The hypervisor and vCPU this guest CPU executes on: guest code
  /// drives them through the Kvm::port_* verbs.
  [[nodiscard]] hv::Kvm& kvm() { return kvm_; }
  [[nodiscard]] hv::Vcpu& vcpu() { return vcpu_; }
  [[nodiscard]] TimerQueue& timers() { return timers_; }
  [[nodiscard]] RcuState& rcu() { return rcu_; }
  [[nodiscard]] GuestKernel& kernel() { return kernel_; }
  [[nodiscard]] const StealEstimator& steal_estimator() const {
    return steal_estimator_;
  }

  /// Queue a wake IPI to a sibling vCPU (sent before returning to tasks).
  void queue_kick(int target_cpu);

 private:
  friend class GuestKernel;

  void dispatch_vector(hw::Vector v);
  void expire_timers();
  void flush_kicks();
  void enter_idle();
  void exit_idle();
  void run_current();

  GuestKernel& kernel_;
  int index_;
  hv::Kvm& kvm_;
  hv::Vcpu& vcpu_;
  std::unique_ptr<TickPolicy> policy_;

  TimerQueue timers_;
  RcuState rcu_;
  StealEstimator steal_estimator_;
  KernelStack stack_;

  sim::RingQueue<GuestTask*> runq_;
  GuestTask* current_ = nullptr;
  bool need_resched_ = false;
  std::vector<int> pending_kicks_;
  std::vector<hw::IoRequest> io_done_;  // completions drained by the block irq
};

class GuestKernel {
 public:
  /// Builds one GuestCpu per vCPU of `vm` and wires them into the
  /// hypervisor. Tasks must be added before Kvm::power_on_all().
  GuestKernel(hv::Kvm& kvm, hv::Vm& vm, GuestConfig config);
  ~GuestKernel();

  GuestKernel(const GuestKernel&) = delete;
  GuestKernel& operator=(const GuestKernel&) = delete;

  /// Add a task; home vCPU defaults to round-robin, or pass one explicitly.
  GuestTask& add_task(std::function<void(TaskApi&)> body, int home_cpu = -1);

  /// Declare a barrier with a fixed party count.
  void create_barrier(int id, int parties);

  void set_on_all_done(std::function<void()> cb) { on_all_done_ = std::move(cb); }

  [[nodiscard]] const GuestConfig& config() const { return config_; }
  [[nodiscard]] int cpu_count() const { return static_cast<int>(cpus_.size()); }
  [[nodiscard]] GuestCpu& cpu(int i) { return *cpus_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int task_count() const { return static_cast<int>(tasks_.size()); }
  [[nodiscard]] GuestTask& task(int i) { return *tasks_[static_cast<std::size_t>(i)]; }
  [[nodiscard]] int tasks_done() const { return tasks_done_; }
  /// I/O completions delivered with an injected device error.
  [[nodiscard]] std::uint64_t io_errors() const { return io_errors_; }
  [[nodiscard]] bool all_done() const {
    return !tasks_.empty() && tasks_done_ == task_count();
  }
  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// Sum of per-CPU tick-policy stats.
  [[nodiscard]] TickPolicy::Stats aggregated_policy_stats() const;

  /// Observed tick-interval samples merged across this VM's CPUs (the
  /// tick-jitter metric of bench_ablation_tick_jitter).
  [[nodiscard]] sim::Accumulator aggregated_tick_intervals_us() const;

  /// Whether the platform-agnostic steal estimator is running on this
  /// VM's CPUs, and its VM-wide estimate (sum over CPUs).
  [[nodiscard]] bool steal_estimator_enabled() const {
    return config_.steal.enabled;
  }
  [[nodiscard]] sim::SimTime steal_estimate() const;

  /// Wake-to-run latency of blocked tasks, in microseconds: the time from
  /// the waking event to the task actually executing again. This is the
  /// §4.2 critical-path cost paratick trims on idle exits.
  [[nodiscard]] const sim::Accumulator& wakeup_latency_us() const {
    return wakeup_latency_us_;
  }
  [[nodiscard]] const sim::LogHistogram& wakeup_latency_hist_us() const {
    return wakeup_hist_us_;
  }
  void record_wakeup_latency(double us) {
    wakeup_latency_us_.add(us);
    wakeup_hist_us_.add(us);
  }

  // --- services used by GuestCpu / TaskApi (kernel-wide state) ---
  // Each task service ends in cpu.resume_current() or cpu.block_current().
  void wake_task(GuestTask& t, GuestCpu& waker);
  void barrier_arrive(GuestCpu& cpu, int barrier_id);
  void mutex_lock(GuestCpu& cpu, int mutex_id);
  void mutex_unlock(GuestCpu& cpu, int mutex_id);
  void sem_wait(GuestCpu& cpu, int sem_id);
  void sem_post(GuestCpu& cpu, int sem_id);
  void sync_io(GuestCpu& cpu, const hw::IoRequest& req);
  void io_complete(GuestCpu& cpu, const hw::IoRequest& req);
  void task_finished(GuestCpu& cpu);
  void maybe_enqueue_rcu(GuestCpu& cpu);

 private:
  struct Barrier {
    int parties = 0;
    std::vector<GuestTask*> waiting;
  };
  struct Mutex {
    GuestTask* holder = nullptr;
    sim::RingQueue<GuestTask*> waiters;
    std::uint64_t contended_acquires = 0;
    std::uint64_t acquires = 0;
  };
  struct IoWait {
    GuestTask* task = nullptr;
    hw::IoRequest req;  // tagged with the wait's cookie
    bool completed_early = false;  // completion irq beat the blocking path
    bool blocked = false;
  };
  struct Semaphore {
    std::int64_t count = 0;
    sim::RingQueue<GuestTask*> waiters;
    std::uint64_t posts = 0;
    std::uint64_t blocked_waits = 0;
  };

  /// The wait with `cookie`, or nullptr once it has been retired.
  [[nodiscard]] IoWait* find_io_wait(std::uint64_t cookie);
  void erase_io_wait(IoWait& w);

  hv::Kvm& kvm_;
  hv::Vm& vm_;
  GuestConfig config_;
  sim::Rng rng_;
  std::vector<std::unique_ptr<GuestCpu>> cpus_;
  std::vector<std::unique_ptr<GuestTask>> tasks_;
  std::unordered_map<int, Barrier> barriers_;
  std::unordered_map<int, Mutex> mutexes_;
  std::unordered_map<int, Semaphore> semaphores_;
  /// Outstanding sync I/O waits, looked up by cookie. A flat vector: a
  /// handful are outstanding at once, and erasing by swapping with the
  /// last keeps it allocation-free once warm.
  std::vector<IoWait> io_waits_;
  std::uint64_t next_io_cookie_ = 1;
  std::uint64_t io_errors_ = 0;
  int tasks_done_ = 0;
  int next_home_ = 0;
  sim::Accumulator wakeup_latency_us_;
  sim::LogHistogram wakeup_hist_us_;
  std::function<void()> on_all_done_;

  friend class GuestCpu;
};

}  // namespace paratick::guest

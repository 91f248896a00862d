#include "guest/kernel.hpp"

#include <algorithm>
#include <utility>

#include "fault/injector.hpp"
#include "sim/check.hpp"
#include "sim/log.hpp"

namespace paratick::guest {

namespace {
// Fast-path user-space cost of an uncontended futex operation.
constexpr sim::Cycles kFutexFastPath{60};
// RCU grace period, in scheduler ticks observed after the last enqueue.
constexpr unsigned kRcuGraceTicks = 1;
// Probability that a blocking/wake path enqueues an RCU callback. Low on
// purpose: on real systems grace periods complete quickly, so most idle
// entries find the CPU RCU-quiet and NO_HZ stops the tick (paying the
// MSR-write exits) — the §3.2 behaviour.
constexpr double kRcuEnqueueProb = 0.0005;
}  // namespace

// ===========================================================================
// TaskApi — the task-facing syscall surface
// ===========================================================================

sim::SimTime TaskApi::now() const { return cpu_.now(); }

sim::Rng& TaskApi::rng() {
  GuestTask* t = cpu_.current();
  PARATICK_CHECK(t != nullptr && t->rng.has_value());
  return *t->rng;
}

void TaskApi::compute(sim::Cycles c) {
  auto& cpu = cpu_;
  cpu.push_frame([&cpu] { cpu.maybe_preempt(); });
  cpu.kvm().port_run(cpu.vcpu(), c, hw::CycleCategory::kGuestUser);
}

void TaskApi::barrier_wait(int barrier_id) {
  cpu_.kernel().barrier_arrive(cpu_, barrier_id);
}

void TaskApi::mutex_lock(int mutex_id) { cpu_.kernel().mutex_lock(cpu_, mutex_id); }

void TaskApi::mutex_unlock(int mutex_id) { cpu_.kernel().mutex_unlock(cpu_, mutex_id); }

void TaskApi::sem_wait(int sem_id) { cpu_.kernel().sem_wait(cpu_, sem_id); }

void TaskApi::sem_post(int sem_id) { cpu_.kernel().sem_post(cpu_, sem_id); }

void TaskApi::sync_io(const hw::IoRequest& req) { cpu_.kernel().sync_io(cpu_, req); }

void TaskApi::sleep_for(sim::SimTime d) {
  PARATICK_CHECK(d > sim::SimTime::zero());
  auto& cpu = cpu_;
  cpu.push_frame([&cpu, d] {
    GuestTask* t = cpu.current();
    PARATICK_CHECK(t != nullptr);
    const sim::SimTime deadline = cpu.now() + d;
    auto wake = [&cpu, t] { cpu.kernel().wake_task(*t, cpu); };
    cpu.kernel().maybe_enqueue_rcu(cpu);
    if (d < 4 * cpu.tick_period()) {
      // High-res path: the hardware must fire at the exact deadline, not
      // at the next tick.
      cpu.timers().add(deadline, wake);
      cpu.push_frame([&cpu] { cpu.block_current(); });
      cpu.policy().program_hrtimer(deadline);
      return;
    }
    // Jiffy path (Linux's timer wheel): due on the first jiffy boundary at
    // or after the deadline, since a sleeper never wakes early. Nothing is
    // programmed here; the tick or the next idle entry's next-event query
    // covers it.
    const sim::SimTime into_jiffy = deadline % cpu.tick_period();
    cpu.timers().add(into_jiffy == sim::SimTime::zero()
                         ? deadline
                         : deadline + (cpu.tick_period() - into_jiffy),
                     wake);
    cpu.block_current();
  });
  cpu.kvm().port_run(cpu.vcpu(), cpu.costs().syscall, hw::CycleCategory::kGuestKernel);
}

void TaskApi::background_fault() {
  auto& cpu = cpu_;
  cpu.push_frame([&cpu] { cpu.resume_current(); });
  cpu.kvm().port_background_exit(cpu.vcpu());
}

void TaskApi::finish() { cpu_.kernel().task_finished(cpu_); }

// ===========================================================================
// GuestCpu
// ===========================================================================

GuestCpu::GuestCpu(GuestKernel& kernel, int index, hv::Kvm& kvm, hv::Vcpu& vcpu)
    : kernel_(kernel), index_(index), kvm_(kvm), vcpu_(vcpu), rcu_(kRcuGraceTicks) {
  policy_ = make_tick_policy(kernel.config().tick_mode, *this);
}

GuestCpu::~GuestCpu() = default;

sim::SimTime GuestCpu::now() const { return kvm_.engine().now(); }

sim::SimTime GuestCpu::tick_period() const {
  return kernel_.config().tick_freq.period();
}

const GuestCostModel& GuestCpu::costs() const { return kernel_.config().costs; }

void GuestCpu::power_on() {
  push_frame([this] {
    if (!kernel_.config().steal.enabled) {
      schedule();
      return;
    }
    // The first sample must reach the hardware: on_boot armed the tick a
    // full period out, and a queue-only add would sit unseen until some
    // unrelated event expires it — phantom lateness on sample #1.
    steal_estimator_.arm(*this, kernel_.config().steal);
    push_frame([this] { schedule(); });
    policy_->program_hrtimer(steal_estimator_.next_deadline());
  });
  policy_->on_boot();
}

// --- interrupt path ---------------------------------------------------------

void GuestCpu::handle_interrupt(hw::Vector v) {
  // The handler's steps, pushed last first: each runs when the step
  // before it returns. Timers expire before dispatch (hrtimer_interrupt
  // semantics): the policy's re-arm must see only *pending* events.
  push_frame([this] { kvm_.port_iret(vcpu_); });
  push_frame([this] {
    kvm_.port_run(vcpu_, costs().irq_exit, hw::CycleCategory::kGuestKernel);
  });
  push_frame([this] { flush_kicks(); });
  push_frame([this, v] { dispatch_vector(v); });
  push_frame([this] { expire_timers(); });
  kvm_.port_run(vcpu_, costs().irq_entry, hw::CycleCategory::kGuestKernel);
}

void GuestCpu::dispatch_vector(hw::Vector v) {
  switch (v) {
    case hw::vectors::kLocalTimer:
      policy_->on_physical_tick();
      return;
    case hw::vectors::kParatick:
      policy_->on_virtual_tick();
      return;
    case hw::vectors::kBlockDevice: {
      kvm_.port_drain_io_completions(vcpu_, io_done_);
      if (io_done_.empty()) {
        ret();
        return;
      }
      const sim::Cycles c =
          costs().blk_complete * static_cast<std::int64_t>(io_done_.size());
      push_frame([this] {
        for (const auto& req : io_done_) kernel_.io_complete(*this, req);
        // Acknowledge the device interrupt (virtio ISR access).
        kvm_.port_io_ack(vcpu_);
      });
      kvm_.port_run(vcpu_, c, hw::CycleCategory::kGuestKernel);
      return;
    }
    case hw::vectors::kRescheduleIpi:
      // The waker already placed the task on our runqueue; the post-irq
      // path will notice it when the idle loop resumes.
      ret();
      return;
    default:
      ret();  // spurious
      return;
  }
}

void GuestCpu::expire_timers() {
  fault::FaultInjector* inj = kernel_.config().fault;
  if (inj != nullptr && inj->drop_softirq()) {
    // Fault: the timer softirq is lost. Due timers stay queued until the
    // next interrupt re-runs this pass (the irq-entry cost already
    // advanced time, so re-fires terminate).
    ret();
    return;
  }
  const std::uint64_t fired_before = timers_.fired_count();
  timers_.expire(now());
  const std::uint64_t fired = timers_.fired_count() - fired_before;
  sim::Cycles c = sim::Cycles(0);
  if (fired > 0) {
    c = costs().timer_softirq + costs().per_timer_cb * static_cast<std::int64_t>(fired);
  }
  if (inj != nullptr && inj->spurious_softirq()) {
    // Fault: a spurious softirq raise — one extra dispatch pass with no
    // expired timers behind it, on top of whatever real work fired.
    c = c + costs().timer_softirq;
  }
  if (c == sim::Cycles(0)) {
    ret();
    return;
  }
  kvm_.port_run(vcpu_, c, hw::CycleCategory::kGuestKernel);
}

void GuestCpu::queue_kick(int target_cpu) {
  if (std::find(pending_kicks_.begin(), pending_kicks_.end(), target_cpu) ==
      pending_kicks_.end()) {
    pending_kicks_.push_back(target_cpu);
  }
}

void GuestCpu::flush_kicks() {
  if (pending_kicks_.empty()) {
    ret();
    return;
  }
  const int target = pending_kicks_.back();
  pending_kicks_.pop_back();
  push_frame([this] { flush_kicks(); });
  kvm_.port_send_ipi(vcpu_, target, hw::vectors::kRescheduleIpi);
}

// --- tick services -----------------------------------------------------------

void GuestCpu::do_tick_work() {
  push_frame([this] {
    const std::uint64_t drained = rcu_.on_tick();
    if (current_ != nullptr && !runq_.empty()) need_resched_ = true;
    if (drained > 0) {
      kvm_.port_run(vcpu_, costs().rcu_cb_batch, hw::CycleCategory::kGuestKernel);
      return;
    }
    ret();
  });
  kvm_.port_run(vcpu_, costs().tick_work, hw::CycleCategory::kGuestKernel);
}

void GuestCpu::kernel_work(sim::Cycles c) {
  kvm_.port_run(vcpu_, c, hw::CycleCategory::kGuestKernel);
}

void GuestCpu::write_tsc_deadline(std::optional<sim::SimTime> deadline) {
  kvm_.port_write_tsc_deadline(vcpu_, deadline);
}

void GuestCpu::paratick_hypercall(sim::SimTime period) {
  hv::HypercallRequest req;
  req.kind = hv::HypercallRequest::Kind::kDeclareTickFreq;
  req.guest_tick_period = period;
  req.enable_paratick = true;
  kvm_.port_hypercall(vcpu_, req);
}

TickCpu::IdleSnapshot GuestCpu::idle_snapshot() const {
  IdleSnapshot snap;
  snap.tick_needed = rcu_.needs_tick();
  snap.next_event = timers_.next_deadline();
  return snap;
}

// --- scheduling --------------------------------------------------------------

void GuestCpu::enqueue_task(GuestTask& t) {
  t.state = GuestTask::State::kRunnable;
  runq_.push_back(&t);
}

void GuestCpu::schedule() {
  push_frame([this] {
    if (runq_.empty()) {
      enter_idle();
      return;
    }
    current_ = runq_.front();
    runq_.pop_front();
    current_->state = GuestTask::State::kRunning;
    push_frame([this] { run_current(); });
    kernel_work(costs().ctx_switch);
  });
  kernel_work(costs().sched_pick);
}

void GuestCpu::run_current() {
  PARATICK_CHECK(current_ != nullptr);
  GuestTask& t = *current_;
  if (t.measure_wake) {
    t.measure_wake = false;
    kernel_.record_wakeup_latency((now() - t.woken_at).microseconds());
  }
  resume_current();
}

void GuestCpu::resume_current() {
  PARATICK_CHECK(current_ != nullptr);
  TaskApi api(*this);
  current_->body(api);
}

void GuestCpu::enter_idle() {
  PARATICK_CHECK(current_ == nullptr);
  push_frame([this] {
    // Re-check: an interrupt during the idle-entry path (e.g. the MSR
    // write exit window) may have woken a task.
    if (!runq_.empty()) {
      exit_idle();
      return;
    }
    // The idle loop is the bottom of this vCPU's kernel paths; a frame
    // left here would never run again.
    PARATICK_CHECK_MSG(stack_.empty(), "hlt with guest kernel frames pending");
    kvm_.port_hlt(vcpu_);
  });
  policy_->on_idle_enter();
}

void GuestCpu::exit_idle() {
  push_frame([this] { schedule(); });
  policy_->on_idle_exit();
}

void GuestCpu::idle_resume() {
  if (!runq_.empty()) {
    exit_idle();
  } else {
    enter_idle();
  }
}

void GuestCpu::block_current() {
  PARATICK_CHECK(current_ != nullptr);
  GuestTask& t = *current_;
  if (t.wake_pending) {
    // The wake beat us to sleep (futex pre-sleep check): keep running.
    t.wake_pending = false;
    resume_current();
    return;
  }
  t.state = GuestTask::State::kBlocked;
  ++t.blocks;
  current_ = nullptr;
  schedule();
}

void GuestCpu::maybe_preempt() {
  PARATICK_CHECK(current_ != nullptr);
  if (!need_resched_ || runq_.empty()) {
    resume_current();
    return;
  }
  need_resched_ = false;
  GuestTask& t = *current_;
  t.state = GuestTask::State::kRunnable;
  runq_.push_back(&t);
  current_ = nullptr;
  schedule();
}

// ===========================================================================
// GuestKernel
// ===========================================================================

GuestKernel::GuestKernel(hv::Kvm& kvm, hv::Vm& vm, GuestConfig config)
    : kvm_(kvm), vm_(vm), config_(config), rng_(config.seed) {
  cpus_.reserve(static_cast<std::size_t>(vm.vcpu_count()));
  for (int i = 0; i < vm.vcpu_count(); ++i) {
    hv::Vcpu& vcpu = vm.vcpu(i);
    cpus_.push_back(std::make_unique<GuestCpu>(*this, i, kvm, vcpu));
    kvm.attach_guest(vcpu, cpus_.back().get());
  }
}

GuestKernel::~GuestKernel() = default;

GuestTask& GuestKernel::add_task(std::function<void(TaskApi&)> body, int home_cpu) {
  PARATICK_CHECK(body != nullptr);
  int home = home_cpu;
  if (home < 0) {
    home = next_home_;
    next_home_ = (next_home_ + 1) % cpu_count();
  }
  PARATICK_CHECK(home >= 0 && home < cpu_count());
  auto task = std::make_unique<GuestTask>();
  task->id = static_cast<int>(tasks_.size());
  task->home_cpu = home;
  task->body = std::move(body);
  const std::uint64_t task_salt =
      static_cast<std::uint64_t>(task->id) * std::uint64_t{0x9E3779B97F4A7C15};
  task->rng.emplace(config_.seed * std::uint64_t{0x100000001B3} + task_salt);
  tasks_.push_back(std::move(task));
  cpu(home).enqueue_task(*tasks_.back());
  return *tasks_.back();
}

void GuestKernel::create_barrier(int id, int parties) {
  PARATICK_CHECK(parties > 0);
  barriers_[id] = Barrier{parties, {}};
}

TickPolicy::Stats GuestKernel::aggregated_policy_stats() const {
  TickPolicy::Stats sum;
  for (const auto& c : cpus_) {
    const auto& s = c->policy_->stats();
    sum.ticks_handled += s.ticks_handled;
    sum.virtual_ticks += s.virtual_ticks;
    sum.msr_writes += s.msr_writes;
    sum.msr_writes_avoided += s.msr_writes_avoided;
    sum.idle_entries += s.idle_entries;
    sum.idle_exits += s.idle_exits;
    sum.busy_stops += s.busy_stops;
  }
  return sum;
}

sim::Accumulator GuestKernel::aggregated_tick_intervals_us() const {
  sim::Accumulator merged;
  for (const auto& c : cpus_) merged.merge(c->policy_->tick_intervals_us());
  return merged;
}

sim::SimTime GuestKernel::steal_estimate() const {
  sim::SimTime sum;
  for (const auto& c : cpus_) sum += c->steal_estimator().estimate();
  return sum;
}

void GuestKernel::wake_task(GuestTask& t, GuestCpu& waker) {
  PARATICK_CHECK_MSG(t.state != GuestTask::State::kDone, "wake of a finished task");
  if (t.state == GuestTask::State::kRunning) {
    t.wake_pending = true;  // racing with its own block path
    return;
  }
  if (t.state != GuestTask::State::kBlocked) return;  // already runnable
  t.state = GuestTask::State::kRunnable;
  ++t.wakes;
  t.woken_at = waker.now();
  t.measure_wake = true;
  GuestCpu& home = cpu(t.home_cpu);
  home.runq_.push_back(&t);
  if (&home != &waker && home.is_idle()) waker.queue_kick(t.home_cpu);
}

void GuestKernel::maybe_enqueue_rcu(GuestCpu& c) {
  if (rng_.bernoulli(kRcuEnqueueProb)) c.rcu().enqueue();
}

void GuestKernel::barrier_arrive(GuestCpu& c, int barrier_id) {
  auto it = barriers_.find(barrier_id);
  PARATICK_CHECK_MSG(it != barriers_.end(), "barrier_wait on unknown barrier");
  Barrier& b = it->second;
  GuestTask* t = c.current();
  PARATICK_CHECK(t != nullptr);
  maybe_enqueue_rcu(c);

  if (static_cast<int>(b.waiting.size()) + 1 >= b.parties) {
    // Last arrival releases everyone and continues without blocking. The
    // waiting list keeps its buffer for the next round.
    for (GuestTask* w : b.waiting) wake_task(*w, c);
    const sim::Cycles cost =
        c.costs().syscall +
        c.costs().futex_wake * static_cast<std::int64_t>(b.waiting.size());
    b.waiting.clear();
    c.push_frame([&c] { c.resume_current(); });
    c.push_frame([&c] { c.flush_kicks(); });
    kvm_.port_run(c.vcpu(), cost, hw::CycleCategory::kGuestKernel);
    return;
  }

  b.waiting.push_back(t);
  c.push_frame([&c, t] {
    PARATICK_CHECK(c.current() == t);
    c.block_current();
  });
  kvm_.port_run(c.vcpu(), c.costs().syscall + c.costs().futex_block,
                hw::CycleCategory::kGuestKernel);
}

void GuestKernel::mutex_lock(GuestCpu& c, int mutex_id) {
  Mutex& m = mutexes_[mutex_id];
  GuestTask* t = c.current();
  PARATICK_CHECK(t != nullptr);
  ++m.acquires;

  if (m.holder == nullptr) {
    m.holder = t;
    c.push_frame([&c] { c.resume_current(); });
    kvm_.port_run(c.vcpu(), kFutexFastPath, hw::CycleCategory::kGuestUser);
    return;
  }

  ++m.contended_acquires;
  // Adaptive mutex: spin briefly (PLE-visible on the host), then sleep.
  // The task stays current until it blocks, so the frames read it from
  // `c` instead of capturing it.
  c.push_frame([&c, &m] {
    if (m.holder == nullptr) {
      m.holder = c.current();
      c.resume_current();
      return;
    }
    c.push_frame([&c, &m] {
      if (m.holder == nullptr) {
        // Released during the futex path.
        m.holder = c.current();
        c.resume_current();
        return;
      }
      m.waiters.push_back(c.current());
      c.kernel().maybe_enqueue_rcu(c);
      c.block_current();
    });
    c.kvm().port_run(c.vcpu(), c.costs().syscall + c.costs().futex_block,
                     hw::CycleCategory::kGuestKernel);
  });
  kvm_.port_spin(c.vcpu(), c.costs().spin_before_block);
}

void GuestKernel::mutex_unlock(GuestCpu& c, int mutex_id) {
  auto it = mutexes_.find(mutex_id);
  PARATICK_CHECK_MSG(it != mutexes_.end(), "unlock of unknown mutex");
  Mutex& m = it->second;
  GuestTask* t = c.current();
  PARATICK_CHECK_MSG(m.holder == t, "unlock by non-owner");
  maybe_enqueue_rcu(c);

  if (!m.waiters.empty()) {
    GuestTask* next = m.waiters.front();
    m.waiters.pop_front();
    m.holder = next;  // ownership handoff
    wake_task(*next, c);
    c.push_frame([&c] { c.resume_current(); });
    c.push_frame([&c] { c.flush_kicks(); });
    kvm_.port_run(c.vcpu(), c.costs().futex_wake, hw::CycleCategory::kGuestKernel);
    return;
  }
  m.holder = nullptr;
  c.push_frame([&c] { c.resume_current(); });
  kvm_.port_run(c.vcpu(), kFutexFastPath, hw::CycleCategory::kGuestUser);
}

void GuestKernel::sem_wait(GuestCpu& c, int sem_id) {
  Semaphore& s = semaphores_[sem_id];
  PARATICK_CHECK(c.current() != nullptr);
  if (s.count > 0) {
    // Fast path: a post is already available (userspace futex check).
    --s.count;
    c.push_frame([&c] { c.resume_current(); });
    kvm_.port_run(c.vcpu(), kFutexFastPath, hw::CycleCategory::kGuestUser);
    return;
  }
  ++s.blocked_waits;
  maybe_enqueue_rcu(c);
  c.push_frame([&c, &s] {
    if (s.count > 0) {
      --s.count;  // a post raced with the futex path
      c.resume_current();
      return;
    }
    s.waiters.push_back(c.current());
    c.block_current();
  });
  kvm_.port_run(c.vcpu(), c.costs().syscall + c.costs().futex_block,
                hw::CycleCategory::kGuestKernel);
}

void GuestKernel::sem_post(GuestCpu& c, int sem_id) {
  Semaphore& s = semaphores_[sem_id];
  ++s.posts;
  if (!s.waiters.empty()) {
    GuestTask* w = s.waiters.front();
    s.waiters.pop_front();
    wake_task(*w, c);
    maybe_enqueue_rcu(c);
    c.push_frame([&c] { c.resume_current(); });
    c.push_frame([&c] { c.flush_kicks(); });
    kvm_.port_run(c.vcpu(), c.costs().futex_wake, hw::CycleCategory::kGuestKernel);
    return;
  }
  ++s.count;
  c.push_frame([&c] { c.resume_current(); });
  kvm_.port_run(c.vcpu(), kFutexFastPath, hw::CycleCategory::kGuestUser);
}

void GuestKernel::sync_io(GuestCpu& c, const hw::IoRequest& req) {
  GuestTask* t = c.current();
  PARATICK_CHECK(t != nullptr);
  const std::uint64_t cookie = next_io_cookie_++;
  hw::IoRequest tagged = req;
  tagged.cookie = cookie;
  io_waits_.push_back(IoWait{t, tagged, false, false});
  maybe_enqueue_rcu(c);

  c.push_frame([&c, cookie] {
    const IoWait* submit = c.kernel().find_io_wait(cookie);
    PARATICK_CHECK(submit != nullptr);
    c.push_frame([&c, cookie] {
      GuestKernel& k = c.kernel();
      IoWait* w = k.find_io_wait(cookie);
      if (w == nullptr || w->completed_early) {
        if (w != nullptr) k.erase_io_wait(*w);
        c.resume_current();
        return;
      }
      w->blocked = true;
      c.block_current();
    });
    c.kvm().port_io_submit(c.vcpu(), submit->req);
  });
  kvm_.port_run(c.vcpu(), c.costs().blk_submit, hw::CycleCategory::kGuestKernel);
}

GuestKernel::IoWait* GuestKernel::find_io_wait(std::uint64_t cookie) {
  for (IoWait& w : io_waits_) {
    if (w.req.cookie == cookie) return &w;
  }
  return nullptr;
}

void GuestKernel::erase_io_wait(IoWait& w) {
  w = io_waits_.back();
  io_waits_.pop_back();
}

void GuestKernel::io_complete(GuestCpu& c, const hw::IoRequest& req) {
  if (req.failed) ++io_errors_;
  IoWait* w = find_io_wait(req.cookie);
  if (w == nullptr) return;  // spurious / already handled
  if (!w->blocked) {
    w->completed_early = true;
    return;
  }
  GuestTask* t = w->task;
  erase_io_wait(*w);
  wake_task(*t, c);
}

void GuestKernel::task_finished(GuestCpu& c) {
  GuestTask* t = c.current();
  PARATICK_CHECK(t != nullptr);
  t->state = GuestTask::State::kDone;
  t->finished_at = c.now();
  c.current_ = nullptr;
  ++tasks_done_;
  if (all_done() && on_all_done_) on_all_done_();
  c.schedule();
}

}  // namespace paratick::guest

#include "sim/engine.hpp"

#include <chrono>
#include <utility>

#include "sim/check.hpp"
#include "sim/error.hpp"
#include "sim/watchdog.hpp"

namespace paratick::sim {

namespace {

thread_local Engine* g_current_engine = nullptr;

// RAII guard marking `e` as the engine executing on this thread. Nesting
// (an event body driving a second engine) restores the outer engine.
class ScopedCurrent {
 public:
  explicit ScopedCurrent(Engine* e) : prev_(g_current_engine) {
    g_current_engine = e;
  }
  ~ScopedCurrent() { g_current_engine = prev_; }
  ScopedCurrent(const ScopedCurrent&) = delete;
  ScopedCurrent& operator=(const ScopedCurrent&) = delete;

 private:
  Engine* prev_;
};

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Accumulates run()/run_until() wall time into the owning engine even when
// the loop exits via a SimError (chaos runs throw out of step()).
class ScopedRunTimer {
 public:
  explicit ScopedRunTimer(std::uint64_t& sink)
      : sink_(sink), start_ns_(steady_now_ns()) {}
  ~ScopedRunTimer() { sink_ += steady_now_ns() - start_ns_; }
  ScopedRunTimer(const ScopedRunTimer&) = delete;
  ScopedRunTimer& operator=(const ScopedRunTimer&) = delete;

 private:
  std::uint64_t& sink_;
  std::uint64_t start_ns_;
};

}  // namespace

Engine* Engine::current() { return g_current_engine; }

EngineProfile Engine::profile() const {
  EngineProfile p;
  p.events_executed = executed_;
  p.events_scheduled = queue_.scheduled_count();
  p.events_cancelled = queue_.cancelled_count();
  p.callback_spills = queue_.callback_spills();
  p.callback_spill_bytes = queue_.callback_spill_bytes();
  p.slot_high_water = queue_.slot_high_water();
  p.compactions = queue_.compactions();
  p.wall_ns = run_wall_ns_;
  return p;
}

void Engine::set_wall_limit(double seconds) {
  if (seconds <= 0.0) {
    wall_limited_ = false;
    wall_armed_ = false;
    return;
  }
  wall_limited_ = true;
  wall_armed_ = false;  // re-anchored when execution begins
  wall_budget_ns_ = static_cast<std::uint64_t>(seconds * 1e9);
}

void Engine::set_watchdog(Watchdog* watchdog) {
  watchdog_ = watchdog;
  if (watchdog_ == nullptr) {
    next_sweep_ = SimTime::max();
    return;
  }
  const std::int64_t period = Watchdog::kPeriod.nanoseconds();
  next_sweep_ = SimTime::ns((now_.nanoseconds() + period - 1) / period * period);
}

void Engine::sweep_watchdog() {
  const std::int64_t period = Watchdog::kPeriod.nanoseconds();
  next_sweep_ = SimTime::ns((now_.nanoseconds() / period + 1) * period);
  watchdog_->sweep(*this);
}

void Engine::arm_wall_limit() {
  if (!wall_limited_ || wall_armed_) return;
  wall_armed_ = true;
  wall_deadline_ns_ = steady_now_ns() + wall_budget_ns_;
}

EventId Engine::schedule_at(SimTime when, Callback&& fn) {
  PARATICK_CHECK_MSG(when >= now_, "cannot schedule an event in the past");
  return queue_.schedule(when, std::move(fn));
}

EventId Engine::schedule_after(SimTime delay, Callback&& fn) {
  PARATICK_CHECK_MSG(delay >= SimTime::zero(), "negative delay");
  return queue_.schedule(now_ + delay, std::move(fn));
}

namespace {

constexpr std::uint64_t mix64(std::uint64_t z) {
  // splitmix64 finalizer, the same avalanche Rng seeding uses.
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t Engine::state_digest() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  h = mix64(h ^ static_cast<std::uint64_t>(now_.nanoseconds()));
  h = mix64(h ^ executed_);
  h = mix64(h ^ static_cast<std::uint64_t>(queue_.size()));
  h = mix64(h ^ queue_.scheduled_count());
  h = mix64(h ^ queue_.cancelled_count());
  return h;
}

bool Engine::step() {
  if (queue_.empty()) return false;
  arm_wall_limit();  // covers bare step() loops that never enter run()
  auto [when, seq, fn] = queue_.pop();
  PARATICK_CHECK_MSG(when >= now_, "event popped before the clock");
  now_ = when;
  // Before the event runs, so a breach reports the events completed so far.
  if (now_ >= next_sweep_) sweep_watchdog();
  // Checked every 512 events, including the very first (executed_ == 0),
  // so an already-exhausted budget trips on the next step rather than
  // 512 events later.
  if (wall_limited_ && (executed_ & 511u) == 0 &&
      steady_now_ns() > wall_deadline_ns_) {
    throw SimError(SimError::Kind::kTimeout, "wall-clock limit exceeded", "", 0,
                   "run exceeded its wall-clock budget (hung or runaway run)",
                   now_, executed_);
  }
  ++executed_;
  ScopedCurrent guard(this);
  fn();
  if (observer_ != nullptr) observer_->on_event_executed(*this, when, seq);
  return true;
}

void Engine::run_until(SimTime deadline) {
  stopped_ = false;
  arm_wall_limit();
  {
    ScopedRunTimer timer(run_wall_ns_);
    while (!stopped_ && !queue_.empty() && queue_.next_time() <= deadline) {
      step();
    }
  }
  // A drained queue has no event left to sweep at: sweep at each boundary
  // up to the deadline instead, so a guest that hangs with nothing
  // scheduled is still reported within one period. (A boundary the clock
  // already passed is swept now.)
  while (!stopped_ && queue_.empty() && next_sweep_ <= deadline) {
    if (now_ < next_sweep_) now_ = next_sweep_;
    sweep_watchdog();
  }
  // A stop() mid-run leaves the clock at the stopping event; a normal
  // completion advances it to the requested deadline.
  if (!stopped_ && now_ < deadline) now_ = deadline;
}

void Engine::run_before(SimTime bound) {
  stopped_ = false;
  arm_wall_limit();
  ScopedRunTimer timer(run_wall_ns_);
  while (!stopped_ && !queue_.empty() && queue_.next_time() < bound) {
    step();
  }
}

void Engine::advance_to(SimTime t) {
  PARATICK_CHECK_MSG(t >= now_, "advance_to would move the clock backwards");
  PARATICK_CHECK_MSG(queue_.empty() || queue_.next_time() >= t,
                     "advance_to would skip over pending events");
  now_ = t;
}

void Engine::run() {
  stopped_ = false;
  arm_wall_limit();
  ScopedRunTimer timer(run_wall_ns_);
  while (!stopped_ && step()) {
  }
}

}  // namespace paratick::sim

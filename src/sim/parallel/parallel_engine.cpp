#include "sim/parallel/parallel_engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/check.hpp"

namespace paratick::sim {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

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

constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Inbox heap order: true when `a` delivers after `b`, so the heap's front
/// is the earliest message by (deliver_at, src, src_seq).
template <typename Msg>
bool delivers_later(const Msg& a, const Msg& b) {
  if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
  if (a.src != b.src) return a.src > b.src;
  return a.src_seq > b.src_seq;
}

}  // namespace

ParallelEngine::ParallelEngine(SimTime lookahead) : lookahead_(lookahead) {
  PARATICK_CHECK_MSG(lookahead > SimTime::zero(),
                     "the lookahead must be positive: a zero-length round "
                     "would never advance");
}

PartitionId ParallelEngine::add_partition(Engine& engine, std::string name) {
  PARATICK_CHECK_MSG(!running_, "cannot add a partition mid-run");
  for (const Partition& p : parts_) {
    PARATICK_CHECK_MSG(p.engine != &engine,
                       "engine already registered as a partition");
  }
  Partition part;
  part.engine = &engine;
  part.name = name.empty()
                  ? "partition" + std::to_string(parts_.size())
                  : std::move(name);
  parts_.push_back(std::move(part));
  return static_cast<PartitionId>(parts_.size() - 1);
}

void ParallelEngine::send(PartitionId src, PartitionId dst, SimTime delay,
                          Engine::Callback fn) {
  PARATICK_CHECK_MSG(src < parts_.size() && dst < parts_.size(),
                     "send between unknown partitions");
  PARATICK_CHECK_MSG(delay >= lookahead_,
                     "cross-partition send faster than the lookahead "
                     "(would land inside the current round)");
  Partition& s = parts_[src];
  // Only the source partition's own events (or code between drives) may
  // send as `src`: its clock stamps the message.
  PARATICK_DCHECK(Engine::current() == s.engine || Engine::current() == nullptr);
  std::vector<CrossMessage>& inbox = parts_[dst].inbox;
  inbox.push_back({s.engine->now() + delay, src, s.send_seq++, std::move(fn)});
  std::push_heap(inbox.begin(), inbox.end(), delivers_later<CrossMessage>);
  ++cross_messages_;
}

void ParallelEngine::run_partition(Partition& p, SimTime end) {
  // Alternate between draining local events and injecting inbox messages:
  // a message delivering at `t` enters the engine after every local event
  // with `when < t` executed and before anything at or past `t` runs, so
  // the seq it takes does not depend on where any round ends.
  std::vector<CrossMessage>& inbox = p.inbox;
  for (;;) {
    const bool msg = !inbox.empty() && inbox.front().deliver_at < end;
    const SimTime limit = msg ? inbox.front().deliver_at : end;
    if (p.engine->has_pending_events() &&
        p.engine->queue().next_time() < limit) {
      p.engine->run_before(limit);
    }
    if (!msg) return;
    do {
      std::pop_heap(inbox.begin(), inbox.end(), delivers_later<CrossMessage>);
      p.engine->schedule_at(limit, std::move(inbox.back().fn));
      inbox.pop_back();
    } while (!inbox.empty() && inbox.front().deliver_at == limit);
  }
}

void ParallelEngine::drive(std::optional<SimTime> deadline) {
  PARATICK_CHECK_MSG(!parts_.empty(), "ParallelEngine has no partitions");
  PARATICK_CHECK_MSG(!running_, "ParallelEngine::run is not reentrant");
  running_ = true;
  ScopedRunTimer timer(wall_ns_);

  struct RunningGuard {
    explicit RunningGuard(bool& flag) : flag_(flag) {}
    ~RunningGuard() { flag_ = false; }
    bool& flag_;
  } running_guard(running_);

  std::optional<SimTime> prev_end;
  for (;;) {
    // The round starts at the earliest pending work anywhere: a local
    // event or an undelivered message.
    std::optional<SimTime> start;
    for (const Partition& p : parts_) {
      if (p.engine->has_pending_events() &&
          (!start || p.engine->queue().next_time() < *start)) {
        start = p.engine->queue().next_time();
      }
      if (!p.inbox.empty() && (!start || p.inbox.front().deliver_at < *start)) {
        start = p.inbox.front().deliver_at;
      }
    }
    if (!start || (deadline && *start > *deadline)) break;
    if (prev_end && *start > *prev_end) {
      windows_skipped_ +=
          static_cast<std::uint64_t>((*start - *prev_end) / lookahead_);
    }

    SimTime end = *start < SimTime::max() - lookahead_ ? *start + lookahead_
                                                       : SimTime::max();
    if (deadline && *deadline < end) end = *deadline + SimTime::ns(1);
    // Id order: the lowest failing partition's error is the one that
    // propagates.
    for (Partition& p : parts_) run_partition(p, end);
    ++quanta_;
    prev_end = end;
  }

  if (deadline) {
    for (Partition& p : parts_) {
      if (p.engine->now() < *deadline) p.engine->advance_to(*deadline);
    }
  }
}

void ParallelEngine::run() { drive(std::nullopt); }

void ParallelEngine::run_until(SimTime deadline) { drive(deadline); }

ParallelProfile ParallelEngine::profile() const {
  ParallelProfile prof;
  prof.partitions = parts_.size();
  prof.quanta = quanta_;
  prof.windows_skipped = windows_skipped_;
  prof.cross_messages = cross_messages_;
  prof.wall_ns = wall_ns_;
  for (const Partition& p : parts_) {
    const EngineProfile ep = p.engine->profile();
    prof.events_committed += ep.events_executed;
    prof.merged.events_executed += ep.events_executed;
    prof.merged.events_scheduled += ep.events_scheduled;
    prof.merged.events_cancelled += ep.events_cancelled;
    prof.merged.callback_spills += ep.callback_spills;
    prof.merged.callback_spill_bytes += ep.callback_spill_bytes;
    prof.merged.slot_high_water += ep.slot_high_water;
    prof.merged.compactions += ep.compactions;
  }
  return prof;
}

std::uint64_t ParallelEngine::state_digest() const {
  // Round counters are deliberately excluded: they describe how the run
  // was driven, not what it computed.
  std::uint64_t h = 0xA24BAED4963EE407ull;
  for (const Partition& p : parts_) {
    h = mix64(h ^ p.engine->state_digest());
  }
  h = mix64(h ^ cross_messages_);
  return h;
}

}  // namespace paratick::sim

#include "sim/parallel/parallel_engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
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

/// `a + b` on SimTime nanoseconds, saturating at SimTime::max() (horizon
/// arithmetic routinely adds latencies to "never" floors).
SimTime saturating_add(SimTime a, SimTime b) {
  const std::int64_t an = a.nanoseconds();
  const std::int64_t bn = b.nanoseconds();
  if (an > std::numeric_limits<std::int64_t>::max() - bn) {
    return SimTime::max();
  }
  return SimTime::ns(an + bn);
}

}  // namespace

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

void ParallelEngine::declare_link(PartitionId src, PartitionId dst,
                                  SimTime min_latency) {
  PARATICK_CHECK_MSG(src < parts_.size() && dst < parts_.size(),
                     "declare_link on an unknown partition");
  PARATICK_CHECK_MSG(src != dst, "a partition needs no link to itself");
  PARATICK_CHECK_MSG(min_latency > SimTime::zero(),
                     "cross-partition latency must be positive: a zero-"
                     "latency link would force a zero-length lookahead");
  links_.push_back({src, dst, min_latency});
}

void ParallelEngine::declare_full_mesh(SimTime min_latency) {
  for (PartitionId s = 0; s < parts_.size(); ++s) {
    for (PartitionId d = 0; d < parts_.size(); ++d) {
      if (s != d) declare_link(s, d, min_latency);
    }
  }
}

std::optional<SimTime> ParallelEngine::link_latency(PartitionId src,
                                                    PartitionId dst) const {
  std::optional<SimTime> best;
  for (const Link& l : links_) {
    if (l.src == src && l.dst == dst && (!best || l.min_latency < *best)) {
      best = l.min_latency;
    }
  }
  return best;
}

std::optional<SimTime> ParallelEngine::lookahead() const {
  std::optional<SimTime> best;
  for (const Link& l : links_) {
    if (!best || l.min_latency < *best) best = l.min_latency;
  }
  return best;
}

void ParallelEngine::send(PartitionId src, PartitionId dst, SimTime delay,
                          Engine::Callback fn) {
  PARATICK_CHECK_MSG(src < parts_.size() && dst < parts_.size(),
                     "send between unknown partitions");
  Partition& s = parts_[src];
  // Only the source partition's own events (or pre-run setup code) may
  // send as `src`: its clock stamps the message.
  PARATICK_DCHECK(Engine::current() == s.engine || Engine::current() == nullptr);
  const std::optional<SimTime> link = link_latency(src, dst);
  PARATICK_CHECK_MSG(link.has_value(),
                     "cross-partition send over an undeclared link");
  PARATICK_CHECK_MSG(delay >= *link,
                     "cross-partition send faster than the declared link "
                     "latency (would violate the lookahead window)");
  CrossMessage msg;
  msg.deliver_at = s.engine->now() + delay;
  msg.src = src;
  msg.dst = dst;
  msg.src_seq = s.send_seq++;
  msg.fn = std::move(fn);
  outbox_.push_back(std::move(msg));
}

void ParallelEngine::ingest_outbox() {
  // Commit buffered sends into their destination inboxes, sorted by
  // (delivery time, source partition, per-source send order): the
  // destination injects each message into its engine exactly when its own
  // execution first reaches the delivery time, so its schedule-order seq
  // assignment — and therefore its whole future event order — is a pure
  // function of committed state, independent of window shapes.
  if (outbox_.empty()) return;
  const auto msg_order = [](const CrossMessage& a, const CrossMessage& b) {
    if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
    if (a.src != b.src) return a.src < b.src;
    return a.src_seq < b.src_seq;
  };
  std::sort(outbox_.begin(), outbox_.end(), msg_order);
  constexpr std::size_t kUntouched = ~static_cast<std::size_t>(0);
  std::vector<std::size_t> merged_from(parts_.size(), kUntouched);
  for (CrossMessage& m : outbox_) {
    Partition& d = parts_[m.dst];
    if (merged_from[m.dst] == kUntouched) {
      // Drop the already-injected prefix before growing the inbox.
      d.inbox.erase(d.inbox.begin(),
                    d.inbox.begin() + static_cast<std::ptrdiff_t>(d.inbox_pos));
      d.inbox_pos = 0;
      merged_from[m.dst] = d.inbox.size();
    }
    d.inbox.push_back(std::move(m));
  }
  for (PartitionId pid = 0; pid < parts_.size(); ++pid) {
    if (merged_from[pid] == kUntouched) continue;
    Partition& d = parts_[pid];
    std::inplace_merge(
        d.inbox.begin(),
        d.inbox.begin() + static_cast<std::ptrdiff_t>(merged_from[pid]),
        d.inbox.end(), msg_order);
  }
  cross_messages_ += outbox_.size();
  outbox_.clear();
}

std::optional<SimTime> ParallelEngine::floor_of(const Partition& p) const {
  std::optional<SimTime> f;
  if (p.engine->has_pending_events()) f = p.engine->queue().next_time();
  if (p.inbox_pos < p.inbox.size()) {
    const SimTime t = p.inbox[p.inbox_pos].deliver_at;
    if (!f || t < *f) f = t;
  }
  return f;
}

void ParallelEngine::run_partition_window(Partition& p) {
  // Alternate between draining local events and injecting inbox messages:
  // a message delivering at `t` enters the engine after every local event
  // with `when < t` executed and before anything at or past `t` runs.
  // That injection point is a pure function of the committed event stream
  // — not of window bounds — so the seq numbers the destination assigns
  // (and with them every per-event digest) are identical however far a
  // window reaches.
  const SimTime bound = p.window_bound;
  for (;;) {
    const bool msg = p.inbox_pos < p.inbox.size() &&
                     p.inbox[p.inbox_pos].deliver_at < bound;
    const SimTime limit = msg ? p.inbox[p.inbox_pos].deliver_at : bound;
    if (p.engine->has_pending_events() &&
        p.engine->queue().next_time() < limit) {
      p.engine->run_before(limit);
    }
    if (!msg) return;
    const SimTime t = limit;
    do {
      p.engine->schedule_at(t, std::move(p.inbox[p.inbox_pos].fn));
      ++p.inbox_pos;
    } while (p.inbox_pos < p.inbox.size() &&
             p.inbox[p.inbox_pos].deliver_at == t);
  }
}

void ParallelEngine::execute_window() {
  // Id order: the lowest failing partition's error is the one that
  // propagates.
  for (Partition& p : parts_) {
    if (p.runnable) run_partition_window(p);
  }
}

void ParallelEngine::flush_inboxes() {
  // Drive teardown: every message still undelivered is addressed past the
  // deadline. Park it in the destination queue in inbox order (the
  // deterministic commit order). It takes its seq now, not at its
  // delivery time, which is why where a run is sliced can renumber
  // events.
  for (Partition& p : parts_) {
    for (std::size_t i = p.inbox_pos; i < p.inbox.size(); ++i) {
      p.engine->schedule_at(p.inbox[i].deliver_at, std::move(p.inbox[i].fn));
    }
    p.inbox.clear();
    p.inbox_pos = 0;
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

  incoming_.assign(parts_.size(), {});
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    incoming_[links_[i].dst].push_back(i);
  }

  const std::optional<SimTime> window = lookahead();
  std::optional<SimTime> prev_min_bound;
  std::vector<SimTime> floors(parts_.size());
  for (;;) {
    // Barrier head: commit the previous window's sends (and any pre-run
    // sends).
    ingest_outbox();

    // Per-partition floors (earliest committed pending work) and the
    // global frontier: the earliest of them is the next window's start.
    std::optional<SimTime> next;
    for (PartitionId pid = 0; pid < parts_.size(); ++pid) {
      const std::optional<SimTime> f = floor_of(parts_[pid]);
      floors[pid] = f.value_or(SimTime::max());
      if (f && (!next || *f < *next)) next = *f;
    }

    if (!next || (deadline && *next > *deadline)) break;

    // Sparse barriers: the window start jumps directly to the earliest
    // committed work — count the empty global quanta that jump skipped.
    const SimTime start = *next;
    if (prev_min_bound && start > *prev_min_bound) {
      ++idle_skips_;
      if (window) {
        windows_skipped_ += static_cast<std::uint64_t>(
            (start.nanoseconds() - prev_min_bound->nanoseconds()) /
            window->nanoseconds());
      }
    }

    // Horizons need the min-plus closure of the floors: an idle
    // partition can be woken by a message this window and relay onward,
    // so the earliest a partition can possibly execute is the shortest
    // latency path from any floor (Bellman-Ford; latencies are positive,
    // so this converges in at most partition_count passes).
    for (std::size_t pass = 0; pass < parts_.size(); ++pass) {
      bool changed = false;
      for (const Link& l : links_) {
        if (floors[l.src] == SimTime::max()) continue;
        const SimTime via = saturating_add(floors[l.src], l.min_latency);
        if (via < floors[l.dst]) {
          floors[l.dst] = via;
          changed = true;
        }
      }
      if (!changed) break;
    }

    // Per-partition execution bounds for this window.
    std::optional<SimTime> min_runnable_bound;
    for (PartitionId pid = 0; pid < parts_.size(); ++pid) {
      Partition& p = parts_[pid];
      SimTime bound = SimTime::max();
      if (window) {
        // CMB-style safe horizon: nothing can arrive before the earliest
        // possible send on an incoming link lands.
        for (const std::uint32_t li : incoming_[pid]) {
          const Link& l = links_[li];
          const SimTime via = saturating_add(floors[l.src], l.min_latency);
          if (via < bound) bound = via;
        }
        const std::int64_t wn = window->nanoseconds();
        if (kMaxHorizonWindows <
            std::numeric_limits<std::int64_t>::max() / wn) {
          const SimTime cap =
              saturating_add(start, SimTime::ns(wn * kMaxHorizonWindows));
          if (cap < bound) bound = cap;
        }
        // The horizon can never be tighter than the global quantum.
        const SimTime global_bound = start + *window;
        if (bound < global_bound) bound = global_bound;
      }
      if (deadline && *deadline < SimTime::max() &&
          (*deadline + SimTime::ns(1)) < bound) {
        bound = *deadline + SimTime::ns(1);
      }
      p.window_bound = bound;
      const std::optional<SimTime> f = floor_of(p);
      p.runnable = f.has_value() && *f < bound;
      if (!p.runnable) continue;
      if (!min_runnable_bound || bound < *min_runnable_bound) {
        min_runnable_bound = bound;
      }
      if (window && bound > start + *window) {
        barriers_elided_ += static_cast<std::uint64_t>(
            (bound.nanoseconds() - start.nanoseconds() -
             window->nanoseconds()) /
            window->nanoseconds());
      }
      const std::uint64_t advance_ns =
          static_cast<std::uint64_t>(bound.nanoseconds() - start.nanoseconds());
      if (advance_ns > horizon_max_ns_) horizon_max_ns_ = advance_ns;
    }

    execute_window();
    ++quanta_;
    prev_min_bound = min_runnable_bound;
  }

  if (deadline) {
    for (Partition& p : parts_) {
      if (p.engine->now() < *deadline) p.engine->advance_to(*deadline);
    }
    flush_inboxes();
  } else {
    // run() drains everything; only the injected prefixes remain.
    for (Partition& p : parts_) {
      p.inbox.clear();
      p.inbox_pos = 0;
    }
  }
}

void ParallelEngine::run() { drive(std::nullopt); }

void ParallelEngine::run_until(SimTime deadline) { drive(deadline); }

ParallelProfile ParallelEngine::profile() const {
  ParallelProfile prof;
  prof.partitions = parts_.size();
  prof.quanta = quanta_;
  prof.idle_skips = idle_skips_;
  prof.windows_skipped = windows_skipped_;
  prof.barriers_elided = barriers_elided_;
  prof.horizon_max_ns = horizon_max_ns_;
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
  // Window counters are deliberately excluded: they describe how the
  // run was driven, not what it computed.
  std::uint64_t h = 0xA24BAED4963EE407ull;
  for (const Partition& p : parts_) {
    h = mix64(h ^ p.engine->state_digest());
  }
  h = mix64(h ^ cross_messages_);
  return h;
}

}  // namespace paratick::sim

// Event-trace recording and replay-time divergence checking.
//
// TraceRecorder hangs off sim::Engine's dispatch loop (EventObserver) and
// appends one compact record per executed event. TraceChecker re-walks a
// recorded trace while a replay executes and raises
// sim::SimError{kDivergence} — with the full recorded-vs-observed context
// — at the FIRST event that stops matching. Byte-identity of the event
// stream is the divergence predicate: same time, same event seq, same
// post-event state digest, for every event. check_replay() re-executes a
// failure bundle's run with a TraceChecker attached: that one pass is how
// bench_replay locates a divergence.
//
// Recorder and checker are observational: attaching them never changes
// what the engine executes, so a recorded sweep stays bit-identical to an
// unrecorded one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/record_replay/trace.hpp"
#include "core/replay.hpp"
#include "core/sweep.hpp"
#include "sim/engine.hpp"

namespace paratick::core::record_replay {

/// Truncate a 64-bit engine state digest to the per-record form.
[[nodiscard]] constexpr std::uint32_t digest32(std::uint64_t d) {
  return static_cast<std::uint32_t>(d ^ (d >> 32));
}

class TraceRecorder final : public sim::EventObserver {
 public:
  TraceRecorder() { trace_.reserve_events(kReserveEvents); }

  void on_event_executed(sim::Engine& engine, sim::SimTime when,
                         std::uint64_t seq) override {
    trace_.append(when.nanoseconds(), seq, digest32(engine.state_digest()));
  }

  [[nodiscard]] const EventTrace& trace() const { return trace_; }
  [[nodiscard]] EventTrace take() { return std::move(trace_); }

 private:
  /// Initial trace buffer size, in events; longer runs grow it.
  static constexpr std::uint64_t kReserveEvents = 1 << 16;
  EventTrace trace_;
};

/// One recorded-vs-observed mismatch: the first event where a replay
/// stopped matching its trace.
struct Divergence {
  enum class What : std::uint8_t {
    kTime,          // event fired at a different simulated time
    kSeq,           // a different event (schedule identity) fired
    kDigest,        // same event, different resulting engine state
    kExtraEvent,    // replay executed events past the recorded end
    kMissingEvent,  // replay ended before the recorded end
  };
  What what = What::kDigest;
  std::uint64_t index = 0;   // 0-based index of the first divergent event
  TraceRecord recorded;      // zeroed for kExtraEvent
  TraceRecord observed;      // zeroed for kMissingEvent

  [[nodiscard]] static const char* what_name(What w);
  /// "event #N: recorded t=..ns seq=.. digest=0x.., replayed ..."
  [[nodiscard]] std::string describe() const;
};

class TraceChecker final : public sim::EventObserver {
 public:
  /// Check the replay against `trace` (which must outlive the checker):
  /// every observed event is compared with the next recorded one, and the
  /// first mismatch is stored and thrown as SimError{kDivergence}.
  explicit TraceChecker(const EventTrace& trace);

  void on_event_executed(sim::Engine& engine, sim::SimTime when,
                         std::uint64_t seq) override;

  /// Observed events so far.
  [[nodiscard]] std::uint64_t events_seen() const { return seen_; }
  /// Set when the check threw: the full mismatch context.
  [[nodiscard]] const std::optional<Divergence>& divergence() const {
    return divergence_;
  }

  /// Call after the replay ran to completion without failing: a replay
  /// that observed fewer events than the trace holds silently ended
  /// early — returns that kMissingEvent divergence.
  [[nodiscard]] std::optional<Divergence> check_complete();

 private:
  const EventTrace& trace_;
  EventTrace::Cursor cursor_;
  std::uint64_t seen_ = 0;
  std::optional<Divergence> divergence_;
};

/// Outcome of one trace-checked replay.
struct ReplayCheckResult {
  SweepRun run;  // disposition of the replay (failure may be kDivergence)
  std::optional<Divergence> divergence;  // first mismatch, if any
  std::uint64_t events_checked = 0;
};

/// Replay the bundle's run with a TraceChecker attached: one pass that
/// stops at the first divergent event.
[[nodiscard]] ReplayCheckResult check_replay(SweepConfig cfg,
                                             const ReplayBundle& b,
                                             const EventTrace& trace);

}  // namespace paratick::core::record_replay

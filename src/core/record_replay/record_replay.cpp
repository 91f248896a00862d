#include "core/record_replay/record_replay.hpp"

#include <cstdio>
#include <utility>

#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core::record_replay {

namespace {

void append_record(std::string& out, const TraceRecord& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "t=%lldns seq=%llu digest=0x%08x",
                static_cast<long long>(r.time_ns),
                static_cast<unsigned long long>(r.seq), r.digest);
  out += buf;
}

}  // namespace

const char* Divergence::what_name(What w) {
  switch (w) {
    case What::kTime: return "time mismatch";
    case What::kSeq: return "event identity mismatch";
    case What::kDigest: return "state digest mismatch";
    case What::kExtraEvent: return "extra event past recorded end";
    case What::kMissingEvent: return "replay ended before recorded end";
  }
  return "?";
}

std::string Divergence::describe() const {
  std::string out = what_name(what);
  char idx[48];
  std::snprintf(idx, sizeof idx, " at event #%llu: ",
                static_cast<unsigned long long>(index));
  out += idx;
  if (what == What::kExtraEvent) {
    out += "recorded <end of trace>, replayed ";
    append_record(out, observed);
  } else if (what == What::kMissingEvent) {
    out += "recorded ";
    append_record(out, recorded);
    out += ", replayed <run ended>";
  } else {
    out += "recorded ";
    append_record(out, recorded);
    out += ", replayed ";
    append_record(out, observed);
  }
  return out;
}

TraceChecker::TraceChecker(const EventTrace& trace)
    : trace_(trace), cursor_(trace) {}

void TraceChecker::on_event_executed(sim::Engine& engine, sim::SimTime when,
                                     std::uint64_t seq) {
  const TraceRecord observed{when.nanoseconds(), seq,
                             digest32(engine.state_digest())};
  const std::uint64_t index = seen_++;

  TraceRecord recorded;
  if (!cursor_.next(&recorded)) {
    divergence_ = Divergence{Divergence::What::kExtraEvent, index,
                             TraceRecord{}, observed};
  } else if (observed.seq != recorded.seq) {
    divergence_ =
        Divergence{Divergence::What::kSeq, index, recorded, observed};
  } else if (observed.time_ns != recorded.time_ns) {
    divergence_ =
        Divergence{Divergence::What::kTime, index, recorded, observed};
  } else if (observed.digest != recorded.digest) {
    divergence_ =
        Divergence{Divergence::What::kDigest, index, recorded, observed};
  }
  if (divergence_) {
    throw sim::SimError(sim::SimError::Kind::kDivergence, "replay == trace",
                        "", 0, divergence_->describe(), when,
                        engine.events_executed());
  }
}

std::optional<Divergence> TraceChecker::check_complete() {
  if (divergence_) return divergence_;
  if (seen_ >= trace_.count()) return std::nullopt;
  // The replay fell silent while the trace still has events: report the
  // first unmatched record.
  TraceRecord recorded;
  cursor_.next(&recorded);
  divergence_ = Divergence{Divergence::What::kMissingEvent, seen_, recorded,
                           TraceRecord{}};
  return divergence_;
}

ReplayCheckResult check_replay(SweepConfig cfg, const ReplayBundle& b,
                               const EventTrace& trace) {
  // An observational pass: write no sweep artifacts, print no progress.
  cfg.record_trace = false;
  cfg.progress = false;
  cfg.failure_dir.clear();
  TraceChecker checker(trace);
  cfg.observer = &checker;
  ReplayCheckResult out;
  out.run = replay_run(std::move(cfg), b);
  out.divergence = checker.check_complete();
  out.events_checked = checker.events_seen();
  return out;
}

}  // namespace paratick::core::record_replay

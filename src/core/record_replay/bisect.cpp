#include "core/record_replay/bisect.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "metrics/report.hpp"
#include "sim/check.hpp"

namespace paratick::core::record_replay {

namespace {

/// Sanitize a replay config: observational passes must not write any
/// sweep artifacts or chatter on stderr.
void quiesce(SweepConfig& cfg) {
  cfg.record_trace = false;
  cfg.progress = false;
  cfg.failure_dir.clear();
}

struct Probe {
  std::uint64_t seen = 0;
  std::uint64_t chain = kChainSeed;
};

/// Replay with a chain-only checker over the first `limit` events. The
/// run always executes to its natural end (stopping an engine mid-run
/// would trip watchdog/teardown paths and taint the probe); only the
/// folded chain digest of the prefix is the signal.
Probe probe_prefix(const SweepConfig& cfg, const ReplayBundle& b,
                   const EventTrace& trace, std::uint64_t limit) {
  TraceChecker checker(trace, TraceChecker::Mode::kChainOnly, limit);
  SweepConfig probe_cfg = cfg;
  probe_cfg.observer = &checker;
  (void)replay_run(std::move(probe_cfg), b);
  return {checker.events_seen(), checker.observed_chain()};
}

}  // namespace

ReplayCheckResult check_replay(SweepConfig cfg, const ReplayBundle& b,
                               const EventTrace& trace) {
  PARATICK_CHECK_MSG(
      b.failure.kind != RunFailure::Kind::kCrash,
      "crash bundles replay in a forked child; their traces cannot be "
      "checked in-process");
  quiesce(cfg);
  TraceChecker checker(trace, TraceChecker::Mode::kPerEvent);
  cfg.observer = &checker;
  ReplayCheckResult out;
  out.run = replay_run(std::move(cfg), b);
  out.divergence = checker.divergence();
  if (!out.divergence) out.divergence = checker.check_complete();
  out.events_checked = checker.events_seen();
  return out;
}

BisectReport bisect_divergence(SweepConfig cfg, const ReplayBundle& b,
                               const EventTrace& trace, bool progress) {
  quiesce(cfg);
  BisectReport rep;
  rep.recorded_events = trace.count();

  ReplayCheckResult full = check_replay(cfg, b, trace);
  rep.run = std::move(full.run);
  if (!full.divergence) {
    rep.note = metrics::format(
        "replay matches the recorded trace over all %llu events",
        static_cast<unsigned long long>(trace.count()));
    return rep;
  }
  rep.diverged = true;
  rep.first = full.divergence;
  const Divergence& d = *rep.first;

  if (d.what == Divergence::What::kExtraEvent) {
    // Every recorded event matched; the replay simply outlives the trace.
    // Prefix probes cannot see past the recorded end — nothing to search.
    rep.bisect_index = d.index;
    rep.indices_agree = true;
    rep.note = "replay matches every recorded event, then keeps executing";
    return rep;
  }

  const auto matches = [&](std::uint64_t n) {
    ++rep.probes;
    const Probe p = probe_prefix(cfg, b, trace, n);
    const bool ok = p.seen == n && p.chain == trace.chain_at(n);
    if (progress) {
      std::fprintf(stderr, "bisect: prefix of %llu events %s\n",
                   static_cast<unsigned long long>(n),
                   ok ? "matches" : "diverges");
    }
    return ok;
  };

  // Invariant binary search: the empty prefix trivially matches; the full
  // trace must not (the per-event pass diverged inside it). The minimal
  // mismatching prefix ends at the first divergent event.
  std::uint64_t lo = 0;
  std::uint64_t hi = trace.count();
  if (matches(hi)) {
    rep.bisect_index = hi;
    rep.note =
        "chain probe of the full trace matches although the per-event "
        "check diverged — the replay is not deterministic";
    return rep;
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (matches(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  rep.bisect_index = hi - 1;
  rep.indices_agree = rep.bisect_index == d.index;
  rep.note =
      rep.indices_agree
          ? metrics::format("chain binary search (%llu probes) confirms the "
                            "per-event check",
                            static_cast<unsigned long long>(rep.probes))
          : metrics::format(
                "chain binary search pins event #%llu but the per-event "
                "check saw #%llu — the replay is not deterministic",
                static_cast<unsigned long long>(rep.bisect_index),
                static_cast<unsigned long long>(d.index));
  return rep;
}

}  // namespace paratick::core::record_replay

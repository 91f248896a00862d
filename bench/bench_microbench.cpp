// Engine hot-path microbenchmarks: no hypervisor, no guest — just the
// DES core under the four access patterns the paratick model leans on.
//
//   churn      — schedule/cancel/fire storm on the raw engine: a
//                self-rescheduling pump posts payload-carrying events and
//                cancels most of them before they fire (slot-map reuse,
//                stale-id rejection, heap compaction).
//   reprogram  — dynticks reprogram storm: a DeadlineTimer is re-armed
//                many times per sleep, the way NO_HZ reprograms the
//                TSC-deadline MSR (cancel+schedule pairs per re-arm).
//   chain      — one self-rescheduling chain over a fixed background of
//                64 far-future pending events: every event schedules the
//                next as the strict earliest, into the root its pop left
//                vacant — the EventQueue's in-place fill (no sift per
//                link).
//   partchurn  — partitioned churn on sim::ParallelEngine: four engines
//                in a ring, 5us lookahead; each runs a local event pump
//                and periodically sends a cross-partition ping that XORs
//                into its successor's sink (rounds, inbox injection,
//                committed-order determinism).
//
// Every counter except events_per_sec is a pure function of --seed, so
// the --json snapshot diffs bit-exact run to run; events_per_sec is the
// host-dependent throughput figure the CI smoke gates generously.
//
// Usage: bench_microbench [flags]; --help lists them (--repeat, --seed,
// --json, --profile, --quiet).
//
// The JSON output is a SweepResult::to_json()-shaped snapshot (variant =
// case name, mode = "microbench"), so bench_diff consumes it unchanged;
// results/history/bench_microbench/baseline.json is one.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/cli_parse.hpp"
#include "core/safe_io.hpp"
#include "hw/deadline_timer.hpp"
#include "metrics/report.hpp"
#include "sim/engine.hpp"
#include "sim/parallel/parallel_engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

using namespace paratick;

namespace {

struct CaseResult {
  sim::EngineProfile prof;
  std::uint64_t sink = 0;  // data-dependent checksum: defeats DCE, proves determinism
  double host_seconds = 0.0;
  // Parallel-engine round counters (partitioned cases only, zero
  // elsewhere). Both are pure functions of --seed.
  std::uint64_t windows = 0;
  std::uint64_t windows_skipped = 0;
};

// -------------------------------------------------------------- churn ----

/// Self-rescheduling pump: every iteration posts four payload events a few
/// microseconds out and cancels three — one quarter fires. Stale EventIds
/// are left in the victim list on purpose, so a slice of the cancels hits
/// already-fired (generation-retired) slots.
struct ChurnCase {
  sim::Engine eng;
  sim::Rng rng;
  std::vector<sim::EventId> victims;
  std::uint64_t sink = 0;
  std::uint64_t remaining;

  ChurnCase(std::uint64_t seed, std::uint64_t iters) : rng(seed), remaining(iters) {}

  void pump() {
    for (int k = 0; k < 4; ++k) {
      const std::uint64_t a = rng.next_u64();
      const std::uint64_t b = rng.next_u64();
      const std::uint64_t c = rng.next_u64();
      const std::uint64_t d = rng.next_u64();
      victims.push_back(eng.schedule_after(
          sim::SimTime::ns(rng.uniform_int(100, 5000)),
          [this, a, b, c, d] { sink ^= a + (b ^ c) - d; }));
    }
    for (int k = 0; k < 3; ++k) {
      // Mostly-recent picks: usually a live event (real cancel work), but
      // the tail of the window is often already fired — those cancels must
      // bounce off the retired slot's generation check.
      const std::size_t lo = victims.size() > 16 ? victims.size() - 16 : 0;
      const auto i =
          lo + static_cast<std::size_t>(rng.uniform_int(
                   0, static_cast<std::int64_t>(victims.size() - lo) - 1));
      eng.cancel(victims[i]);
      victims[i] = victims.back();
      victims.pop_back();
    }
    if (--remaining > 0) {
      eng.schedule_after(sim::SimTime::ns(50), [this] { pump(); });
    }
  }
};

CaseResult run_churn(std::uint64_t seed) {
  ChurnCase c(seed, 250'000);
  c.eng.schedule_after(sim::SimTime::ns(1), [&c] { c.pump(); });
  c.eng.run();
  return {c.eng.profile(), c.sink, 0.0};
}

// ---------------------------------------------------------- reprogram ----

/// NO_HZ-style reprogram storm: each "idle entry" rewrites the deadline
/// eight times (every arm() cancels the previous engine event and posts a
/// fresh one) before the sleep finally expires or the next entry starts.
struct ReprogramCase {
  sim::Engine eng;
  sim::Rng rng;
  hw::DeadlineTimer timer;
  std::uint64_t sink = 0;
  std::uint64_t remaining;

  ReprogramCase(std::uint64_t seed, std::uint64_t iters)
      : rng(seed),
        timer(eng,
              [this] {
                sink ^= static_cast<std::uint64_t>(eng.now().nanoseconds()) *
                        std::uint64_t{0x9E3779B97F4A7C15u};
              }),
        remaining(iters) {}

  void step() {
    for (int k = 0; k < 8; ++k) {
      timer.arm(eng.now() + sim::SimTime::ns(rng.uniform_int(500, 2000)));
    }
    if (--remaining > 0) {
      eng.schedule_after(sim::SimTime::ns(rng.uniform_int(100, 400)),
                         [this] { step(); });
    }
  }
};

CaseResult run_reprogram(std::uint64_t seed) {
  ReprogramCase r(seed, 150'000);
  r.eng.schedule_after(sim::SimTime::ns(1), [&r] { r.step(); });
  r.eng.run();
  r.sink ^= r.timer.fire_count();
  return {r.eng.profile(), r.sink, 0.0};
}

// -------------------------------------------------------------- chain ----

/// A chain of events, each posting the next 1..100 ns out. The background
/// events lie beyond the chain's end, so each link sorts strictly before
/// every other pending event when it is scheduled.
struct ChainCase {
  sim::Engine eng;
  sim::Rng rng;
  std::uint64_t sink = 0;
  std::uint64_t remaining;

  ChainCase(std::uint64_t seed, std::uint64_t links) : rng(seed), remaining(links) {}

  void link() {
    sink = sink * std::uint64_t{0x9E3779B97F4A7C15u} +
           static_cast<std::uint64_t>(eng.now().nanoseconds());
    if (--remaining > 0) {
      eng.schedule_after(sim::SimTime::ns(rng.uniform_int(1, 100)),
                         [this] { link(); });
    }
  }
};

CaseResult run_chain(std::uint64_t seed) {
  constexpr std::uint64_t kLinks = 1'000'000;  // ends before 100 ms
  ChainCase c(seed, kLinks);
  for (int i = 0; i < 64; ++i) {
    c.eng.schedule_at(sim::SimTime::sec(1) + sim::SimTime::us(i),
                      [&c, i] { c.sink ^= static_cast<std::uint64_t>(i); });
  }
  c.eng.schedule_after(sim::SimTime::ns(1), [&c] { c.link(); });
  c.eng.run();
  return {c.eng.profile(), c.sink, 0.0};
}

// ---------------------------------------------------------- partchurn ----

/// One partition's event pump: a stream of local payload events plus a
/// cross-partition ping to the ring successor every fourth iteration. The
/// pump only ever touches its own engine and sink; the ping callback runs
/// later inside the SUCCESSOR's engine, so it may write that sink freely.
struct PartPump {
  sim::Engine* eng = nullptr;
  sim::ParallelEngine* fabric = nullptr;
  sim::PartitionId self = 0;
  sim::PartitionId next = 0;
  sim::Rng rng{0};
  std::uint64_t* sink = nullptr;       // this partition's sink
  std::uint64_t* next_sink = nullptr;  // successor's (written via send only)
  std::uint64_t remaining = 0;

  void pump() {
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t v = rng.next_u64();
      eng->schedule_after(sim::SimTime::ns(rng.uniform_int(100, 3000)),
                          [s = sink, v] { *s ^= v; });
    }
    if ((remaining & 3) == 0) {
      const std::uint64_t v = rng.next_u64();
      fabric->send(self, next, sim::SimTime::us(5), [s = next_sink, v] {
        *s ^= v * std::uint64_t{0x9E3779B97F4A7C15u};
      });
    }
    if (--remaining > 0) {
      eng->schedule_after(sim::SimTime::ns(200), [this] { pump(); });
    }
  }
};

CaseResult run_partchurn(std::uint64_t seed) {
  constexpr sim::PartitionId kParts = 4;
  sim::Engine engines[kParts];
  std::uint64_t sinks[kParts] = {};
  sim::ParallelEngine fabric(sim::SimTime::us(5));
  for (auto& eng : engines) fabric.add_partition(eng);
  PartPump pumps[kParts];
  for (sim::PartitionId p = 0; p < kParts; ++p) {
    PartPump& pp = pumps[p];
    pp.eng = &engines[p];
    pp.fabric = &fabric;
    pp.self = p;
    pp.next = (p + 1) % kParts;
    pp.rng = sim::Rng(seed ^ (std::uint64_t{0xBF58476D1CE4E5B9u} * (p + 1)));
    pp.sink = &sinks[p];
    pp.next_sink = &sinks[pp.next];
    pp.remaining = 60'000;
    engines[p].schedule_after(sim::SimTime::ns(1), [&pp] { pp.pump(); });
  }
  fabric.run();
  // Merged engine counters, round counters and a checksum folding the
  // fabric digest into the partitions' sinks.
  const sim::ParallelProfile pp = fabric.profile();
  sim::EngineProfile prof = pp.merged;
  prof.wall_ns = pp.wall_ns;
  std::uint64_t sink = fabric.state_digest() ^ pp.cross_messages;
  for (const std::uint64_t s : sinks) sink ^= s;
  CaseResult out{prof, sink, 0.0};
  out.windows = pp.quanta;
  out.windows_skipped = pp.windows_skipped;
  return out;
}

// ------------------------------------------------------------- driver ----

struct Case {
  const char* name;
  CaseResult (*run)(std::uint64_t seed);
};

constexpr Case kCases[] = {
    {"churn", run_churn},
    {"reprogram", run_reprogram},
    {"chain", run_chain},
    {"partchurn", run_partchurn},
};

struct CaseStats {
  const char* name = nullptr;
  int replicas = 0;
  sim::Accumulator events, events_per_sec, scheduled, cancelled;
  sim::Accumulator cb_spills, cb_spill_bytes, slot_high_water, compactions;
  sim::Accumulator windows, windows_skipped;
  std::uint64_t sink = 0;  // replica 0's checksum
};

std::string metric_json(const char* name, const sim::Accumulator& a) {
  return metrics::format("\"%s\": {\"mean\": %.4f, \"stddev\": %.4f}", name,
                         a.mean(), a.stddev());
}

/// SweepResult::to_json()-shaped snapshot so bench_diff / parse_snapshot
/// read it without a special case.
std::string to_snapshot_json(const std::vector<CaseStats>& cases) {
  std::string out = "{\"cells\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseStats& c = cases[i];
    out += metrics::format(
        "{\"variant\": \"%s\", \"mode\": \"microbench\", \"tick_freq_hz\": 0, "
        "\"vcpus\": 1, \"overcommit\": 1, \"replicas\": %d, ",
        c.name, c.replicas);
    out += metric_json("events", c.events) + ", ";
    out += metric_json("events_per_sec", c.events_per_sec) + ", ";
    out += metric_json("scheduled", c.scheduled) + ", ";
    out += metric_json("cancelled", c.cancelled) + ", ";
    out += metric_json("cb_spills", c.cb_spills) + ", ";
    out += metric_json("cb_spill_bytes", c.cb_spill_bytes) + ", ";
    out += metric_json("slot_high_water", c.slot_high_water) + ", ";
    out += metric_json("compactions", c.compactions) + ", ";
    // Parallel round counters, deterministic and gated at zero tolerance
    // like the counters above (all-zero for the single-engine cases).
    out += metric_json("windows", c.windows) + ", ";
    out += metric_json("windows_skipped", c.windows_skipped);
    out += metrics::format("}%s\n", i + 1 < cases.size() ? "," : "");
  }
  out += "]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int repeat = 3;
  std::uint64_t root_seed = 0x9a7a71cUL;  // "paratick"-ish; stable default
  std::string json_path;
  bool profile = false;
  bool quiet = false;

  core::parse_cli(
      argc, argv,
      {core::uint_flag("--repeat", "N", "replicas per case (default 3)", repeat,
                       1),
       core::uint_flag("--seed", "S", "root seed (decimal or 0x hex)", root_seed,
                       0, ~0ull, 0),
       core::text_flag("--json", "FILE", "write the snapshot JSON to FILE", json_path),
       core::switch_flag("--profile", "print per-case engine counters", profile),
       core::switch_flag("--quiet", "suppress per-replica progress lines", quiet)});

  std::vector<CaseStats> stats;
  for (const Case& cs : kCases) {
    CaseStats s;
    s.name = cs.name;
    s.replicas = repeat;
    for (int r = 0; r < repeat; ++r) {
      // Warm-up replica: first run per case pays the page-fault and cache
      // cold cost; it is measured like the rest, the replica spread shows it.
      const std::uint64_t seed =
          root_seed ^ (std::uint64_t{0x517cc1b727220a95u} *
                       static_cast<std::uint64_t>(r + 1));
      const auto t0 = std::chrono::steady_clock::now();
      const CaseResult res = cs.run(seed);
      const double host =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (r == 0) s.sink = res.sink;
      s.events.add(static_cast<double>(res.prof.events_executed));
      s.events_per_sec.add(res.prof.events_per_sec());
      s.scheduled.add(static_cast<double>(res.prof.events_scheduled));
      s.cancelled.add(static_cast<double>(res.prof.events_cancelled));
      s.cb_spills.add(static_cast<double>(res.prof.callback_spills));
      s.cb_spill_bytes.add(static_cast<double>(res.prof.callback_spill_bytes));
      s.slot_high_water.add(static_cast<double>(res.prof.slot_high_water));
      s.compactions.add(static_cast<double>(res.prof.compactions));
      s.windows.add(static_cast<double>(res.windows));
      s.windows_skipped.add(static_cast<double>(res.windows_skipped));
      if (!quiet) {
        std::fprintf(stderr, "[microbench] %-12s r%d  %.0f events  %.2fMev/s  %.2fs\n",
                     cs.name, r, static_cast<double>(res.prof.events_executed),
                     res.prof.events_per_sec() / 1e6, host);
      }
    }
    stats.push_back(std::move(s));
  }

  std::printf("case          replicas  events/replica  Mev/s (mean±sd)  spills  highwater  compactions  sink\n");
  for (const CaseStats& s : stats) {
    std::printf("%-12s  %8d  %14.0f  %6.2f ± %5.2f  %6.0f  %9.0f  %11.0f  %016llx\n",
                s.name, s.replicas, s.events.mean(),
                s.events_per_sec.mean() / 1e6, s.events_per_sec.stddev() / 1e6,
                s.cb_spills.mean(), s.slot_high_water.mean(),
                s.compactions.mean(),
                static_cast<unsigned long long>(s.sink));
  }
  if (profile) {
    std::printf("engine profile (aggregated over %d replicas per case)\n", repeat);
    for (const CaseStats& s : stats) {
      std::printf(
          "  %-12s scheduled %.0f cancelled %.0f spills %.0f spill-bytes %.0f "
          "high-water %.0f compactions %.0f\n",
          s.name, s.scheduled.mean(), s.cancelled.mean(), s.cb_spills.mean(),
          s.cb_spill_bytes.mean(), s.slot_high_water.mean(),
          s.compactions.mean());
      if (s.windows.max() > 0.0) {
        std::printf(
            "  %-12s windows %.0f, skipped %.0f\n",
            s.name, s.windows.mean(), s.windows_skipped.mean());
      }
    }
  }

  if (!json_path.empty()) core::write_file_atomic(json_path, to_snapshot_json(stats));
  return 0;
}

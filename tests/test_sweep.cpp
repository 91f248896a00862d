#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/record_replay/record_replay.hpp"
#include "core/sweep.hpp"
#include "core/sweep_plan.hpp"
#include "core/thread_pool.hpp"
#include "expect_error.hpp"
#include "workload/micro.hpp"

namespace paratick::core {
namespace {

SweepConfig tiny_sweep(unsigned threads, int repeat = 2) {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(2);
  cfg.base.vcpus = 2;
  cfg.base.max_duration = sim::SimTime::ms(50);
  cfg.base.stop_when_done = false;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.repeat = repeat;
  cfg.root_seed = 77;
  cfg.threads = threads;
  for (const char* name : {"idle", "storm"}) {
    const bool storm = std::string(name) == "storm";
    cfg.variants.push_back({name, [storm](ExperimentSpec& exp) {
      if (!storm) return;
      exp.setup = [](guest::GuestKernel& k) {
        workload::SyncStormSpec spec;
        spec.threads = 2;
        spec.sync_rate_hz = 400.0;
        spec.duration = sim::SimTime::ms(50);
        spec.load = 0.3;
        workload::install_sync_storm(k, spec);
      };
    }});
  }
  return cfg;
}

TEST(DeriveSeed, PureAndWellSpread) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t root : {1ull, 2ull, 999ull}) {
    for (std::uint64_t i = 0; i < 100; ++i) seen.insert(derive_seed(root, i));
  }
  EXPECT_EQ(seen.size(), 300u);  // no collisions across roots or indices
}

TEST(SweepRunner, GridExpansion) {
  SweepConfig cfg = tiny_sweep(1, 3);
  cfg.tick_freqs_hz = {100.0, 250.0};
  const SweepPlan plan = SweepPlan::make(cfg);
  // 2 variants x 2 modes x 2 freqs
  EXPECT_EQ(plan.cell_count(), 8u);
  EXPECT_EQ(plan.total_runs(), 24u);
}

TEST(SweepRunner, ParallelMatchesSerialBitExactly) {
  // The determinism contract: per-run seeds depend only on (root_seed, run
  // index) and aggregation happens in run-index order, so any -j value
  // produces bit-identical metrics.
  const SweepResult serial = SweepRunner(tiny_sweep(1)).run();
  const SweepResult parallel = SweepRunner(tiny_sweep(4)).run();

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());

  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_EQ(serial.runs[i].seed, parallel.runs[i].seed);
    EXPECT_EQ(serial.runs[i].cell, parallel.runs[i].cell);
    EXPECT_EQ(serial.runs[i].result.exits_total, parallel.runs[i].result.exits_total);
    EXPECT_EQ(serial.runs[i].result.exits_timer_related,
              parallel.runs[i].result.exits_timer_related);
    EXPECT_EQ(serial.runs[i].result.events_executed,
              parallel.runs[i].result.events_executed);
    EXPECT_EQ(serial.runs[i].result.busy_cycles().count(),
              parallel.runs[i].result.busy_cycles().count());
  }
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const auto& a = serial.cells[c];
    const auto& b = parallel.cells[c];
    EXPECT_EQ(a.key.label(), b.key.label());
    EXPECT_EQ(a.exits_total.count(), b.exits_total.count());
    // Bit-identical, not just close: EXPECT_EQ on doubles is deliberate.
    EXPECT_EQ(a.exits_total.mean(), b.exits_total.mean());
    EXPECT_EQ(a.exits_timer.mean(), b.exits_timer.mean());
    EXPECT_EQ(a.busy_cycles.mean(), b.busy_cycles.mean());
    EXPECT_EQ(a.busy_cycles.stddev(), b.busy_cycles.stddev());
    EXPECT_EQ(a.wakeup_latency_us.count(), b.wakeup_latency_us.count());
    EXPECT_EQ(a.wakeup_latency_us.mean(), b.wakeup_latency_us.mean());
  }
  // And the exported artifacts match byte for byte.
  EXPECT_EQ(serial.to_csv(), parallel.to_csv());
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(SweepRunner, DrillDownAccumulatorsFoldEveryRun) {
  const SweepResult res = SweepRunner(tiny_sweep(2)).run();
  for (std::size_t c = 0; c < res.cells.size(); ++c) {
    const SweepCellSummary& cell = res.cells[c];
    double user_cycles = 0.0, host_ticks = 0.0, ticks = 0.0, wakes = 0.0;
    std::uint64_t intervals = 0;
    for (const SweepRun& r : res.runs) {
      if (r.cell != c) continue;
      user_cycles += static_cast<double>(
          r.result.cycles.total(hw::CycleCategory::kGuestUser).count());
      host_ticks += static_cast<double>(r.result.exits_by_cause[static_cast<
          std::size_t>(hw::ExitCause::kHostTick)]);
      for (const metrics::VmResult& vm : r.result.vms) {
        ticks += static_cast<double>(vm.policy.ticks_handled);
        wakes += static_cast<double>(vm.wakeup_latency_us.count());
        intervals += vm.tick_intervals_us.count();
      }
    }
    const auto& user =
        cell.cycles[static_cast<std::size_t>(hw::CycleCategory::kGuestUser)];
    EXPECT_EQ(user.count(), 2u);  // one sample per replica
    EXPECT_EQ(user.sum(), user_cycles);
    EXPECT_EQ(cell.exits_by_cause[static_cast<std::size_t>(hw::ExitCause::kHostTick)]
                  .sum(),
              host_ticks);
    EXPECT_EQ(cell.ticks.sum(), ticks);
    EXPECT_EQ(cell.wakes.sum(), wakes);
    EXPECT_EQ(cell.tick_intervals_us.count(), intervals);
  }
}

// SweepConfig::observer watches one engine: the thread pool would hand
// it to concurrent runs, and record_trace would silently replace it.
// Both are refused instead of racing or being dropped.
TEST(SweepRunner, ObserverIsForOneRunAndExcludesRecordTrace) {
  record_replay::TraceRecorder recorder;
  SweepConfig cfg = tiny_sweep(2, 1);
  cfg.observer = &recorder;
  EXPECT_SIM_ERROR((void)SweepRunner(cfg).run(), "execute_run");
  EXPECT_TRUE(SweepRunner(cfg).execute_run(0).ok);  // the single-run use
  EXPECT_GT(recorder.trace().count(), 0u);

  cfg.record_trace = true;
  EXPECT_SIM_ERROR((void)SweepRunner(cfg).execute_run(0), "record_trace");
}

TEST(SweepRunner, ReplicasUseDistinctSeeds) {
  const SweepResult res = SweepRunner(tiny_sweep(2, 3)).run();
  std::set<std::uint64_t> seeds;
  for (const auto& run : res.runs) seeds.insert(run.seed);
  EXPECT_EQ(seeds.size(), res.runs.size());
  for (const auto& cell : res.cells) {
    EXPECT_EQ(cell.exits_total.count(), 3u);
  }
}

TEST(SweepRunner, OvercommitAxisResizesMachine) {
  SweepConfig cfg = tiny_sweep(2, 1);
  cfg.base.vcpus = 4;
  cfg.modes = {guest::TickMode::kParatick};
  cfg.variants.clear();
  cfg.overcommit = {1.0, 2.0};
  const SweepResult res = SweepRunner(cfg).run();
  ASSERT_EQ(res.cells.size(), 2u);
  EXPECT_DOUBLE_EQ(res.cells[0].key.overcommit, 1.0);  // 4 vCPUs on 4 pCPUs
  EXPECT_DOUBLE_EQ(res.cells[1].key.overcommit, 2.0);  // 4 vCPUs on 2 pCPUs
  // More overcommit cannot reduce total exits for the same guest load.
  EXPECT_GT(res.cells[1].first.wall.nanoseconds(), 0);
}

TEST(SweepRunner, CompareFindsCells) {
  const SweepResult res = SweepRunner(tiny_sweep(2, 1)).run();
  ASSERT_NE(res.find("storm", guest::TickMode::kParatick), nullptr);
  EXPECT_EQ(res.find("nope", guest::TickMode::kParatick), nullptr);
  const metrics::Comparison c = res.compare("storm", guest::TickMode::kDynticksIdle,
                                            guest::TickMode::kParatick);
  // Paratick never induces more timer exits than dynticks (§4.2).
  EXPECT_LE(c.timer_exit_delta_pct, 0.0);
}

TEST(SweepRunner, CsvAndJsonCoverEveryCell) {
  const SweepResult res = SweepRunner(tiny_sweep(2, 1)).run();
  const std::string csv = res.to_csv();
  const std::string json = res.to_json();
  for (const auto& cell : res.cells) {
    EXPECT_NE(csv.find(cell.key.variant), std::string::npos);
    EXPECT_NE(json.find(cell.key.variant), std::string::npos);
  }
  // Header + one line per cell.
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            res.cells.size() + 1);
}

// Minimal RFC 4180 reader used to round-trip to_csv(): splits one record,
// honoring quoted fields with doubled quotes.
std::vector<std::string> parse_csv_record(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

TEST(SweepResult, CsvEscapingRoundTripsHostileVariantNames) {
  // Variant names come from user code: device model strings, benchmark
  // labels, anything. Commas, quotes and newlines must survive to_csv().
  const std::vector<std::string> names = {
      "plain", "with,comma", "with \"quotes\"", "comma, \"and\" quotes",
      "trailing space ", "with\nnewline"};
  SweepResult res;
  for (const auto& name : names) {
    SweepCellSummary cell;
    cell.key.variant = name;
    cell.key.mode = guest::TickMode::kParatick;
    cell.key.tick_freq_hz = 250.0;
    cell.key.vcpus = 1;
    cell.exits_total.add(10.0);
    res.cells.push_back(std::move(cell));
  }

  const std::string csv = res.to_csv();
  // Split into physical records: a '\n' inside quotes is data, not a
  // record separator.
  std::vector<std::string> records;
  std::string cur;
  bool quoted = false;
  for (const char c : csv) {
    if (c == '"') quoted = !quoted;
    if (c == '\n' && !quoted) {
      records.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  EXPECT_TRUE(cur.empty());  // file ends in a newline outside quotes
  ASSERT_EQ(records.size(), names.size() + 1);  // header + one per cell

  const std::size_t columns = parse_csv_record(records[0]).size();
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::vector<std::string> fields = parse_csv_record(records[i + 1]);
    ASSERT_EQ(fields.size(), columns) << records[i + 1];
    EXPECT_EQ(fields[0], names[i]);  // exact round-trip, escapes undone
    EXPECT_EQ(fields[1], "paratick");
  }
}

TEST(SweepCli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"bench", "-j4",     "--repeat", "3",  "--seed",
                        "99",    "--quiet", "--csv",    "small"};
  const SweepCli cli =
      SweepCli::parse(static_cast<int>(std::size(argv)), const_cast<char**>(argv),
                      {}, {{"size", {"small", "large"}}});
  EXPECT_EQ(cli.threads, 4u);
  EXPECT_EQ(cli.repeat, 3);
  ASSERT_TRUE(cli.root_seed.has_value());
  EXPECT_EQ(*cli.root_seed, 99u);
  EXPECT_FALSE(cli.progress);
  EXPECT_TRUE(cli.csv);
  ASSERT_EQ(cli.positional.size(), 1u);
  EXPECT_EQ(cli.positional[0], "small");

  SweepConfig cfg;
  cli.apply(cfg);
  EXPECT_EQ(cfg.threads, 4u);
  EXPECT_EQ(cfg.repeat, 3);
  EXPECT_EQ(cfg.root_seed, 99u);
}

TEST(ParallelForIndex, SweepSizedRangeCoversEveryIndexOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for_index(hits.size(), 4,
                     [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForIndex, PropagatesBodyExceptions) {
  EXPECT_THROW(parallel_for_index(2, 2,
                                  [](std::size_t i) {
                                    if (i == 1) throw std::runtime_error("boom");
                                  }),
               std::runtime_error);
}

}  // namespace
}  // namespace paratick::core

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "core/history.hpp"
#include "core/safe_io.hpp"
#include "core/sweep.hpp"
#include "expect_error.hpp"
#include "sim/error.hpp"

namespace paratick::core {
namespace {

// A two-cell SweepResult with replica spread, built by hand so the tests
// control every number exactly.
SweepResult sample_result() {
  SweepResult res;
  res.wall_seconds = 1.25;
  res.threads_used = 2;
  for (const char* variant : {"idle", "storm, \"hostile\""}) {
    SweepCellSummary cell;
    cell.key.variant = variant;
    cell.key.mode = guest::TickMode::kParatick;
    cell.key.tick_freq_hz = 250.0;
    cell.key.vcpus = 2;
    cell.key.overcommit = 1.0;
    for (double x : {100.0, 104.0, 96.0}) cell.exits_total.add(x);
    for (double x : {40.0, 41.0, 42.0}) cell.exits_timer.add(x);
    for (double x : {5e6, 5.1e6, 4.9e6}) cell.busy_cycles.add(x);
    for (double x : {12.5, 12.75, 12.25}) cell.exec_time_ms.add(x);
    for (double x : {3.0, 4.0, 5.0}) {
      cell.wakeup_latency_us.add(x);
      cell.wake_hist_us.add(x);
    }
    res.cells.push_back(std::move(cell));
  }
  return res;
}

TEST(History, JsonRoundTripsThroughParser) {
  const SweepResult res = sample_result();
  const Snapshot snap = parse_snapshot(res.to_json());

  // Host artifacts (wall time, thread count) are deliberately absent from
  // the export — the JSON must be a pure function of the cells so that
  // sweeps at any -j stay byte-identical.
  ASSERT_EQ(snap.cells.size(), 2u);

  const SnapshotCell& cell = snap.cells[0];
  EXPECT_EQ(cell.variant, "idle");
  EXPECT_EQ(snap.cells[1].variant, "storm, \"hostile\"");  // JSON-escape round-trip
  EXPECT_EQ(cell.mode, "paratick");
  EXPECT_DOUBLE_EQ(cell.tick_freq_hz, 250.0);
  EXPECT_EQ(cell.vcpus, 2);
  EXPECT_DOUBLE_EQ(cell.overcommit, 1.0);
  EXPECT_EQ(cell.replicas, 3u);

  const SnapshotMetric* exits = cell.metric("exits");
  ASSERT_NE(exits, nullptr);
  EXPECT_NEAR(exits->mean, 100.0, 0.05);  // %.1f in to_json
  EXPECT_NEAR(exits->stddev, 4.0, 0.05);
  EXPECT_EQ(exits->n, 3u);  // inherited from replicas

  const SnapshotMetric* wake = cell.metric("wake_us");
  ASSERT_NE(wake, nullptr);
  EXPECT_NEAR(wake->mean, 4.0, 1e-3);
  EXPECT_EQ(wake->n, 3u);  // explicit n in the wake_us object
  EXPECT_EQ(cell.metric("no_such_metric"), nullptr);

  // The histogram is carried as bucket counts, not mistaken for a
  // mean/stddev metric object.
  EXPECT_EQ(cell.metric("wake_us_hist"), nullptr);
  EXPECT_EQ(cell.wake_hist, sample_result().cells[0].wake_hist_us.buckets());
  std::uint64_t total = 0;
  for (const std::uint64_t b : cell.wake_hist) total += b;
  EXPECT_EQ(total, 3u);
}

TEST(History, MissingSnapshotGivesActionableError) {
  EXPECT_SIM_ERROR((void)load_snapshot("/no/such/dir/baseline.json"),
                   "/no/such/dir/baseline.json");
  EXPECT_SIM_ERROR((void)load_snapshot("/no/such/dir/baseline.json"),
                   "cannot open");
}

TEST(History, CorruptSnapshotGivesActionableError) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "paratick_corrupt_snapshot.json";
  {
    std::ofstream out(path);
    out << "{\"cells\": [truncated";
  }
  EXPECT_SIM_ERROR((void)load_snapshot(path.string()), path.string());
  std::filesystem::remove(path);
}

TEST(History, TruncatedSnapshotNamesThePath) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "paratick_truncated_snapshot.json";
  std::ofstream(path) << "{\"bench\": \"bench_tab";
  EXPECT_SIM_ERROR((void)load_snapshot(path.string()), path.string());
  EXPECT_SIM_ERROR((void)load_snapshot(path.string()), "byte offset");
  std::filesystem::remove(path);
}

TEST(History, KsDistanceFlagsTailShift) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  ASSERT_FALSE(base.cells[0].wake_hist.empty());
  Snapshot cur = base;
  // Push every sample of cell 0 into a much higher bucket: the mean-based
  // metrics in this synthetic edit stay put, but the distribution moved
  // wholesale -> KS distance 1.0.
  auto& hist = cur.cells[0].wake_hist;
  hist.assign(hist.size() + 8, 0);
  hist.back() = 3;
  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].kind, DiffFinding::Kind::kDistribution);
  EXPECT_EQ(diff.findings[0].metric, "wake_us_hist");
  EXPECT_DOUBLE_EQ(diff.findings[0].z, 1.0);

  const DiffConfig cfg;
  const std::string text = describe(diff, cfg);
  EXPECT_NE(text.find("DIST"), std::string::npos);
  EXPECT_NE(text.find("KS"), std::string::npos);

  // A metric filter without wake_us_hist leaves the KS gate out.
  DiffConfig exits_only;
  exits_only.metrics = {"exits"};
  EXPECT_TRUE(diff_snapshots(base, cur, exits_only).clean());

  // Snapshots without histograms (pre-histogram baselines) are skipped.
  Snapshot old = base;
  for (auto& c : old.cells) c.wake_hist.clear();
  EXPECT_TRUE(diff_snapshots(old, cur).clean());
}

TEST(History, IdenticalSnapshotsDiffClean) {
  const std::string json = sample_result().to_json();
  const DiffResult diff = diff_snapshots(parse_snapshot(json), parse_snapshot(json));
  EXPECT_TRUE(diff.clean());
  EXPECT_EQ(diff.cells_compared, 2u);
  EXPECT_GT(diff.metrics_compared, 0u);
}

TEST(History, FlagsInjectedMeanShift) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  // +25% on exits: far outside the ~4% replica stddev at z=4.
  for (auto& m : cur.cells[0].metrics) {
    if (m.name == "exits") m.mean *= 1.25;
  }
  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].kind, DiffFinding::Kind::kShift);
  EXPECT_EQ(diff.findings[0].metric, "exits");
  EXPECT_EQ(diff.findings[0].cell, base.cells[0].key());
  EXPECT_NEAR(diff.findings[0].rel_delta, 0.25, 1e-6);
  EXPECT_GT(diff.findings[0].z, 4.0);
}

TEST(History, NoisyShiftWithinStddevPasses) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  // Nudge by a fraction of one standard error: above rel_min, below z.
  for (auto& m : cur.cells[0].metrics) {
    if (m.name == "exits") m.mean += 1.0;  // stddev 4, n 3 -> se ~3.3
  }
  EXPECT_TRUE(diff_snapshots(base, cur).clean());
}

TEST(History, ZeroStddevCellFlagsAnyShiftAboveFloor) {
  // --repeat 1 snapshots have stddev 0; the z-score degenerates and the
  // rel_min floor is the only guard. A real shift must still flag.
  Snapshot base = parse_snapshot(sample_result().to_json());
  for (auto& c : base.cells) {
    for (auto& m : c.metrics) m.stddev = 0.0;
  }
  Snapshot cur = base;
  for (auto& m : cur.cells[1].metrics) {
    if (m.name == "busy_cycles") m.mean *= 1.01;  // +1%
  }
  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].metric, "busy_cycles");

  // ...but sub-floor jitter (e.g. last-digit formatting) stays clean.
  Snapshot tiny = base;
  for (auto& m : tiny.cells[1].metrics) {
    if (m.name == "busy_cycles") m.mean *= 1.0 + 1e-5;
  }
  EXPECT_TRUE(diff_snapshots(base, tiny).clean());
}

TEST(History, GridDriftIsAFinding) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  cur.cells.pop_back();
  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].kind, DiffFinding::Kind::kCellRemoved);

  // A cell only in `current` is the mirror-image finding.
  Snapshot grown = base;
  grown.cells.push_back(base.cells[0]);
  grown.cells.back().variant = "brand-new";
  const DiffResult diff2 = diff_snapshots(base, grown);
  ASSERT_EQ(diff2.findings.size(), 1u);
  EXPECT_EQ(diff2.findings[0].kind, DiffFinding::Kind::kCellAdded);
}

// A current cell that lost a metric its baseline cell gates is a finding,
// not a smaller comparison that passes.
TEST(History, MissingMetricIsAFinding) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  auto& metrics = cur.cells[0].metrics;
  metrics.erase(std::find_if(metrics.begin(), metrics.end(),
                             [](const SnapshotMetric& m) { return m.name == "exits"; }));
  cur.cells[1].wake_hist.clear();

  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 2u);
  EXPECT_EQ(diff.findings[0].kind, DiffFinding::Kind::kMetricRemoved);
  EXPECT_EQ(diff.findings[0].cell, base.cells[0].key());
  EXPECT_EQ(diff.findings[0].metric, "exits");
  EXPECT_EQ(diff.findings[1].kind, DiffFinding::Kind::kMetricRemoved);
  EXPECT_EQ(diff.findings[1].cell, base.cells[1].key());
  EXPECT_EQ(diff.findings[1].metric, "wake_us_hist");
  const DiffConfig cfg;
  EXPECT_NE(describe(diff, cfg).find("GRID  - idle|paratick|f=250|v=2|oc=1 :: "
                                     "exits (metric only in baseline)"),
            std::string::npos)
      << describe(diff, cfg);

  // A metric the filter leaves out is not checked, present or not.
  DiffConfig timer_only;
  timer_only.metrics = {"timer_exits"};
  EXPECT_TRUE(diff_snapshots(base, cur, timer_only).clean());
  // A metric only in current is not one the baseline gates.
  EXPECT_TRUE(diff_snapshots(cur, base).clean());
}

// A filter naming nothing the baseline has would compare nothing and pass.
TEST(History, MetricFilterNamingNoBaselineMetricThrows) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  DiffConfig typo;
  typo.metrics = {"exits", "windows_skiped"};
  EXPECT_SIM_ERROR((void)diff_snapshots(base, base, typo), "\"windows_skiped\"");

  // wake_us_hist names the histograms, so a baseline without any lacks it.
  Snapshot no_hist = base;
  for (auto& c : no_hist.cells) c.wake_hist.clear();
  DiffConfig ks_only;
  ks_only.metrics = {"wake_us_hist"};
  EXPECT_TRUE(diff_snapshots(base, base, ks_only).clean());
  EXPECT_SIM_ERROR((void)diff_snapshots(no_hist, base, ks_only), "\"wake_us_hist\"");
}

TEST(History, DegradedCurrentCellIsAFinding) {
  // Same numbers, but one current cell lost a replica: its means cover
  // fewer runs than asked for, so the gate must not pass it.
  SweepResult degraded = sample_result();
  degraded.cells[1].replicas_failed = 1;
  const Snapshot base = parse_snapshot(sample_result().to_json());
  const Snapshot cur = parse_snapshot(degraded.to_json());

  const DiffResult diff = diff_snapshots(base, cur);
  ASSERT_EQ(diff.findings.size(), 1u);
  EXPECT_EQ(diff.findings[0].cell, cur.cells[1].key());
  const DiffConfig cfg;
  EXPECT_NE(describe(diff, cfg).find("DEGRADED storm, \"hostile\"|paratick"
                                     "|f=250|v=2|oc=1: 1 of 4 replicas failed"),
            std::string::npos)
      << describe(diff, cfg);

  // A degraded baseline is history, not a regression of this change.
  EXPECT_TRUE(diff_snapshots(cur, base).clean());
}

TEST(History, DescribeNamesEveryFinding) {
  const Snapshot base = parse_snapshot(sample_result().to_json());
  Snapshot cur = base;
  for (auto& m : cur.cells[0].metrics) {
    if (m.name == "timer_exits") m.mean *= 2.0;
  }
  const DiffConfig cfg;
  const std::string text = describe(diff_snapshots(base, cur), cfg);
  EXPECT_NE(text.find("timer_exits"), std::string::npos);
  EXPECT_NE(text.find("SHIFT"), std::string::npos);
}

TEST(History, ParserHandlesEscapesAndNumbers) {
  const std::string json =
      "{\n  \"wall_seconds\": 0.5,\n  \"threads\": 1,\n  \"cells\": [\n"
      "    {\"variant\": \"a\\\\b\\\"c\\u0041\", \"mode\": \"paratick\", "
      "\"tick_freq_hz\": 2.5e2, \"vcpus\": 4, \"overcommit\": 0, "
      "\"replicas\": 1, \"exits\": {\"mean\": -1.5e-3, \"stddev\": 0}}\n"
      "  ]\n}\n";
  const Snapshot snap = parse_snapshot(json);
  ASSERT_EQ(snap.cells.size(), 1u);
  EXPECT_EQ(snap.cells[0].variant, "a\\b\"cA");
  EXPECT_DOUBLE_EQ(snap.cells[0].tick_freq_hz, 250.0);
  const SnapshotMetric* exits = snap.cells[0].metric("exits");
  ASSERT_NE(exits, nullptr);
  EXPECT_DOUBLE_EQ(exits->mean, -1.5e-3);
  EXPECT_EQ(exits->n, 1u);
}

// Integer fields must be integers that fit: 1e300 vCPUs is not a cast
// away from a plausible count, it is a corrupt snapshot.
TEST(History, OutOfRangeIntegerNamesTheField) {
  const std::string json =
      "{\"threads\": 1, \"cells\": [{\"variant\": \"a\", \"mode\": \"paratick\", "
      "\"tick_freq_hz\": 250, \"vcpus\": 1e300, \"overcommit\": 0, "
      "\"replicas\": 1}]}";
  EXPECT_SIM_ERROR((void)parse_snapshot(json), "field \"vcpus\"");
}

// A snapshot written to a special file (a pipe, a device) is written in
// place; a failed write there must fail the export, not pass silently.
TEST(SafeIo, WriteToFullDeviceNamesThePath) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // Larger than a stdio buffer, so fwrite itself fails as well as fclose.
  EXPECT_SIM_ERROR(write_file_atomic("/dev/full", std::string(1 << 17, 'x')),
                   "/dev/full");
  EXPECT_SIM_ERROR(write_file_atomic("/dev/full", sample_result().to_json()),
                   "/dev/full");
}

// Hostile snapshot documents (a truncated upload, a corrupted baseline)
// must fail the gate with a SimError, never crash or throw anything else.
TEST(HistoryFuzz, SnapshotParseOrThrowSimError) {
  const std::string seed = sample_result().to_json();
  // The seed itself must parse: a fuzz over inputs that all fail to
  // parse checks nothing.
  ASSERT_NO_THROW((void)parse_snapshot(seed));

  std::mt19937_64 rng(0x5eed);  // fixed: the same inputs on every run
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  std::size_t parsed = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string in = seed;
    switch (i % 3) {
      case 0:  // flip one to four bytes
        for (std::size_t k = 1 + pick(4); k > 0; --k) {
          in[pick(in.size())] = static_cast<char>(rng());
        }
        break;
      case 1:  // truncate
        in.resize(pick(in.size()));
        break;
      default: {  // splice a chunk of the seed over any position
        const std::string chunk = seed.substr(pick(seed.size()), 1 + pick(64));
        in.replace(pick(in.size() + 1), pick(8), chunk);
        break;
      }
    }
    try {
      (void)parse_snapshot(in);
      ++parsed;
    } catch (const sim::SimError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input " << i << " threw " << e.what();
    } catch (...) {
      ADD_FAILURE() << "input " << i << " threw a non-exception";
    }
  }
  // Some mutations land in string contents or whitespace and still
  // parse; none at all would mean the seed is rejected outright.
  EXPECT_GT(parsed, 0u);
}

}  // namespace
}  // namespace paratick::core

// The benchmark's own tests: digests are pure in the seed, the timing and
// tracing hooks are observational, and every output check trips on a
// doctored result.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "alloc_counter.hpp"
#include "core/json.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using paratick::guest::TickMode;

core::SweepCellSummary cell(const std::string& variant, TickMode mode,
                            double timer_exits) {
  core::SweepCellSummary c;
  c.key.variant = variant;
  c.key.mode = mode;
  c.exits_timer.add(timer_exits);
  return c;
}

TEST(PerfbenchDigest, SameSeedSameDigestOtherSeedDiffers) {
  const PassResult a = run_pass(Workload::kClusterOc, 7, nullptr);
  const PassResult b = run_pass(Workload::kClusterOc, 7, nullptr);
  const PassResult c = run_pass(Workload::kClusterOc, 8, nullptr);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);

  const PassResult d = run_pass(Workload::kTimerIo, 7, nullptr);
  const PassResult e = run_pass(Workload::kTimerIo, 8, nullptr);
  EXPECT_NE(d.digest, e.digest);
}

TEST(PerfbenchDigest, ClusterDigestIdenticalAtOneAndTwoEngineThreads) {
  const PassResult one = run_pass(Workload::kClusterOc, 11, nullptr, 1);
  const PassResult two = run_pass(Workload::kClusterOc, 11, nullptr, 2);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.csv.at("cluster"), two.csv.at("cluster"));
  EXPECT_GT(two.layers.par_windows, 0u);
}

TEST(PerfbenchPass, RealPassesPassEveryCheck) {
  for (const Workload w : {Workload::kTimerIo, Workload::kClusterOc}) {
    const PassResult p = run_pass(w, 1234, nullptr);
    EXPECT_TRUE(p.check_failures.empty()) << name(w) << ": " << p.check_failures.front();
    EXPECT_EQ(p.runs_failed, 0u);
    EXPECT_GT(p.runs, 0u);
    EXPECT_GT(p.allocs, 0u);
    EXPECT_GT(p.layers.setup_s(), 0.0);
    EXPECT_GT(p.layers.run_s, 0.0);
    EXPECT_GT(p.layers.run_allocs, 0u);
    EXPECT_GT(p.layers.construct_allocs, 0u);
  }
}

TEST(PerfbenchTrace, TracedPassIsObservationalAndWritesTraceEvents) {
  for (const Workload w : {Workload::kTimerIo, Workload::kClusterOc}) {
    const PassResult plain = run_pass(w, 5, nullptr);
    TraceSink sink;
    const PassResult traced = run_pass(w, 5, &sink);
    EXPECT_EQ(plain.digest, traced.digest) << name(w);
    EXPECT_EQ(plain.csv, traced.csv) << name(w);

    std::uint64_t events = 0;
    for (const std::uint64_t n : traced.layers.events.events) events += n;
    std::uint64_t executed = 0;
    for (const auto& [sweep_name, res] : traced.sweeps) {
      for (const core::SweepRun& r : res.runs) executed += r.result.events_executed;
    }
    EXPECT_EQ(events, executed) << name(w) << ": the observer sees every event";

    const auto doc = paratick::core::json::parse(sink.to_json());
    const auto* list = doc.find("traceEvents");
    ASSERT_NE(list, nullptr);
    std::set<std::string> phases;
    for (const auto& ev : list->array) {
      const auto* cat = ev.find("cat");
      if (cat != nullptr && cat->str == "phase") phases.insert(ev.find("name")->str);
    }
    EXPECT_TRUE(phases.count("construct") && phases.count("install") && phases.count("run"))
        << name(w);
    if (w == Workload::kTimerIo) {
      EXPECT_TRUE(phases.count("power_on") && phases.count("collect"));
    }
  }
}

TEST(PerfbenchChecks, ParatickGuaranteeTripsOnDoctoredCell) {
  core::SweepResult res;
  res.cells.push_back(cell("v", TickMode::kDynticksIdle, 100));
  res.cells.push_back(cell("v", TickMode::kParatick, 60));
  res.cells.push_back(cell("w", TickMode::kDynticksIdle, 50));
  res.cells.push_back(cell("w", TickMode::kParatick, 50));
  EXPECT_TRUE(check_paratick_guarantee(res).empty());

  res.cells[3].exits_timer.add(60);  // mean 55 > 50
  const auto failures = check_paratick_guarantee(res);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("w"), std::string::npos);
}

core::SweepCellSummary periodic_cell(const std::string& variant,
                                     std::uint64_t guest_timer, std::uint64_t host_ticks) {
  core::SweepCellSummary c =
      cell(variant, TickMode::kPeriodic, static_cast<double>(guest_timer + host_ticks));
  c.first.exits_timer_related = guest_timer + host_ticks;
  c.first.exits_by_cause[static_cast<std::size_t>(paratick::hw::ExitCause::kHostTick)] =
      host_ticks;
  return c;
}

TEST(PerfbenchChecks, Table1PeriodicTripsOnDoctoredOrMissingCell) {
  core::SweepResult res;
  res.cells.push_back(periodic_cell("W1", 40000, 0));
  res.cells.push_back(periodic_cell("W2", 160000, 2499));  // host ticks excluded
  EXPECT_TRUE(check_table1_periodic(res).empty());

  res.cells[1] = periodic_cell("W2", 160001, 0);
  EXPECT_EQ(check_table1_periodic(res).size(), 1u);

  res.cells.erase(res.cells.begin());
  EXPECT_EQ(check_table1_periodic(res).size(), 2u);
}

TEST(PerfbenchChecks, FailedRunTripsRunCheck) {
  core::SweepResult res;
  res.runs.resize(2);
  for (core::SweepRun& r : res.runs) r.executed = r.ok = true;
  EXPECT_TRUE(check_runs_ok(res).empty());
  res.runs[1].ok = false;
  res.runs[1].failure = core::RunFailure{};
  res.runs[1].failure->message = "boom";
  const auto failures = check_runs_ok(res);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("boom"), std::string::npos);
}

TEST(PerfbenchChecks, DoctoredResultChangesDigest) {
  PassResult p = run_pass(Workload::kClusterOc, 3, nullptr);
  core::SweepResult& res = p.sweeps.front().second;
  const std::map<std::uint64_t, std::uint64_t> none;
  const std::uint64_t before = digest_runs(res, none, 0);
  res.runs.back().result.vms.front().policy.msr_writes += 1;
  EXPECT_NE(digest_runs(res, none, 0), before);
  // engine_wall_ns is host time: it must not enter the digest.
  res.runs.back().result.vms.front().policy.msr_writes -= 1;
  res.runs.back().result.engine_wall_ns += 12345;
  EXPECT_EQ(digest_runs(res, none, 0), before);
}

TEST(PerfbenchAlloc, CountsPerThreadPhase) {
  const alloc::Counts before = alloc::thread_counts();
  {
    alloc::PhaseScope scope(alloc::Phase::kRun);
    for (int i = 0; i < 10; ++i) {
      int* volatile p = new int(i);  // volatile: keep the pair from being elided
      delete p;
    }
  }
  const alloc::Counts after = alloc::thread_counts();
  EXPECT_EQ(after[static_cast<std::size_t>(alloc::Phase::kRun)] -
                before[static_cast<std::size_t>(alloc::Phase::kRun)],
            10u);
  EXPECT_GE(alloc::sum(alloc::total_counts()), alloc::sum(after));
}

}  // namespace
}  // namespace perfbench

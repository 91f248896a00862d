// Fault-tolerance tests for the distributed sweep dispatcher
// (core/dispatch): byte-identity of dispatched results against local
// execution, crash retry and work stealing after a SIGKILLed worker,
// duplicate-record handling on steal races, graceful degradation after
// --max-retries, lease expiry on wedged workers, checkpoint resume, run
// subsets, and crash isolation + crash replay of runs that abort().
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch/dispatch.hpp"
#include "core/dispatch/protocol.hpp"
#include "core/dispatch/transport.hpp"
#include "core/replay.hpp"
#include "core/safe_io.hpp"
#include "core/sweep.hpp"
#include "core/sweep_plan.hpp"
#include "core/sweep_shard.hpp"
#include "expect_error.hpp"
#include "sim/error.hpp"
#include "workload/micro.hpp"

namespace paratick::core {
namespace {

SweepConfig tiny_sweep(int repeat = 2) {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(2);
  cfg.base.vcpus = 2;
  cfg.base.max_duration = sim::SimTime::ms(50);
  cfg.base.stop_when_done = false;
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.repeat = repeat;
  cfg.root_seed = 77;
  cfg.threads = 1;
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

dispatch::DispatchOptions fast_opts(unsigned workers) {
  dispatch::DispatchOptions opts;
  opts.workers = workers;
  opts.retry_backoff_sec = 0.01;  // tests should not sit out real backoffs
  return opts;
}

// ---- protocol -------------------------------------------------------------

TEST(DispatchSlice, CodecRoundTripsAndRejectsGarbage) {
  const std::vector<std::size_t> indices = {0, 1, 2, 3, 7, 9, 10, 11, 20};
  EXPECT_EQ(dispatch::encode_slice(indices), "0-3,7,9-11,20");
  EXPECT_EQ(dispatch::decode_slice("0-3,7,9-11,20", 21), indices);
  EXPECT_EQ(dispatch::decode_slice("5", 6), (std::vector<std::size_t>{5}));
  EXPECT_EQ(dispatch::encode_slice({}), "");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("", 21), "slice spec");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("3-1", 21), "bad range");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("1,,2", 21), "slice spec");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("1,", 21), "trailing");
}

TEST(DispatchSlice, RejectsIndicesOutsideThePlanBeforeExpanding) {
  // A sign, whitespace or an index past the plan is rejected before any
  // range expands; an unbounded range would exhaust memory.
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("0--1", 24), "slice spec");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("0-99999999999", 24), "slice spec");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("0-99999999999999999999999", 24),
                   "slice spec");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice(" 3", 24), "slice spec");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("+3", 24), "slice spec");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("24", 24), "outside the plan");
  EXPECT_SIM_ERROR((void)dispatch::decode_slice("0", 0), "outside the plan");
  EXPECT_EQ(dispatch::decode_slice("20-23", 24),
            (std::vector<std::size_t>{20, 21, 22, 23}));
}

TEST(DispatchPlan, HeaderRoundTripsAndDetectsSkew) {
  SweepConfig cfg = tiny_sweep();
  cfg.bench_name = "test_bench";
  const dispatch::PlanInfo plan = dispatch::plan_info_for(cfg);
  EXPECT_EQ(plan.total_runs, 8u);
  EXPECT_EQ(plan.cells.size(), 4u);

  const dispatch::PlanInfo parsed =
      dispatch::parse_plan_info(dispatch::to_json(plan));
  std::string why;
  EXPECT_TRUE(dispatch::plans_match(plan, parsed, &why)) << why;
  EXPECT_EQ(parsed.bench, "test_bench");
  EXPECT_EQ(parsed.root_seed, 77u);

  // A fleet host running skewed flags must be detected field by field.
  dispatch::PlanInfo skewed = plan;
  skewed.root_seed = 78;
  EXPECT_FALSE(dispatch::plans_match(plan, skewed, &why));
  EXPECT_NE(why.find("root seed"), std::string::npos);
  skewed = plan;
  skewed.cells[1].vcpus = 99;
  EXPECT_FALSE(dispatch::plans_match(plan, skewed, &why));
  EXPECT_NE(why.find("cell 1"), std::string::npos);
}

// Numeric integer fields must be integral and in range: 2.5 replicas is a
// corrupt record, not replica 2.
TEST(DispatchProtocol, FractionalIntegerFieldNamesTheField) {
  SweepRun run;
  run.replica = 0;
  const std::string record = run_record_to_json(run);
  const std::string from = "\"replica\": 0";
  const std::size_t at = record.find(from);
  ASSERT_NE(at, std::string::npos);
  std::string bad = record;
  bad.replace(at, from.size(), "\"replica\": 2.5");
  EXPECT_SIM_ERROR((void)parse_run_record(bad), "field \"replica\"");
}

// u64 fields travel as decimal strings; trailing junk must fail naming the
// field instead of parsing the digits before it (or 0 for pure garbage).
TEST(DispatchProtocol, MalformedU64StringsNameTheField) {
  const auto garble = [](std::string text, const std::string& from,
                         const std::string& to) {
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };

  SweepRun run;
  run.run_index = 3;
  run.seed = 12345;
  run.executed = true;
  run.ok = true;
  const std::string record = run_record_to_json(run);
  EXPECT_EQ(parse_run_record(record).seed, 12345u);
  EXPECT_SIM_ERROR((void)parse_run_record(garble(record, "\"seed\": \"12345\"",
                                                 "\"seed\": \"12345x\"")),
                   "seed: not a valid integer");

  PartialSnapshot ckpt;
  ckpt.root_seed = 77;
  const std::string snapshot = to_json(ckpt);
  EXPECT_EQ(parse_partial_snapshot(snapshot).root_seed, 77u);
  EXPECT_SIM_ERROR(
      (void)parse_partial_snapshot(garble(snapshot, "\"root_seed\": \"77\"",
                                          "\"root_seed\": \"7x7\"")),
      "root_seed: not a valid integer");

  const std::string plan = dispatch::to_json(dispatch::plan_info_for(tiny_sweep()));
  EXPECT_SIM_ERROR(
      (void)dispatch::parse_plan_info(garble(plan, "\"root_seed\": \"77\"",
                                             "\"root_seed\": \"77x\"")),
      "plan header: root_seed");
}

// A worker announcing "#run 0x" used to be taken for run 0; the corrupt
// announcement must abort the dispatch, naming the line.
TEST(DispatchProtocol, MalformedRunLineNamesTheField) {
  class GarbledRunTransport final : public dispatch::WorkerTransport {
   public:
    explicit GarbledRunTransport(const SweepConfig& cfg)
        : plan_(dispatch::plan_info_for(cfg)) {}
    const char* name() const override { return "garbled"; }
    dispatch::PlanInfo plan() override { return plan_; }
    dispatch::WorkerProcess launch(const std::vector<std::size_t>&) override {
      int fds[2];
      if (::pipe(fds) != 0) std::abort();
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::close(fds[0]);
        const std::string text =
            "#plan " + dispatch::to_json(plan_) + "\n#run 0x\n";
        std::_Exit(write_all(fds[1], text.data(), text.size()) ? 0 : 1);
      }
      ::close(fds[1]);
      return {pid, fds[0], -1};
    }

   private:
    dispatch::PlanInfo plan_;
  };

  dispatch::SweepDispatcher d(
      std::make_unique<GarbledRunTransport>(tiny_sweep(1)), fast_opts(1));
  EXPECT_SIM_ERROR((void)d.run(), "#run: not a valid integer");
}

// A "#limit 1x" control line used to truncate the slice to one run; the
// worker must refuse it, naming the line, with its heartbeat thread joined.
TEST(DispatchProtocol, MalformedLimitLineNamesTheField) {
  int ctl[2];
  ASSERT_EQ(::pipe(ctl), 0);
  const std::string line = "#limit 1x\n";
  ASSERT_TRUE(write_all(ctl[1], line.data(), line.size()));
  const int out = ::open("/dev/null", O_WRONLY);
  ASSERT_GE(out, 0);
  EXPECT_SIM_ERROR(
      (void)dispatch::run_worker_slice(tiny_sweep(1), {0, 1}, out, ctl[0]),
      "#limit: not a valid integer");
  for (const int fd : {out, ctl[0], ctl[1]}) ::close(fd);
}

// ---- byte-identity --------------------------------------------------------

TEST(Dispatch, ForkWorkersMatchLocalRunByteForByte) {
  const SweepResult reference = SweepRunner(tiny_sweep()).run();

  auto transport =
      std::make_unique<dispatch::ForkWorkerTransport>(tiny_sweep());
  dispatch::SweepDispatcher d(std::move(transport), fast_opts(3));
  const SweepResult res = d.run();

  EXPECT_EQ(res.to_csv(), reference.to_csv());
  EXPECT_EQ(res.to_json(), reference.to_json());
  EXPECT_EQ(d.stats().records_received, reference.runs.size());
  EXPECT_EQ(d.stats().runs_degraded, 0u);
}

/// Fork workers that pause between records. tiny_sweep runs finish in
/// microseconds — an unpaced worker drains its whole slice into the pipe
/// buffer and exits before any mid-slice SIGKILL can land, so fault
/// injection needs workers that are still alive when the coordinator
/// reacts to their records.
class PacedTransport final : public dispatch::WorkerTransport {
 public:
  explicit PacedTransport(SweepConfig cfg) : cfg_(std::move(cfg)) {
    cfg_.progress = false;
  }
  const char* name() const override { return "paced"; }
  dispatch::PlanInfo plan() override { return dispatch::plan_info_for(cfg_); }
  dispatch::WorkerProcess launch(
      const std::vector<std::size_t>& indices) override {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      const SweepPlan plan = SweepPlan::make(cfg_);
      const auto put = [&](const std::string& s) {
        if (!write_all(fds[1], s.data(), s.size())) std::_Exit(1);
      };
      put("#plan " + dispatch::to_json(dispatch::plan_info_for(cfg_)) + "\n");
      for (const std::size_t idx : indices) {
        put("#run " + std::to_string(idx) + "\n");
        put(run_record_to_json(plan.execute(idx)) + "\n");
        ::usleep(30'000);  // window for the coordinator to kill us mid-slice
      }
      put("#end\n");
      std::_Exit(0);
    }
    ::close(fds[1]);
    return {pid, fds[0], -1};
  }

 private:
  SweepConfig cfg_;
};

TEST(Dispatch, WorkerKilledMidSliceRetriesAndStaysByteIdentical) {
  const SweepResult reference = SweepRunner(tiny_sweep()).run();

  dispatch::DispatchOptions opts = fast_opts(2);
  opts.test_kill_after = 3;  // SIGKILL the worker that delivers record 3
  dispatch::SweepDispatcher d(std::make_unique<PacedTransport>(tiny_sweep()),
                              std::move(opts));
  const SweepResult res = d.run();

  EXPECT_GE(d.stats().workers_died, 1u);
  EXPECT_EQ(d.stats().runs_degraded, 0u);
  // The killed worker's tail was re-enqueued (and possibly stolen); the
  // merged artifacts must not betray any of it.
  EXPECT_EQ(res.to_csv(), reference.to_csv());
  EXPECT_EQ(res.to_json(), reference.to_json());
}

// ---- duplicate records (steal races) --------------------------------------

/// Workers that emit every record twice: the deterministic stand-in for a
/// steal race where victim and thief both execute the contested index.
class EchoTwiceTransport final : public dispatch::WorkerTransport {
 public:
  explicit EchoTwiceTransport(SweepConfig cfg) : cfg_(std::move(cfg)) {
    cfg_.progress = false;
  }
  const char* name() const override { return "echo-twice"; }
  dispatch::PlanInfo plan() override { return dispatch::plan_info_for(cfg_); }
  dispatch::WorkerProcess launch(
      const std::vector<std::size_t>& indices) override {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      const SweepPlan plan = SweepPlan::make(cfg_);
      const auto put = [&](const std::string& s) {
        if (!write_all(fds[1], s.data(), s.size())) std::_Exit(1);
      };
      put("#plan " + dispatch::to_json(dispatch::plan_info_for(cfg_)) + "\n");
      for (const std::size_t idx : indices) {
        put("#run " + std::to_string(idx) + "\n");
        const std::string rec = run_record_to_json(plan.execute(idx)) + "\n";
        put(rec);
        put(rec);
      }
      put("#end\n");
      std::_Exit(0);
    }
    ::close(fds[1]);
    return {pid, fds[0], -1};
  }

 private:
  SweepConfig cfg_;
};

TEST(Dispatch, DuplicateRecordsKeepFirstAndStayByteIdentical) {
  const SweepResult reference = SweepRunner(tiny_sweep()).run();

  dispatch::SweepDispatcher d(
      std::make_unique<EchoTwiceTransport>(tiny_sweep()), fast_opts(2));
  const SweepResult res = d.run();

  // Identical records: last-write-wins and keep-first are the same
  // verdict, and the duplicates must be invisible in the artifacts.
  // The dispatcher stops reading the moment the last run completes, so a
  // duplicate still sitting in a pipe at shutdown is dropped unread — the
  // counter may legitimately run one short of the run count.
  EXPECT_GE(d.stats().duplicate_records + 1, reference.runs.size());
  EXPECT_LE(d.stats().duplicate_records, reference.runs.size());
  EXPECT_EQ(res.to_csv(), reference.to_csv());
  EXPECT_EQ(res.to_json(), reference.to_json());
}

// ---- graceful degradation -------------------------------------------------

/// Workers that announce their first run and then die on a signal —
/// every attempt, forever. Nothing ever completes.
class AlwaysCrashTransport final : public dispatch::WorkerTransport {
 public:
  explicit AlwaysCrashTransport(SweepConfig cfg) : cfg_(std::move(cfg)) {}
  const char* name() const override { return "always-crash"; }
  dispatch::PlanInfo plan() override { return dispatch::plan_info_for(cfg_); }
  dispatch::WorkerProcess launch(
      const std::vector<std::size_t>& indices) override {
    int fds[2];
    EXPECT_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(fds[0]);
      const std::string head =
          "#plan " + dispatch::to_json(dispatch::plan_info_for(cfg_)) +
          "\n#run " + std::to_string(indices.front()) + "\n";
      (void)write_all(fds[1], head.data(), head.size());
      std::_Exit(1);  // crashed mid-run, as far as the coordinator knows
    }
    ::close(fds[1]);
    return {pid, fds[0], -1};
  }

 private:
  SweepConfig cfg_;
};

TEST(Dispatch, RetriesExhaustedDegradeCellsInsteadOfFailing) {
  SweepConfig cfg = tiny_sweep(1);  // 4 runs: keeps the crash loop short
  dispatch::DispatchOptions opts = fast_opts(2);
  opts.max_retries = 1;
  std::size_t bundles = 0;
  opts.bundle_writer = [&bundles](SweepRun& run) {
    run.bundle_path = "synth" + std::to_string(run.run_index) + ".json";
    ++bundles;
  };

  dispatch::SweepDispatcher d(std::make_unique<AlwaysCrashTransport>(cfg),
                              std::move(opts));
  const SweepResult res = d.run();  // completes; does NOT throw

  EXPECT_EQ(d.stats().runs_degraded, res.runs.size());
  EXPECT_EQ(bundles, res.runs.size());
  EXPECT_EQ(res.degraded_cell_count(), res.cells.size());
  for (const SweepRun& run : res.runs) {
    EXPECT_TRUE(run.executed);
    EXPECT_FALSE(run.ok);
    ASSERT_TRUE(run.failure.has_value());
    EXPECT_EQ(run.failure->kind, RunFailure::Kind::kCrash);
    EXPECT_NE(run.failure->message.find("abandoned"), std::string::npos);
    // The last worker death's cause rides along in the record.
    EXPECT_NE(run.failure->message.find("exited with status 1"),
              std::string::npos)
        << run.failure->message;
    EXPECT_FALSE(run.bundle_path.empty());
    // Identity survives even though no worker ever reported the run.
    EXPECT_EQ(run.seed, derive_seed(77, run.run_index));
  }
}

// ---- lease expiry ---------------------------------------------------------

/// First worker wedges after its plan header (no heartbeat, no records);
/// all later launches are normal fork workers.
class WedgeFirstTransport final : public dispatch::WorkerTransport {
 public:
  explicit WedgeFirstTransport(SweepConfig cfg)
      : inner_(cfg), cfg_(std::move(cfg)) {}
  const char* name() const override { return "wedge-first"; }
  dispatch::PlanInfo plan() override { return dispatch::plan_info_for(cfg_); }
  dispatch::WorkerProcess launch(
      const std::vector<std::size_t>& indices) override {
    if (!wedged_once_) {
      wedged_once_ = true;
      int fds[2];
      EXPECT_EQ(::pipe(fds), 0);
      const pid_t pid = ::fork();
      if (pid == 0) {
        ::close(fds[0]);
        const std::string head =
            "#plan " + dispatch::to_json(dispatch::plan_info_for(cfg_)) + "\n";
        (void)write_all(fds[1], head.data(), head.size());
        for (;;) ::pause();  // wedged: only the coordinator's lease saves us
      }
      ::close(fds[1]);
      return {pid, fds[0], -1};
    }
    return inner_.launch(indices);
  }

 private:
  dispatch::ForkWorkerTransport inner_;
  SweepConfig cfg_;
  bool wedged_once_ = false;
};

TEST(Dispatch, LeaseExpiryReassignsWedgedWorkersSlice) {
  const SweepResult reference = SweepRunner(tiny_sweep()).run();

  dispatch::DispatchOptions opts = fast_opts(2);
  opts.lease_sec = 0.3;
  dispatch::SweepDispatcher d(
      std::make_unique<WedgeFirstTransport>(tiny_sweep()), std::move(opts));
  const SweepResult res = d.run();

  EXPECT_EQ(d.stats().leases_expired, 1u);
  EXPECT_GE(d.stats().workers_died, 1u);
  EXPECT_EQ(d.stats().runs_degraded, 0u);
  EXPECT_EQ(res.to_csv(), reference.to_csv());
  EXPECT_EQ(res.to_json(), reference.to_json());
}

// ---- checkpoint resume ----------------------------------------------------

TEST(Dispatch, CheckpointResumeSkipsCompletedRuns) {
  const std::string dir = ::testing::TempDir() + "dispatch_ckpt";
  std::filesystem::remove_all(dir);
  const std::string ckpt = dir + "/checkpoint.json";
  const SweepResult reference = SweepRunner(tiny_sweep()).run();

  {
    dispatch::DispatchOptions opts = fast_opts(2);
    opts.checkpoint_path = ckpt;
    dispatch::SweepDispatcher d(
        std::make_unique<dispatch::ForkWorkerTransport>(tiny_sweep()),
        std::move(opts));
    const SweepResult res = d.run();
    EXPECT_EQ(res.to_csv(), reference.to_csv());
  }
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Checkpoints written by older builds carry a "shard" object and a
  // "backend" field; the reader ignores both, so they still resume.
  {
    std::ifstream in(ckpt);
    std::string text(std::istreambuf_iterator<char>(in), {});
    const std::size_t at = text.find("  \"cells\"");
    ASSERT_NE(at, std::string::npos);
    text.insert(at,
                "  \"shard\": {\"index\": 0, \"count\": 1},\n"
                "  \"backend\": \"dispatch\",\n");
    std::ofstream(ckpt, std::ios::trunc) << text;
  }

  // A fresh dispatcher sees the finished checkpoint: nothing re-executes.
  dispatch::DispatchOptions opts = fast_opts(2);
  opts.checkpoint_path = ckpt;
  dispatch::SweepDispatcher d(
      std::make_unique<dispatch::ForkWorkerTransport>(tiny_sweep()),
      std::move(opts));
  const SweepResult res = d.run();
  EXPECT_EQ(d.stats().runs_resumed, reference.runs.size());
  EXPECT_EQ(d.stats().workers_launched, 0u);
  EXPECT_EQ(res.to_csv(), reference.to_csv());
  EXPECT_EQ(res.to_json(), reference.to_json());

  // A checkpoint from a different sweep is refused, not merged.
  SweepConfig other = tiny_sweep();
  other.root_seed = 78;
  dispatch::DispatchOptions opts2 = fast_opts(2);
  opts2.checkpoint_path = ckpt;
  dispatch::SweepDispatcher d2(
      std::make_unique<dispatch::ForkWorkerTransport>(other),
      std::move(opts2));
  const SweepResult res2 = d2.run();
  EXPECT_EQ(d2.stats().runs_resumed, 0u);
  EXPECT_GE(d2.stats().workers_launched, 1u);
  std::filesystem::remove_all(dir);
}

// ---- transport sanity -----------------------------------------------------

TEST(Dispatch, BrokenWorkerCommandFailsFastInsteadOfBurningRetries) {
  const std::vector<std::string> cmd = {"/nonexistent/not_a_bench"};
  auto transport = std::make_unique<dispatch::CommandWorkerTransport>(cmd);
  EXPECT_SIM_ERROR((void)transport->plan(), "#plan");
}

TEST(Dispatch, DispatcherRejectsPlanSkewedWorkers) {
  // Transport whose #plan probe says one thing but whose workers run
  // another sweep: the first worker header must abort the dispatch.
  class SkewTransport final : public dispatch::WorkerTransport {
   public:
    explicit SkewTransport(SweepConfig cfg) : inner_(cfg) {
      lie_ = dispatch::plan_info_for(cfg);
      lie_.root_seed ^= 1;  // coordinator believes a different seed
    }
    const char* name() const override { return "skew"; }
    dispatch::PlanInfo plan() override { return lie_; }
    dispatch::WorkerProcess launch(
        const std::vector<std::size_t>& indices) override {
      return inner_.launch(indices);
    }

   private:
    dispatch::ForkWorkerTransport inner_;
    dispatch::PlanInfo lie_;
  };

  dispatch::SweepDispatcher d(std::make_unique<SkewTransport>(tiny_sweep()),
                              fast_opts(1));
  EXPECT_SIM_ERROR((void)d.run(), "disagrees with the coordinator");
}

// ---- crash isolation and crash replay ------------------------------------

// A sweep whose "boom" variant calls abort() during guest setup — the
// harshest failure a run can produce. The dispatch worker running it dies
// with SIGABRT; the sweep must survive, record the replica as kCrash, and
// write a replay bundle that reproduces the crash.
SweepConfig crashing_sweep(const std::string& failure_dir) {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = sim::SimTime::ms(10);
  cfg.modes = {guest::TickMode::kParatick};
  cfg.variants.push_back({"boom", [](ExperimentSpec& exp) {
    exp.setup = [](guest::GuestKernel&) { std::abort(); };
  }});
  cfg.repeat = 1;
  cfg.root_seed = 7;
  cfg.failure_dir = failure_dir;
  cfg.bench_name = "test_sweep_crash";
  return cfg;
}

/// `--dispatch --workers 1 --max-retries 0`: the first worker death of a
/// run degrades it to kCrash, with its replay bundle under failure_dir.
SweepResult dispatch_without_retries(SweepConfig cfg) {
  SweepCli cli;
  cli.dispatch = true;
  cli.dispatch_workers = 1;
  cli.max_retries = 0;
  return cli.run_sweep(std::move(cfg));
}

/// Run record with its wall-clock fields zeroed, for exact comparison.
std::string scrubbed_record(SweepRun run) {
  run.host_seconds = 0.0;
  run.result.engine_wall_ns = 0;
  return run_record_to_json(run);
}

TEST(DispatchCrash, ChildAbortBecomesFailedReplicaWithReplayBundle) {
  const std::string dir = ::testing::TempDir() + "dispatch_crash";
  std::filesystem::remove_all(dir);
  const SweepResult res = dispatch_without_retries(crashing_sweep(dir));

  ASSERT_EQ(res.runs.size(), 1u);
  const SweepRun& run = res.runs[0];
  EXPECT_TRUE(run.executed);
  EXPECT_FALSE(run.ok);
  ASSERT_TRUE(run.failure.has_value());
  EXPECT_EQ(run.failure->kind, RunFailure::Kind::kCrash);
  EXPECT_NE(run.failure->message.find("signal"), std::string::npos)
      << run.failure->message;

  // The bundle landed in the per-bench subdirectory and replays: the crash
  // is re-executed as a one-index dispatch so the replayer itself
  // survives, and reproduces() accepts a same-kind death.
  ASSERT_FALSE(run.bundle_path.empty());
  EXPECT_NE(run.bundle_path.find("test_sweep_crash/run0.json"), std::string::npos)
      << run.bundle_path;
  ASSERT_TRUE(std::filesystem::exists(run.bundle_path));
  const ReplayBundle bundle = load_replay_bundle(run.bundle_path);
  EXPECT_EQ(bundle.failure.kind, RunFailure::Kind::kCrash);
  const SweepRun replayed = replay_run(crashing_sweep(""), bundle);
  ASSERT_TRUE(replayed.failure.has_value());
  EXPECT_EQ(replayed.failure->kind, RunFailure::Kind::kCrash);
  std::string detail;
  EXPECT_TRUE(reproduces(bundle, replayed, &detail)) << detail;
  std::filesystem::remove_all(dir);
}

TEST(DispatchCrash, MidBatchCrashKeepsFinishedRunsAndRequeuesTail) {
  // One worker gets [ok, boom, tail] as a single slice. The completed "ok"
  // record must survive the worker's SIGABRT, "boom" becomes the kCrash
  // replica (with a bundle pointing at exactly that run), and the
  // never-started "tail" run is re-enqueued and executed by a fresh worker.
  const std::string dir = ::testing::TempDir() + "dispatch_batch_crash";
  std::filesystem::remove_all(dir);
  const auto make = [&](const std::string& failure_dir) {
    SweepConfig cfg = crashing_sweep(failure_dir);
    cfg.variants.insert(cfg.variants.begin(), {"ok", [](ExperimentSpec&) {}});
    cfg.variants.push_back({"tail", [](ExperimentSpec&) {}});
    return cfg;
  };
  const SweepResult res = dispatch_without_retries(make(dir));

  ASSERT_EQ(res.runs.size(), 3u);
  EXPECT_TRUE(res.runs[0].ok);
  EXPECT_TRUE(res.runs[2].ok);
  const SweepRun& crashed = res.runs[1];
  EXPECT_TRUE(crashed.executed);
  EXPECT_FALSE(crashed.ok);
  ASSERT_TRUE(crashed.failure.has_value());
  EXPECT_EQ(crashed.failure->kind, RunFailure::Kind::kCrash);
  EXPECT_NE(crashed.failure->message.find("signal"), std::string::npos)
      << crashed.failure->message;
  ASSERT_FALSE(crashed.bundle_path.empty());
  EXPECT_NE(crashed.bundle_path.find("test_sweep_crash/run1.json"),
            std::string::npos)
      << crashed.bundle_path;
  ASSERT_TRUE(std::filesystem::exists(crashed.bundle_path));
  const ReplayBundle bundle = load_replay_bundle(crashed.bundle_path);
  const SweepRun replayed = replay_run(make(""), bundle);
  std::string detail;
  EXPECT_TRUE(reproduces(bundle, replayed, &detail)) << detail;

  // The surviving runs must match an in-process execution of the same run
  // indices — a neighbor's crash changed nothing.
  const SweepRunner local(make(""));
  for (const std::size_t idx : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(scrubbed_record(res.runs[idx]),
              scrubbed_record(local.execute_run(idx)))
        << "run " << idx;
  }
  std::filesystem::remove_all(dir);
}

TEST(DispatchCrash, OneIndexReplayOfHealthyRunMatchesInProcessRun) {
  // replay_run sends kCrash bundles through a one-index dispatch; pointed
  // at a healthy run it must reproduce the in-process result exactly.
  const SweepConfig cfg = tiny_sweep();
  ReplayBundle bundle;
  bundle.root_seed = cfg.root_seed;
  bundle.repeat = cfg.repeat;
  bundle.run_index = 3;
  bundle.failure.kind = RunFailure::Kind::kCrash;
  const SweepRun replayed = replay_run(cfg, bundle);
  ASSERT_TRUE(replayed.ok);
  EXPECT_EQ(scrubbed_record(replayed),
            scrubbed_record(SweepRunner(cfg).execute_run(3)));
}

TEST(Dispatch, IndexSubsetExecutesOnlyThoseRuns) {
  const SweepResult reference = SweepRunner(tiny_sweep()).run();
  dispatch::SweepDispatcher d(
      std::make_unique<dispatch::ForkWorkerTransport>(tiny_sweep()),
      fast_opts(2));
  const SweepResult res = d.run(std::vector<std::size_t>{1, 6});

  EXPECT_EQ(res.executed_run_count(), 2u);
  EXPECT_EQ(d.stats().records_received, 2u);
  for (const SweepRun& run : res.runs) {
    const bool wanted = run.run_index == 1 || run.run_index == 6;
    EXPECT_EQ(run.executed, wanted) << "run " << run.run_index;
    // Unexecuted slots still carry their identity.
    EXPECT_EQ(run.seed, reference.runs[run.run_index].seed);
    if (wanted) {
      EXPECT_EQ(scrubbed_record(run),
                scrubbed_record(reference.runs[run.run_index]));
    }
  }
}

// A sweep where the dynticks cells deterministically fail: every hardware
// timer interrupt is dropped, so the busy dynticks guest breaches the
// watchdog while paratick (no hardware timer) completes.
SweepConfig degraded_sweep() {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = sim::SimTime::ms(200);
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::PureComputeSpec compute;
    compute.total_cycles = 100'000'000;
    compute.chunks = 100;
    workload::install_pure_compute(k, compute);
  };
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.fault.timer_drop_prob = 1.0;
  cfg.watchdog = true;
  cfg.repeat = 2;
  cfg.root_seed = 4242;
  cfg.threads = 2;
  return cfg;
}

TEST(Dispatch, DegradedCellsMatchLocalRunByteForByte) {
  const SweepResult reference = SweepRunner(degraded_sweep()).run();
  ASSERT_GT(reference.degraded_cell_count(), 0u);

  dispatch::SweepDispatcher d(
      std::make_unique<dispatch::ForkWorkerTransport>(degraded_sweep()),
      fast_opts(2));
  const SweepResult res = d.run();
  EXPECT_EQ(res.to_csv(), reference.to_csv());
  EXPECT_EQ(res.to_json(), reference.to_json());
  EXPECT_EQ(res.degraded_cell_count(), reference.degraded_cell_count());
  ASSERT_EQ(res.failed_runs().size(), reference.failed_runs().size());
  for (std::size_t i = 0; i < res.failed_runs().size(); ++i) {
    const RunFailure& m = *res.failed_runs()[i]->failure;
    const RunFailure& r = *reference.failed_runs()[i]->failure;
    EXPECT_EQ(m.kind, r.kind);
    EXPECT_EQ(m.expr, r.expr);
    EXPECT_EQ(m.sim_time_ns, r.sim_time_ns);
  }
}

// ---- checkpoint reader ----------------------------------------------------

TEST(DispatchCheckpoint, CorruptCheckpointErrorNamesFileAndByteOffset) {
  const std::string dir = ::testing::TempDir() + "dispatch_corrupt_offset";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/checkpoint.json";
  dispatch::DispatchOptions opts = fast_opts(1);
  opts.checkpoint_path = path;
  dispatch::SweepDispatcher d(
      std::make_unique<dispatch::ForkWorkerTransport>(tiny_sweep(1)),
      std::move(opts));
  (void)d.run();
  ASSERT_TRUE(std::filesystem::exists(path));

  // Tear the file mid-document, as a crashed non-atomic writer would.
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(path, std::ios::trunc);
    out << text.substr(0, text.size() / 2);
  }
  try {
    (void)load_partial_snapshot(path);
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
    EXPECT_NE(msg.find("regenerate"), std::string::npos) << msg;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace paratick::core

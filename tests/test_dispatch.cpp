// Fault tests for the sweep dispatcher (core/dispatch): the pull
// protocol's wire formats (strict parsing and a deterministic mutation
// fuzz), byte-identity of dispatched results against local execution, a
// SIGKILLed idle worker, and the one-run cost of a worker that breaks the
// protocol, exits or loses its lease while it holds a run; run subsets,
// and crash isolation + crash replay of runs that abort().
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/dispatch/dispatch.hpp"
#include "core/dispatch/protocol.hpp"
#include "core/dispatch/transport.hpp"
#include "core/dispatch/worker.hpp"
#include "core/json.hpp"
#include "core/replay.hpp"
#include "core/run_record.hpp"
#include "core/safe_io.hpp"
#include "core/sweep.hpp"
#include "core/sweep_plan.hpp"
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
  return opts;
}

/// Fork a fake worker that speaks the pull protocol: it calls
/// `serve(idx, put)` for every `#run N` it reads from its control pipe,
/// and exits 0 on EOF, as a real worker does. `put` writes one protocol
/// line. Every fake transport below is built on this, so each differs
/// from a real worker only in what `serve` does.
template <typename Serve>
dispatch::WorkerProcess fork_fake_worker(std::size_t run_count, Serve serve) {
  int out[2];
  int ctl[2];
  if (::pipe(out) != 0 || ::pipe(ctl) != 0) std::abort();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(out[0]);
    ::close(ctl[1]);
    const auto put = [&](const std::string& line) {
      const std::string framed = line + "\n";
      if (!write_all(out[1], framed.data(), framed.size())) std::_Exit(1);
    };
    std::string line;
    char c;
    while (read_retry(ctl[0], &c, 1) == 1) {
      if (c != '\n') {
        line += c;
        continue;
      }
      std::size_t idx = 0;
      try {
        idx = dispatch::parse_assignment(line, run_count);
      } catch (...) {
        std::_Exit(2);  // never unwind into the test's own frames
      }
      serve(idx, put);
      line.clear();
    }
    std::_Exit(0);
  }
  ::close(out[1]);
  ::close(ctl[0]);
  return {pid, out[0], ctl[1]};
}

/// Base of the fake transports: the true plan of `cfg`, and its records.
class FakeTransport : public dispatch::WorkerTransport {
 public:
  explicit FakeTransport(SweepConfig cfg) : cfg_(std::move(cfg)) {
    cfg_.progress = false;
  }
  PlanInfo plan() override { return plan_info_for(cfg_); }

 protected:
  [[nodiscard]] std::string record(std::size_t idx) const {
    return run_record_to_json(SweepPlan::make(cfg_).execute(idx));
  }
  /// A real worker, heartbeat included.
  [[nodiscard]] dispatch::WorkerProcess honest_worker() {
    return dispatch::ForkWorkerTransport(cfg_).launch();
  }

  SweepConfig cfg_;
};

// ---- protocol -------------------------------------------------------------

TEST(DispatchPlan, HeaderRoundTripsAndDetectsSkew) {
  SweepConfig cfg = tiny_sweep();
  cfg.bench_name = "test_bench";
  const PlanInfo plan = plan_info_for(cfg);
  EXPECT_EQ(plan.total_runs, 8u);
  EXPECT_EQ(plan.cells.size(), 4u);

  const PlanInfo parsed = parse_plan_info(json::parse(to_json(plan)));
  std::string why;
  EXPECT_TRUE(plans_match(plan, parsed, &why)) << why;
  EXPECT_EQ(parsed.bench, "test_bench");
  EXPECT_EQ(parsed.root_seed, 77u);

  // A bundle from a changed grid must be detected field by field.
  PlanInfo skewed = plan;
  skewed.root_seed = 78;
  EXPECT_FALSE(plans_match(plan, skewed, &why));
  EXPECT_NE(why.find("root seed"), std::string::npos);
  skewed = plan;
  skewed.cells[1].vcpus = 99;
  EXPECT_FALSE(plans_match(plan, skewed, &why));
  EXPECT_NE(why.find("cell 1"), std::string::npos);

  // Records are read against the plan's run count: it must be the grid's.
  skewed = plan;
  skewed.total_runs = 9;
  EXPECT_SIM_ERROR((void)parse_plan_info(json::parse(to_json(skewed))),
                   "total_runs is not cells * repeat");
}

/// Replace the first `from` in `text` with `to`.
std::string garble(std::string text, const std::string& from,
                   const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

SweepRun parse_record(const std::string& text, const SweepConfig& cfg) {
  return parse_run_record(json::parse(text), plan_info_for(cfg));
}

// Numeric integer fields must be integral and in range: 2.5 replicas is a
// corrupt record, not replica 2.
TEST(DispatchProtocol, FractionalIntegerFieldNamesTheField) {
  SweepRun run;
  run.replica = 0;
  const std::string bad = garble(run_record_to_json(run), "\"replica\": 0",
                                 "\"replica\": 2.5");
  EXPECT_SIM_ERROR((void)parse_record(bad, tiny_sweep()), "field \"replica\"");
}

// u64 fields travel as decimal strings; trailing junk must fail naming the
// field instead of parsing the digits before it (or 0 for pure garbage).
TEST(DispatchProtocol, MalformedU64StringsNameTheField) {
  SweepRun run;
  run.run_index = 3;
  run.seed = 12345;
  run.executed = true;
  run.ok = true;
  const std::string record = run_record_to_json(run);
  EXPECT_EQ(parse_record(record, tiny_sweep()).seed, 12345u);
  EXPECT_SIM_ERROR(
      (void)parse_record(garble(record, "\"seed\": \"12345\"",
                                "\"seed\": \"12345x\""),
                         tiny_sweep()),
      "seed: not a valid integer");

  const std::string plan = to_json(plan_info_for(tiny_sweep()));
  EXPECT_SIM_ERROR(
      (void)parse_plan_info(json::parse(garble(plan, "\"root_seed\": \"77\"",
                                               "\"root_seed\": \"77x\""))),
      "root_seed: not a valid integer");
}

// A record is read against its plan: a run index or cell the plan does
// not have is a SimError, never an out-of-range slot.
TEST(DispatchProtocol, RecordOutsideThePlanIsRejected) {
  SweepRun run;
  run.run_index = 7;
  run.cell = 3;
  const std::string record = run_record_to_json(run);
  EXPECT_NO_THROW((void)parse_record(record, tiny_sweep()));
  EXPECT_SIM_ERROR((void)parse_record(record, tiny_sweep(1)),
                   "run 7 (cell 3) lies outside the plan (4 runs, 4 cells)");
  EXPECT_SIM_ERROR(
      (void)parse_record(garble(record, "\"cell\": 3", "\"cell\": 4"),
                         tiny_sweep()),
      "lies outside the plan");
}

// An assignment is "#run N" with N inside the plan, nothing else: "#run 0x"
// is not run 0, and an index past the plan is not clamped to it.
TEST(DispatchProtocol, AssignmentLinesParseStrictly) {
  EXPECT_EQ(dispatch::parse_assignment(dispatch::assignment_line(5), 8), 5u);
  EXPECT_EQ(dispatch::parse_assignment("#run 0", 1), 0u);
  EXPECT_SIM_ERROR((void)dispatch::parse_assignment("#run 0x", 8),
                   "#run: not a valid integer");
  EXPECT_SIM_ERROR((void)dispatch::parse_assignment("#run ", 8), "#run");
  EXPECT_SIM_ERROR((void)dispatch::parse_assignment("#run -1", 8), "#run");
  EXPECT_SIM_ERROR((void)dispatch::parse_assignment("#run  3", 8), "#run");
  EXPECT_SIM_ERROR((void)dispatch::parse_assignment("#limit 3", 8),
                   "#run: expected an assignment");
  EXPECT_SIM_ERROR((void)dispatch::parse_assignment("#run 8", 8),
                   "#run: run index 8 is outside the plan (8 runs)");
  EXPECT_SIM_ERROR((void)dispatch::parse_assignment("#run 0", 0),
                   "outside the plan");
  EXPECT_SIM_ERROR(
      (void)dispatch::parse_assignment("#run 99999999999999999999999", 8),
      "#run: value out of range");
}

/// Run a worker on `input` as its whole control stream, output discarded.
int run_worker_on(const SweepConfig& cfg, const std::string& input) {
  int ctl[2];
  EXPECT_EQ(::pipe(ctl), 0);
  EXPECT_TRUE(write_all(ctl[1], input.data(), input.size()));
  ::close(ctl[1]);
  const int out = ::open("/dev/null", O_WRONLY);
  EXPECT_GE(out, 0);
  struct Closer {
    int a, b;
    ~Closer() {
      ::close(a);
      ::close(b);
    }
  } closer{ctl[0], out};
  return dispatch::run_worker(cfg, ctl[0], out);
}

// A malformed or out-of-plan assignment is input from outside the program:
// the worker refuses it naming the field, with its heartbeat thread joined.
TEST(DispatchProtocol, WorkerRejectsMalformedAndOutOfPlanAssignments) {
  const SweepConfig cfg = tiny_sweep(1);  // 4 runs
  EXPECT_EQ(run_worker_on(cfg, ""), 0);   // EOF before any work: clean exit
  EXPECT_EQ(run_worker_on(cfg, "#run 0\n#run 3\n"), 0);
  EXPECT_SIM_ERROR((void)run_worker_on(cfg, "#run 1x\n"),
                   "#run: not a valid integer");
  EXPECT_SIM_ERROR((void)run_worker_on(cfg, "#run 0\n#run 4\n"),
                   "#run: run index 4 is outside the plan (4 runs)");
  EXPECT_SIM_ERROR((void)run_worker_on(cfg, "#limit 1\n"),
                   "#run: expected an assignment");
  EXPECT_SIM_ERROR((void)run_worker_on(cfg, "#run 1"), "cut off by EOF");
  EXPECT_SIM_ERROR((void)run_worker_on(cfg, std::string(100, '7') + "\n"),
                   "too long");
}

// The JSON reader behind records, plan headers, replay bundles and
// history snapshots bounds its recursion and rejects short
// \u escapes; the inf/nan tokens %.17g writes for empty accumulators
// still parse.
TEST(DispatchProtocol, JsonReaderBoundsNestingAndEscapes) {
  EXPECT_SIM_ERROR((void)json::parse(std::string(100'000, '[')),
                   "nested more than 256 deep (at byte offset");
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += "{\"a\": ";
  EXPECT_SIM_ERROR((void)json::parse(objects), "nested");
  EXPECT_SIM_ERROR((void)json::parse(std::string(1'000, '[')), "nested");
  const std::string deep = std::string(200, '[') + std::string(200, ']');
  EXPECT_EQ(json::parse(deep).type, json::Value::Type::kArray);

  EXPECT_SIM_ERROR((void)json::parse("\"\\u12zz\""),
                   "\\u escape needs four hex digits");
  EXPECT_SIM_ERROR((void)json::parse("\"\\u-123\""), "four hex digits");
  EXPECT_SIM_ERROR((void)json::parse("\"\\u12\""), "\\u escape");
  EXPECT_EQ(json::parse("\"\\u0041\\u00e9\"").str, "A\xc3\xa9");

  const json::Value nums = json::parse("[inf, -inf, nan, null]");
  ASSERT_EQ(nums.array.size(), 4u);
  EXPECT_TRUE(std::isinf(nums.array[0].number) && nums.array[0].number > 0);
  EXPECT_TRUE(std::isinf(nums.array[1].number) && nums.array[1].number < 0);
  EXPECT_TRUE(std::isnan(nums.array[2].number));
  EXPECT_EQ(nums.array[3].type, json::Value::Type::kNull);
}

// Deterministic mutation fuzz of the three sweep documents (plan header,
// run record, #run line): every byte-flipped, truncated or spliced input
// must parse or throw SimError.
// Any other exception fails here; UB or a crash fails the sanitizer build.
TEST(DispatchFuzz, WireFormatsParseOrThrowSimError) {
  const SweepConfig cfg = tiny_sweep(1);
  const SweepRunner runner(cfg);
  const SweepRun storm = runner.execute_run(2);
  const PlanInfo plan = plan_info_for(cfg);
  const std::size_t runs = plan.total_runs;
  struct Format {
    const char* name;
    std::string seed;
    std::function<void(const std::string&)> parse;
  };
  const std::vector<Format> formats = {
      {"plan", to_json(plan),
       [](const std::string& s) { (void)parse_plan_info(json::parse(s)); }},
      {"record", run_record_to_json(storm),
       [plan](const std::string& s) { (void)parse_run_record(json::parse(s), plan); }},
      {"#run", dispatch::assignment_line(3),
       [runs](const std::string& s) { (void)dispatch::parse_assignment(s, runs); }},
  };

  std::mt19937_64 rng(0x5eed);  // fixed: the same inputs on every run
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  constexpr int kInputsPerFormat = 3000;
  for (const Format& f : formats) {
    // The seed itself must parse: a fuzz over inputs that all fail to
    // parse checks nothing.
    EXPECT_NO_THROW(f.parse(f.seed)) << f.name;
    std::size_t parsed = 0;
    for (int i = 0; i < kInputsPerFormat; ++i) {
      std::string in = f.seed;
      switch (i % 3) {
        case 0:  // flip one to four bytes
          for (std::size_t k = 1 + pick(4); k > 0; --k) {
            in[pick(in.size())] = static_cast<char>(rng());
          }
          break;
        case 1:  // truncate
          in.resize(pick(in.size()));
          break;
        default: {  // splice a chunk of any seed over any position
          const std::string& donor = formats[pick(formats.size())].seed;
          const std::size_t from = pick(donor.size());
          const std::string chunk = donor.substr(from, 1 + pick(64));
          const std::size_t at = pick(in.size() + 1);
          in.replace(at, pick(8), chunk);
          break;
        }
      }
      try {
        f.parse(in);
        ++parsed;
      } catch (const sim::SimError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << f.name << " input " << i << " threw " << e.what();
      } catch (...) {
        ADD_FAILURE() << f.name << " input " << i << " threw a non-exception";
      }
    }
    // Some mutations land in string contents or whitespace and still
    // parse; none at all would mean the seed is rejected outright.
    EXPECT_GT(parsed, 0u) << f.name;
  }
}

// ---- byte-identity --------------------------------------------------------

TEST(Dispatch, ForkWorkersMatchLocalRunByteForByte) {
  const SweepResult reference = SweepRunner(tiny_sweep()).run();

  dispatch::ForkWorkerTransport transport(tiny_sweep());
  dispatch::DispatchStats st;
  const SweepResult res = dispatch::dispatch_sweep(transport, fast_opts(3), &st);

  EXPECT_EQ(res.to_csv(), reference.to_csv());
  EXPECT_EQ(res.to_json(), reference.to_json());
  EXPECT_EQ(st.records_received, reference.runs.size());
  EXPECT_EQ(st.runs_crashed, 0u);
  // Workers pull run after run: three launches serve all eight, and each
  // exits cleanly when its control line closes.
  EXPECT_EQ(st.workers_launched, 3u);
  EXPECT_EQ(st.workers_died, 0u);
}

TEST(Dispatch, LaunchesNoMoreWorkersThanRuns) {
  const SweepResult reference = SweepRunner(tiny_sweep(1)).run();  // 4 runs
  dispatch::ForkWorkerTransport transport(tiny_sweep(1));
  dispatch::DispatchStats st;
  const SweepResult res = dispatch::dispatch_sweep(transport, fast_opts(8), &st);
  EXPECT_EQ(st.workers_launched, 4u);
  EXPECT_EQ(res.to_csv(), reference.to_csv());
}

/// Fake workers that pause after each record. tiny_sweep runs finish in
/// microseconds; the pause keeps a worker alive long enough for the
/// coordinator's SIGKILL to land while it still has work ahead.
class PacedTransport final : public FakeTransport {
 public:
  using FakeTransport::FakeTransport;
  dispatch::WorkerProcess launch() override {
    return fork_fake_worker(plan().total_runs,
                            [this](std::size_t idx, const auto& put) {
                              put(record(idx));
                              ::usleep(30'000);
                            });
  }
};

// The test hook kills the worker right after it delivers a record, while
// it holds nothing: no run is lost, a fresh worker takes its place, and
// the output stays byte-identical.
TEST(Dispatch, WorkerKilledBetweenRunsIsReplacedAndStaysByteIdentical) {
  const SweepResult reference = SweepRunner(tiny_sweep()).run();

  dispatch::DispatchOptions opts = fast_opts(2);
  opts.test_kill_after = 3;  // SIGKILL the worker that delivers record 3
  PacedTransport transport(tiny_sweep());
  dispatch::DispatchStats st;
  const SweepResult res = dispatch::dispatch_sweep(transport, opts, &st);

  EXPECT_EQ(st.workers_died, 1u);
  EXPECT_EQ(st.workers_launched, 3u);  // the killed one is replaced
  EXPECT_EQ(st.runs_crashed, 0u);
  EXPECT_EQ(res.to_csv(), reference.to_csv());
  EXPECT_EQ(res.to_json(), reference.to_json());
}

// ---- a lost worker costs exactly its run ----------------------------------

/// Run record with its wall-clock fields zeroed, for exact comparison.
std::string scrubbed_record(SweepRun run) {
  run.host_seconds = 0.0;
  run.result.engine_wall_ns = 0;
  return run_record_to_json(run);
}

/// Options whose bundle writer stamps a synthetic bundle path on every
/// run lost with its worker, counting them in `bundles`.
dispatch::DispatchOptions counting_bundles(unsigned workers,
                                           std::size_t& bundles) {
  dispatch::DispatchOptions opts = fast_opts(workers);
  opts.bundle_writer = [&bundles](SweepRun& run) {
    run.bundle_path = "synth" + std::to_string(run.run_index) + ".json";
    ++bundles;
  };
  return opts;
}

/// Run `lost` of `res` is a kCrash record whose message names `cause`,
/// with a bundle and the identity stamped from the plan; every other run
/// equals the local -j1 run, wall clock aside.
void expect_only_run_lost(const SweepResult& res, const SweepConfig& cfg,
                          std::size_t lost, const std::string& cause) {
  SweepConfig local_cfg = cfg;
  local_cfg.threads = 1;
  const SweepResult local = SweepRunner(local_cfg).run();
  ASSERT_EQ(res.runs.size(), local.runs.size());
  for (const SweepRun& run : res.runs) {
    if (run.run_index != lost) {
      EXPECT_EQ(scrubbed_record(run), scrubbed_record(local.runs[run.run_index]))
          << "run " << run.run_index;
      continue;
    }
    EXPECT_TRUE(run.executed);
    EXPECT_FALSE(run.ok);
    ASSERT_TRUE(run.failure.has_value());
    EXPECT_EQ(run.failure->kind, RunFailure::Kind::kCrash);
    EXPECT_NE(run.failure->message.find(cause), std::string::npos)
        << run.failure->message;
    EXPECT_EQ(run.bundle_path, "synth" + std::to_string(lost) + ".json");
    EXPECT_EQ(run.seed, derive_seed(cfg.root_seed, lost));
  }
  EXPECT_EQ(res.degraded_cell_count(), 1u);
}

/// The first worker answers its assignment with `garbage(idx)`; later
/// launches are honest.
class GarbledTransport final : public FakeTransport {
 public:
  GarbledTransport(SweepConfig cfg,
                   std::function<std::string(std::size_t)> garbage)
      : FakeTransport(std::move(cfg)), garbage_(std::move(garbage)) {}
  dispatch::WorkerProcess launch() override {
    if (launched_++ > 0) return honest_worker();
    return fork_fake_worker(plan().total_runs,
                            [this](std::size_t idx, const auto& put) {
                              put(garbage_(idx));
                            });
  }

 private:
  std::function<std::string(std::size_t)> garbage_;
  int launched_ = 0;
};

TEST(Dispatch, ProtocolErrorCostsExactlyTheHeldRun) {
  const SweepConfig cfg = tiny_sweep();
  const std::size_t runs = plan_info_for(cfg).total_runs;
  const std::vector<std::pair<const char*, std::function<std::string(std::size_t)>>>
      garbage = {
          // A record, but for a run the worker was not assigned.
          {"record for the next run",
           [&](std::size_t idx) {
             return run_record_to_json(SweepPlan::make(cfg).execute((idx + 1) % runs));
           }},
          {"corrupt record", [](std::size_t) { return std::string("{\"run_index\": "); }},
          {"unknown line", [](std::size_t) { return std::string("#plan {}"); }},
      };
  for (const auto& [what, line] : garbage) {
    SCOPED_TRACE(what);
    std::size_t bundles = 0;
    GarbledTransport transport(cfg, line);
    dispatch::DispatchStats st;
    const SweepResult res =
        dispatch::dispatch_sweep(transport, counting_bundles(1, bundles), &st);

    // The first worker held run 0: it is killed and charged exactly that
    // run, and a fresh worker serves the other seven.
    expect_only_run_lost(res, cfg, 0, "broke the protocol");
    EXPECT_EQ(st.workers_died, 1u);
    EXPECT_EQ(st.runs_crashed, 1u);
    EXPECT_EQ(bundles, 1u);
    EXPECT_EQ(st.records_received, runs - 1);
  }
}

/// Every worker exits 1 when it is assigned run `kPoison`, as a run that
/// crashes its process would, and serves every other run honestly.
class AlwaysCrashTransport final : public FakeTransport {
 public:
  static constexpr std::size_t kPoison = 2;
  using FakeTransport::FakeTransport;
  dispatch::WorkerProcess launch() override {
    return fork_fake_worker(plan().total_runs,
                            [this](std::size_t idx, const auto& put) {
                              if (idx == kPoison) std::_Exit(1);
                              put(record(idx));
                            });
  }
};

TEST(Dispatch, WorkerExitCostsExactlyTheHeldRun) {
  const SweepConfig cfg = tiny_sweep();
  std::size_t bundles = 0;
  AlwaysCrashTransport transport(cfg);
  dispatch::DispatchStats st;
  const SweepResult res =
      dispatch::dispatch_sweep(transport, counting_bundles(2, bundles), &st);

  // The run is not retried: it would crash again. The sweep completes.
  expect_only_run_lost(res, cfg, AlwaysCrashTransport::kPoison,
                       "exited with status 1");
  EXPECT_EQ(st.workers_died, 1u);
  EXPECT_EQ(st.runs_crashed, 1u);
  EXPECT_EQ(bundles, 1u);
}

/// The first worker wedges on its first assignment (no heartbeat, no
/// record); later launches are honest.
class WedgeFirstTransport final : public FakeTransport {
 public:
  using FakeTransport::FakeTransport;
  dispatch::WorkerProcess launch() override {
    if (launched_++ > 0) return honest_worker();
    return fork_fake_worker(plan().total_runs, [](std::size_t, const auto&) {
      for (;;) ::pause();  // wedged: only the coordinator's lease saves us
    });
  }

 private:
  int launched_ = 0;
};

TEST(Dispatch, LeaseExpiryCostsExactlyTheWedgedRun) {
  const SweepConfig cfg = tiny_sweep();
  std::size_t bundles = 0;
  dispatch::DispatchOptions opts = counting_bundles(2, bundles);
  opts.lease_sec = 1.0;  // twice the heartbeat: the idle honest worker lives
  WedgeFirstTransport transport(cfg);
  dispatch::DispatchStats st;
  const SweepResult res = dispatch::dispatch_sweep(transport, opts, &st);

  expect_only_run_lost(res, cfg, 0, "lease expired");
  EXPECT_EQ(st.leases_expired, 1u);
  EXPECT_EQ(st.workers_died, 1u);
  EXPECT_EQ(st.runs_crashed, 1u);
  EXPECT_EQ(bundles, 1u);
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
  cfg.threads = 1;
  cfg.failure_dir = failure_dir;
  cfg.bench_name = "test_sweep_crash";
  return cfg;
}

/// `--dispatch -j1`: one forked worker at a time; a worker death costs its
/// run a kCrash record, with its replay bundle under failure_dir.
SweepResult dispatch_on_one_worker(SweepConfig cfg) {
  SweepCli cli;
  cli.dispatch = true;
  return cli.run_sweep(std::move(cfg));
}

TEST(DispatchCrash, ChildAbortBecomesFailedReplicaWithReplayBundle) {
  const std::string dir = ::testing::TempDir() + "dispatch_crash";
  std::filesystem::remove_all(dir);
  const SweepResult res = dispatch_on_one_worker(crashing_sweep(dir));

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
  EXPECT_EQ(bundle.run.failure->kind, RunFailure::Kind::kCrash);
  const SweepRun replayed = replay_run(crashing_sweep(""), bundle);
  ASSERT_TRUE(replayed.failure.has_value());
  EXPECT_EQ(replayed.failure->kind, RunFailure::Kind::kCrash);
  std::string detail;
  EXPECT_TRUE(reproduces(bundle, replayed, &detail)) << detail;
  std::filesystem::remove_all(dir);
}

TEST(DispatchCrash, CrashMidSweepKeepsFinishedRunsAndServesTheRest) {
  // One worker slot pulls ok, then boom, then tail. The completed "ok"
  // record must survive the worker's SIGABRT on "boom", which becomes the
  // kCrash replica (with a bundle pointing at exactly that run), and
  // "tail" is pulled by the fresh worker launched in its place.
  const std::string dir = ::testing::TempDir() + "dispatch_batch_crash";
  std::filesystem::remove_all(dir);
  const auto make = [&](const std::string& failure_dir) {
    SweepConfig cfg = crashing_sweep(failure_dir);
    cfg.variants.insert(cfg.variants.begin(), {"ok", [](ExperimentSpec&) {}});
    cfg.variants.push_back({"tail", [](ExperimentSpec&) {}});
    return cfg;
  };
  const SweepResult res = dispatch_on_one_worker(make(dir));

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
  bundle.plan = plan_info_for(cfg);
  bundle.run = SweepPlan::make(cfg).execute(3);
  bundle.run.failure = RunFailure{};
  bundle.run.failure->kind = RunFailure::Kind::kCrash;
  const SweepRun replayed = replay_run(cfg, bundle);
  ASSERT_TRUE(replayed.ok);
  EXPECT_EQ(scrubbed_record(replayed),
            scrubbed_record(SweepRunner(cfg).execute_run(3)));
}

TEST(Dispatch, IndexSubsetExecutesOnlyThoseRuns) {
  const SweepResult reference = SweepRunner(tiny_sweep()).run();
  dispatch::ForkWorkerTransport transport(tiny_sweep());
  dispatch::DispatchStats st;
  const SweepResult res = dispatch::dispatch_sweep(
      transport, fast_opts(2), &st, std::vector<std::size_t>{1, 6});

  EXPECT_EQ(res.executed_run_count(), 2u);
  EXPECT_EQ(st.records_received, 2u);
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

  dispatch::ForkWorkerTransport transport(degraded_sweep());
  const SweepResult res = dispatch::dispatch_sweep(transport, fast_opts(2));
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

// ---- replay bundles -------------------------------------------------------

// A bundle holds no wall clock, so a dispatch worker writes the bytes a
// -j1 sweep does, plan header included.
TEST(DispatchBundle, DispatchedBundlesAreByteIdenticalToLocal) {
  const std::string dir = ::testing::TempDir() + "dispatch_plan_bytes";
  std::filesystem::remove_all(dir);
  SweepConfig cfg = degraded_sweep();
  cfg.bench_name = "plan_bytes";
  cfg.failure_dir = dir + "/failures";

  dispatch::ForkWorkerTransport transport(cfg);
  const SweepResult res = dispatch::dispatch_sweep(transport, fast_opts(2));
  ASSERT_FALSE(res.failed_runs().empty());

  SweepConfig local = cfg;
  local.threads = 1;
  local.failure_dir = dir + "/local";
  const SweepResult ref = SweepRunner(local).run();
  ASSERT_EQ(ref.failed_runs().size(), res.failed_runs().size());
  for (std::size_t i = 0; i < ref.failed_runs().size(); ++i) {
    ASSERT_FALSE(res.failed_runs()[i]->bundle_path.empty());
    const std::string text = slurp(ref.failed_runs()[i]->bundle_path);
    EXPECT_EQ(text, slurp(res.failed_runs()[i]->bundle_path)) << "failed run " << i;
    EXPECT_EQ(to_json(parse_replay_bundle(text)), text);  // exact round trip
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace paratick::core

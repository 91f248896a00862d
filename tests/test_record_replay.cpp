#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/record_replay/record_replay.hpp"
#include "core/record_replay/trace.hpp"
#include "core/replay.hpp"
#include "core/sweep.hpp"
#include "core/run_record.hpp"
#include "expect_error.hpp"
#include "workload/micro.hpp"

namespace paratick::core::record_replay {
namespace {

// ---- trace encoding ------------------------------------------------------

TEST(EventTrace, AppendDecodeRoundTrip) {
  EventTrace t;
  // Irregular deltas on purpose: out-of-order seqs (pops are time-ordered,
  // not schedule-ordered) and a zero time delta.
  const std::vector<TraceRecord> records = {
      {100, 0, 0xdeadbeef},
      {100, 3, 0x00000001},
      {250, 1, 0xffffffff},
      {1'000'000'000, 4, 0},
  };
  for (const TraceRecord& r : records) t.append(r.time_ns, r.seq, r.digest);

  EXPECT_EQ(t.count(), records.size());
  EXPECT_EQ(t.decode(), records);
  EXPECT_EQ(EventTrace::from_records(records).chain_digest(), t.chain_digest());

  // The chain digest starts at the seed and every record moves it.
  EventTrace prefix;
  std::uint64_t prev = prefix.chain_digest();
  EXPECT_EQ(prev, kChainSeed);
  for (const TraceRecord& r : records) {
    prefix.append(r.time_ns, r.seq, r.digest);
    EXPECT_NE(prefix.chain_digest(), prev);
    prev = prefix.chain_digest();
  }
  EXPECT_EQ(prev, t.chain_digest());
}

/// Overwrite the u64le header field at byte `pos` of a serialized trace
/// (count at 8, chain digest at 16, stream size at 24).
void set_u64le(std::string& bytes, std::size_t pos, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[pos + i] = static_cast<char>(v >> (8 * i));
  }
}

/// A trace file image over a hand-written varint stream: a serialized
/// empty trace with the header's count and stream size patched in.
std::string trace_image(std::uint64_t count, const std::string& stream) {
  std::string bytes = EventTrace{}.serialize() + stream;
  set_u64le(bytes, 8, count);
  set_u64le(bytes, 24, stream.size());
  return bytes;
}

TEST(EventTrace, DeltaOverflowNamesTheRecordAndOffset) {
  // zigzag(INT64_MAX) as a varint: nine 7-bit groups of ones, then 0x01.
  const std::string max_delta = "\xfe\xff\xff\xff\xff\xff\xff\xff\xff\x01";
  const std::string zero(1, '\0');

  // Two time deltas of INT64_MAX each: the second sum overflows. Record 0
  // is 12 bytes, so record 1 starts at file offset 32 + 12.
  const std::string time_record = max_delta + zero + zero;
  EXPECT_SIM_ERROR(
      (void)EventTrace::deserialize(trace_image(2, time_record + time_record)),
      "time delta overflows in record 1 at byte offset 44");

  // A seq delta of INT64_MAX past the expected seq 1 overflows at once.
  EXPECT_SIM_ERROR(
      (void)EventTrace::deserialize(trace_image(1, zero + max_delta + zero)),
      "seq delta overflows in record 0 at byte offset 32");
}

TEST(EventTrace, TrailingBytesAreRejected) {
  EventTrace t;
  t.append(10, 0, 1);
  std::string bytes = t.serialize();
  const std::size_t end = bytes.size();
  bytes += "xyz";
  set_u64le(bytes, 24, bytes.size() - 32);
  EXPECT_SIM_ERROR((void)EventTrace::deserialize(bytes),
                   "3 trailing bytes at byte offset " + std::to_string(end));
}

TEST(EventTrace, SerializeRoundTripAndCorruptionDetection) {
  EventTrace t;
  for (int i = 0; i < 64; ++i) {
    t.append(1000 * i, static_cast<std::uint64_t>(i),
             static_cast<std::uint32_t>(i) * 2654435761u);
  }
  const std::string bytes = t.serialize();
  const EventTrace back = EventTrace::deserialize(bytes);
  EXPECT_EQ(back.count(), t.count());
  EXPECT_EQ(back.chain_digest(), t.chain_digest());
  EXPECT_EQ(back.decode(), t.decode());

  // A deserialized trace must keep appending from the right delta state.
  EventTrace grown = EventTrace::deserialize(bytes);
  grown.append(64'000, 64, 42);
  EventTrace ref = t;
  ref.append(64'000, 64, 42);
  EXPECT_EQ(grown.chain_digest(), ref.chain_digest());

  std::string bad_magic = bytes;
  bad_magic[0] ^= 0x01;
  EXPECT_SIM_ERROR((void)EventTrace::deserialize(bad_magic), "bad magic");

  EXPECT_SIM_ERROR((void)EventTrace::deserialize(bytes.substr(0, 10)),
                   "file too short");

  std::string truncated = bytes;
  truncated.pop_back();
  EXPECT_SIM_ERROR((void)EventTrace::deserialize(truncated),
                   "stream size does not match");

  // Flip one payload byte: either the varint decoder or the chain digest
  // must catch it — both throw with the trace named.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x40;
  EXPECT_SIM_ERROR((void)EventTrace::deserialize(corrupt), "event trace");
}

TEST(EventTrace, FileRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "paratick_rr_test" / "file_round_trip";
  fs::remove_all(dir);

  EventTrace t;
  t.append(10, 0, 1);
  t.append(20, 1, 2);
  // write_trace_file creates the missing parent directories.
  const std::string path =
      write_trace_file(t, (dir / "sub" / "run0.trace").string());
  const EventTrace back = load_trace_file(path);
  EXPECT_EQ(back.count(), 2u);
  EXPECT_EQ(back.chain_digest(), t.chain_digest());

  EXPECT_SIM_ERROR((void)load_trace_file((dir / "missing.trace").string()),
                   "cannot open trace file");
}

TEST(EventTrace, FileErrorsNameThePath) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "paratick_rr_test" / "file_errors";
  fs::remove_all(dir);
  EventTrace t;
  for (std::uint32_t i = 0; i < 16; ++i) t.append(100 * i, i, 7 * i);
  const std::string bytes = t.serialize();
  const auto write = [&](const std::string& name, const std::string& content) {
    fs::create_directories(dir);
    const std::string path = (dir / name).string();
    std::ofstream(path, std::ios::binary) << content;
    return path;
  };

  const std::string truncated = write("truncated.trace", bytes.substr(0, bytes.size() - 3));
  EXPECT_SIM_ERROR((void)load_trace_file(truncated), truncated);

  std::string flipped_bytes = bytes;
  flipped_bytes[bytes.size() - 2] ^= 0x01;
  const std::string flipped = write("flipped.trace", flipped_bytes);
  EXPECT_SIM_ERROR((void)load_trace_file(flipped), flipped);

  // A consistent header over a stream that stops mid-varint: the error
  // names the record and its byte offset in the file, as well as the path.
  std::string cut = bytes.substr(0, bytes.size() - 1);
  cut.back() = static_cast<char>(static_cast<unsigned char>(cut.back()) | 0x80);
  set_u64le(cut, 24, cut.size() - 32);
  const std::string mid_varint = write("mid_varint.trace", cut);
  EXPECT_SIM_ERROR((void)load_trace_file(mid_varint), "truncated in record 15 at byte offset");
  EXPECT_SIM_ERROR((void)load_trace_file(mid_varint), mid_varint);
  fs::remove_all(dir);
}

TEST(ReplayBundle, FileErrorsNameThePath) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "paratick_rr_test" / "bundle_errors";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string missing = (dir / "missing.json").string();
  EXPECT_SIM_ERROR((void)load_replay_bundle(missing), "cannot open replay bundle " + missing);

  // A directory opens but cannot be read: a read error, not an empty file.
  const std::string directory = (dir / "a_directory.json").string();
  fs::create_directories(directory);
  EXPECT_SIM_ERROR((void)load_replay_bundle(directory), "cannot read replay bundle " + directory);

  const std::string truncated = (dir / "truncated.json").string();
  std::ofstream(truncated) << "{\"kind\": \"paratick-r";
  EXPECT_SIM_ERROR((void)load_replay_bundle(truncated), truncated);
  EXPECT_SIM_ERROR((void)load_replay_bundle(truncated), "byte offset");
  fs::remove_all(dir);
}

// ---- record -> replay round trip -----------------------------------------

/// Healthy single-cell config: one short paratick run, no faults.
SweepConfig ok_run_config() {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = sim::SimTime::ms(20);
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::PureComputeSpec spec;
    spec.total_cycles = 10'000'000;  // ~5 ms at 2 GHz
    spec.chunks = 10;
    workload::install_pure_compute(k, spec);
  };
  cfg.modes = {guest::TickMode::kParatick};
  cfg.repeat = 1;
  cfg.root_seed = 42;
  cfg.threads = 1;
  return cfg;
}

/// Record run 0 of `cfg` and return (run, trace) via out-params.
SweepRun record_run0(SweepConfig cfg, EventTrace* trace) {
  TraceRecorder recorder;
  cfg.observer = &recorder;
  SweepRun run = SweepRunner(cfg).execute_run(0);
  *trace = recorder.take();
  return run;
}

/// Run-record JSON with the two host-wall-clock fields zeroed — everything
/// else in the record is deterministic and must round-trip bit-exactly.
std::string scrubbed_record(SweepRun run) {
  run.host_seconds = 0.0;
  run.result.engine_wall_ns = 0;
  return run_record_to_json(run);
}

TEST(RecordReplay, RoundTripHasZeroDivergencesAndByteIdenticalResult) {
  EventTrace trace;
  const SweepRun recorded = record_run0(ok_run_config(), &trace);
  ASSERT_TRUE(recorded.ok);
  // Paratick + pure compute is event-light by design (that's the paper);
  // a run is still a dozen-plus engine events.
  ASSERT_GT(trace.count(), 10u);
  EXPECT_EQ(trace.count(), recorded.result.events_executed);

  SweepConfig cfg = ok_run_config();
  TraceChecker checker(trace);
  cfg.observer = &checker;
  const SweepRun replayed = SweepRunner(cfg).execute_run(0);
  ASSERT_TRUE(replayed.ok);
  EXPECT_FALSE(checker.divergence().has_value());
  EXPECT_FALSE(checker.check_complete().has_value());
  EXPECT_EQ(checker.events_seen(), trace.count());

  EXPECT_EQ(scrubbed_record(recorded), scrubbed_record(replayed));
}

TEST(RecordReplay, RecordingIsObservational) {
  // Same run with and without the recorder attached: identical result.
  EventTrace trace;
  const SweepRun recorded = record_run0(ok_run_config(), &trace);
  const SweepRun bare = SweepRunner(ok_run_config()).execute_run(0);
  ASSERT_TRUE(recorded.ok);
  ASSERT_TRUE(bare.ok);
  EXPECT_EQ(scrubbed_record(recorded), scrubbed_record(bare));
}

/// Replay run 0 against `trace` with a per-event checker attached;
/// returns the run disposition, exposing the checker's divergence.
SweepRun checked_replay0(const EventTrace& trace,
                         std::optional<Divergence>* divergence) {
  SweepConfig cfg = ok_run_config();
  TraceChecker checker(trace);
  cfg.observer = &checker;
  SweepRun run = SweepRunner(cfg).execute_run(0);
  *divergence = checker.divergence();
  if (!*divergence) *divergence = checker.check_complete();
  return run;
}

TEST(RecordReplay, TamperedRecordsRaiseTypedDivergenceAtExactIndex) {
  EventTrace trace;
  ASSERT_TRUE(record_run0(ok_run_config(), &trace).ok);
  std::vector<TraceRecord> records = trace.decode();
  const std::uint64_t k = trace.count() / 2;

  struct Case {
    Divergence::What what;
    void (*tamper)(TraceRecord&);
  };
  const Case cases[] = {
      {Divergence::What::kDigest, [](TraceRecord& r) { r.digest ^= 0xbad; }},
      {Divergence::What::kTime, [](TraceRecord& r) { r.time_ns += 1; }},
      {Divergence::What::kSeq, [](TraceRecord& r) { r.seq += 7; }},
  };
  for (const Case& c : cases) {
    std::vector<TraceRecord> tampered = records;
    c.tamper(tampered[static_cast<std::size_t>(k)]);
    std::optional<Divergence> d;
    const SweepRun run = checked_replay0(EventTrace::from_records(tampered), &d);
    EXPECT_FALSE(run.ok);
    ASSERT_TRUE(run.failure.has_value());
    EXPECT_EQ(run.failure->kind, RunFailure::Kind::kDivergence);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->what, c.what) << Divergence::what_name(c.what);
    EXPECT_EQ(d->index, k);
    EXPECT_NE(run.failure->message.find("event #"), std::string::npos);
  }
}

TEST(RecordReplay, TraceLengthMismatchesAreTyped) {
  EventTrace trace;
  ASSERT_TRUE(record_run0(ok_run_config(), &trace).ok);
  const std::vector<TraceRecord> records = trace.decode();
  const std::uint64_t n = trace.count();

  // Truncated trace: the replay outlives it -> kExtraEvent at the cut.
  std::vector<TraceRecord> shorter(records.begin(), records.end() - 1);
  std::optional<Divergence> d;
  SweepRun run = checked_replay0(EventTrace::from_records(shorter), &d);
  EXPECT_FALSE(run.ok);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->what, Divergence::What::kExtraEvent);
  EXPECT_EQ(d->index, n - 1);

  // Extended trace: the replay ends first -> kMissingEvent, reported by
  // check_complete (the engine just stops; no event is there to mismatch).
  std::vector<TraceRecord> longer = records;
  longer.push_back({records.back().time_ns + 1000, records.back().seq + 1, 0});
  run = checked_replay0(EventTrace::from_records(longer), &d);
  EXPECT_TRUE(run.ok);  // the run itself completed fine
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->what, Divergence::What::kMissingEvent);
  EXPECT_EQ(d->index, n);
}

// ---- chaos sweeps: trace files, bundles, checked replays -----------------

/// Chaos config in the split-outcome style of test_fault.cpp: 100% timer
/// drops kill dynticks replicas on the watchdog while paratick survives,
/// so every sweep produces both failed and healthy runs.
SweepConfig chaos_sweep(unsigned threads) {
  SweepConfig cfg;
  cfg.base.machine = hw::MachineSpec::small(1);
  cfg.base.vcpus = 1;
  cfg.base.max_duration = sim::SimTime::ms(200);
  cfg.base.setup = [](guest::GuestKernel& k) {
    workload::PureComputeSpec spec;
    spec.total_cycles = 100'000'000;  // ~50 ms at 2 GHz
    spec.chunks = 100;
    workload::install_pure_compute(k, spec);
  };
  cfg.modes = {guest::TickMode::kDynticksIdle, guest::TickMode::kParatick};
  cfg.repeat = 2;
  cfg.root_seed = 321;
  cfg.threads = threads;
  cfg.fault.timer_drop_prob = 1.0;
  cfg.bench_name = "rrtest";
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "paratick_rr_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(RecordReplay, ChaosSweepWritesTracesNextToBundles) {
  SweepConfig cfg = chaos_sweep(1);
  cfg.record_trace = true;
  cfg.failure_dir = fresh_dir("chaos_traces");
  const SweepResult res = SweepRunner(cfg).run();

  const auto failed = res.failed_runs();
  ASSERT_GE(failed.size(), 2u);  // both dynticks replicas die on the watchdog
  for (const SweepRun* run : failed) {
    ASSERT_FALSE(run->bundle_path.empty());
    ASSERT_FALSE(run->trace_path.empty());
    EXPECT_TRUE(std::filesystem::exists(run->trace_path)) << run->trace_path;
    // Canonical layout: trace sits next to the bundle as run<idx>.trace.
    EXPECT_NE(run->trace_path.find(
                  "rrtest/run" + std::to_string(run->run_index) + ".trace"),
              std::string::npos);

    // The bundle references its trace, and the checked replay reproduces
    // the watchdog failure with every recorded event matching.
    const ReplayBundle bundle = load_replay_bundle(run->bundle_path);
    EXPECT_EQ(bundle.run.trace_path, run->trace_path);
    const EventTrace trace = load_trace_file(bundle.run.trace_path);
    EXPECT_GT(trace.count(), 0u);

    const ReplayCheckResult checked = check_replay(chaos_sweep(1), bundle, trace);
    EXPECT_FALSE(checked.divergence.has_value());
    EXPECT_EQ(checked.events_checked, trace.count());
    std::string detail;
    EXPECT_TRUE(reproduces(bundle, checked.run, &detail)) << detail;
  }
  // Healthy runs never write traces — only failures are worth archiving.
  for (const auto& run : res.runs) {
    if (run.ok) {
      EXPECT_TRUE(run.trace_path.empty());
    }
  }
}

TEST(RecordReplay, CheckReplayPinsInjectedDivergenceToTheExactEvent) {
  SweepConfig cfg = chaos_sweep(1);
  cfg.record_trace = true;
  cfg.failure_dir = fresh_dir("pin");
  const SweepResult res = SweepRunner(cfg).run();
  const auto failed = res.failed_runs();
  ASSERT_FALSE(failed.empty());
  const ReplayBundle bundle = load_replay_bundle(failed.front()->bundle_path);
  const EventTrace trace = load_trace_file(bundle.run.trace_path);
  ASSERT_GT(trace.count(), 8u);

  // Intact trace: every event matches.
  ReplayCheckResult checked = check_replay(chaos_sweep(1), bundle, trace);
  EXPECT_FALSE(checked.divergence.has_value());
  EXPECT_EQ(checked.events_checked, trace.count());

  // Inject a single-event divergence mid-trace: the one checked pass
  // stops at exactly that event and fails the run as a divergence.
  std::vector<TraceRecord> tampered = trace.decode();
  const std::uint64_t k = trace.count() / 2;
  tampered[static_cast<std::size_t>(k)].digest ^= 0x5a5a5a5a;
  checked = check_replay(chaos_sweep(1), bundle,
                         EventTrace::from_records(tampered));
  ASSERT_TRUE(checked.divergence.has_value());
  EXPECT_EQ(checked.divergence->what, Divergence::What::kDigest);
  EXPECT_EQ(checked.divergence->index, k);
  EXPECT_EQ(checked.events_checked, k + 1);
  ASSERT_TRUE(checked.run.failure.has_value());
  EXPECT_EQ(checked.run.failure->kind, RunFailure::Kind::kDivergence);
}

TEST(RecordReplay, FaultKnobChangeDivergesFromTheRecordedTrace) {
  // The bench_replay --fault-<knob> story: mutate the bundle's fault
  // identity and the replay legitimately stops matching its trace.
  SweepConfig cfg = chaos_sweep(1);
  cfg.record_trace = true;
  cfg.failure_dir = fresh_dir("knob_change");
  const SweepResult res = SweepRunner(cfg).run();
  const auto failed = res.failed_runs();
  ASSERT_FALSE(failed.empty());
  ReplayBundle bundle = load_replay_bundle(failed.front()->bundle_path);
  const EventTrace trace = load_trace_file(bundle.run.trace_path);

  bundle.fault.timer_drop_prob = 0.0;  // the watchdog kill switch, off
  const ReplayCheckResult checked = check_replay(chaos_sweep(1), bundle, trace);
  ASSERT_TRUE(checked.divergence.has_value());
  EXPECT_LT(checked.divergence->index, trace.count());
}

/// A well-formed bundle for run `idx` of chaos_sweep: the documents the
/// parser tests below mutate.
ReplayBundle chaos_bundle(std::size_t idx) {
  const SweepConfig cfg = chaos_sweep(1);
  ReplayBundle bundle;
  bundle.plan = plan_info_for(cfg);
  bundle.scenario = "tick-loss";
  bundle.fault.timer_drop_prob = 1.0;
  bundle.run.run_index = idx;
  bundle.run.cell = idx / 2;
  bundle.run.replica = static_cast<int>(idx % 2);
  bundle.run.seed = derive_seed(cfg.root_seed, idx);
  bundle.run.executed = true;
  bundle.run.failure = RunFailure{};
  bundle.run.failure->kind = RunFailure::Kind::kWatchdog;
  bundle.run.failure->expr = "timer-liveness";
  bundle.run.failure->message = "guest timer deadline still armed";
  bundle.run.failure->sim_time_ns = 10'000'000;
  bundle.run.failure->events_executed = 32;
  bundle.run.trace_path = "failures/rrtest/run1.trace";
  return bundle;
}

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

// A bundle is input from outside the program. "crash" was the failure
// kind of a run lost with a forked worker; no sweep records it any more,
// so such a bundle is refused cleanly, naming the kind.
TEST(RecordReplay, CrashBundleIsRefusedNamingTheKind) {
  const std::string text = to_json(chaos_bundle(1));
  EXPECT_SIM_ERROR((void)parse_replay_bundle(replaced(
                       text, "\"failure\": {\"kind\": \"watchdog\"",
                       "\"failure\": {\"kind\": \"crash\"")),
                   "unknown failure kind: crash");
}

// Seeds travel as decimal strings; trailing junk must fail naming the
// field instead of replaying the digits before it.
TEST(RecordReplay, MalformedBundleSeedNamesTheField) {
  ReplayBundle bundle = chaos_bundle(1);
  bundle.run.seed = 4242;
  const std::string text = to_json(bundle);
  EXPECT_EQ(parse_replay_bundle(text).run.seed, 4242u);
  EXPECT_SIM_ERROR(
      (void)parse_replay_bundle(replaced(text, "\"seed\": \"4242\"",
                                         "\"seed\": \"42z42\"")),
      "seed: not a valid integer");
}

// A negative run index used to wrap to 2^64 - 1 and replay nothing
// useful; it must fail naming the field.
TEST(RecordReplay, NegativeRunIndexNamesTheField) {
  const std::string text = to_json(chaos_bundle(3));
  EXPECT_SIM_ERROR((void)parse_replay_bundle(replaced(text, "\"run_index\": 3",
                                                      "\"run_index\": -1")),
                   "field \"run_index\"");
}

// The bundle's run is read against its own plan: an index or a cell the
// plan does not have is a SimError, never an out-of-range cell lookup.
TEST(RecordReplay, BundleRunOutsideItsPlanIsRejected) {
  const std::string text = to_json(chaos_bundle(3));
  EXPECT_SIM_ERROR((void)parse_replay_bundle(replaced(text, "\"run_index\": 3",
                                                      "\"run_index\": 4")),
                   "run 4 (cell 1) lies outside the plan (4 runs, 2 cells)");
  EXPECT_SIM_ERROR((void)parse_replay_bundle(replaced(text, "\"cell\": 1",
                                                      "\"cell\": 2")),
                   "lies outside the plan");
  // A healthy run is no bundle.
  ReplayBundle healthy = chaos_bundle(3);
  healthy.run.failure.reset();
  EXPECT_SIM_ERROR((void)parse_replay_bundle(to_json(healthy)),
                   "the run carries no failure");
}

TEST(RecordReplay, TraceBytesIdenticalAcrossThreadCounts) {
  // The determinism contract extends to traces: any -j, byte-identical
  // trace files per run index.
  const auto sweep = [](unsigned threads, const char* name) {
    SweepConfig cfg = chaos_sweep(threads);
    cfg.record_trace = true;
    cfg.failure_dir = fresh_dir(std::string("bytes_") + name);
    return SweepRunner(cfg).run();
  };
  const SweepResult j1 = sweep(1, "j1");
  const SweepResult j4 = sweep(4, "j4");
  const auto baseline = j1.failed_runs();
  const auto other = j4.failed_runs();
  ASSERT_GE(baseline.size(), 2u);
  ASSERT_EQ(other.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i]->run_index, other[i]->run_index);
    ASSERT_FALSE(other[i]->trace_path.empty());
    EXPECT_EQ(slurp(baseline[i]->trace_path), slurp(other[i]->trace_path))
        << "run " << other[i]->run_index;
  }
}

TEST(RecordReplay, RecordingLeavesSweepExportsByteIdentical) {
  const SweepResult bare = SweepRunner(chaos_sweep(2)).run();

  SweepConfig cfg = chaos_sweep(2);
  cfg.record_trace = true;
  cfg.failure_dir = fresh_dir("observational");
  const SweepResult recorded = SweepRunner(cfg).run();

  EXPECT_EQ(bare.to_csv(), recorded.to_csv());
  EXPECT_EQ(bare.to_json(), recorded.to_json());
  ASSERT_EQ(bare.runs.size(), recorded.runs.size());
  for (std::size_t i = 0; i < bare.runs.size(); ++i) {
    SweepRun a = bare.runs[i];
    SweepRun b = recorded.runs[i];
    // Artifact paths differ by design (bare wrote none); everything that
    // feeds results must not.
    a.bundle_path.clear();
    b.bundle_path.clear();
    b.trace_path.clear();
    EXPECT_EQ(scrubbed_record(a), scrubbed_record(b)) << "run " << i;
  }
}


// ---- sweep schema: plan headers and run records ------------------------

/// Two variants x two modes, no faults: the grid the schema tests read
/// plan headers and run records against.
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

SweepRun parse_record(const std::string& text, const SweepConfig& cfg) {
  return parse_run_record(json::parse(text), plan_info_for(cfg));
}

TEST(SweepSchema, PlanHeaderRoundTripsAndDetectsSkew) {
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

// Numeric integer fields must be integral and in range: 2.5 replicas is a
// corrupt record, not replica 2.
TEST(SweepSchema, FractionalIntegerFieldNamesTheField) {
  SweepRun run;
  run.replica = 0;
  const std::string bad = replaced(run_record_to_json(run), "\"replica\": 0",
                                   "\"replica\": 2.5");
  EXPECT_SIM_ERROR((void)parse_record(bad, tiny_sweep()), "field \"replica\"");
}

// u64 fields travel as decimal strings; trailing junk must fail naming the
// field instead of parsing the digits before it (or 0 for pure garbage).
TEST(SweepSchema, MalformedU64StringsNameTheField) {
  SweepRun run;
  run.run_index = 3;
  run.seed = 12345;
  run.executed = true;
  run.ok = true;
  const std::string record = run_record_to_json(run);
  EXPECT_EQ(parse_record(record, tiny_sweep()).seed, 12345u);
  EXPECT_SIM_ERROR(
      (void)parse_record(replaced(record, "\"seed\": \"12345\"",
                                  "\"seed\": \"12345x\""),
                         tiny_sweep()),
      "seed: not a valid integer");

  const std::string plan = to_json(plan_info_for(tiny_sweep()));
  EXPECT_SIM_ERROR(
      (void)parse_plan_info(json::parse(replaced(plan, "\"root_seed\": \"77\"",
                                                 "\"root_seed\": \"77x\""))),
      "root_seed: not a valid integer");
}

// A record is read against its plan: a run index or cell the plan does
// not have is a SimError, never an out-of-range slot.
TEST(SweepSchema, RecordOutsideThePlanIsRejected) {
  SweepRun run;
  run.run_index = 7;
  run.cell = 3;
  const std::string record = run_record_to_json(run);
  EXPECT_NO_THROW((void)parse_record(record, tiny_sweep()));
  EXPECT_SIM_ERROR((void)parse_record(record, tiny_sweep(1)),
                   "run 7 (cell 3) lies outside the plan (4 runs, 4 cells)");
  EXPECT_SIM_ERROR(
      (void)parse_record(replaced(record, "\"cell\": 3", "\"cell\": 4"),
                         tiny_sweep()),
      "lies outside the plan");
}

// The JSON reader behind records, plan headers, replay bundles and
// history snapshots bounds its recursion and rejects short
// \u escapes; the inf/nan tokens %.17g writes for empty accumulators
// still parse.
TEST(SweepSchema, JsonReaderBoundsNestingAndEscapes) {
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

// ---- hostile inputs ------------------------------------------------------

struct FuzzFormat {
  const char* name;
  std::string seed;
  std::function<void(const std::string&)> parse;
};

/// Deterministic mutation fuzz: 3000 byte-flipped, truncated or spliced
/// variants of each format's seed document must parse or throw SimError.
/// Any other exception fails here; UB or a crash fails the sanitizer
/// build. Returns how many inputs of each format parsed.
std::vector<std::size_t> fuzz_parsers(const std::vector<FuzzFormat>& formats,
                                      std::uint64_t rng_seed) {
  std::mt19937_64 rng(rng_seed);  // fixed: the same inputs on every run
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  constexpr int kInputsPerFormat = 3000;
  std::vector<std::size_t> parsed;
  for (const FuzzFormat& f : formats) {
    // The seed itself must parse: a fuzz over inputs that all fail to
    // parse checks nothing.
    EXPECT_NO_THROW(f.parse(f.seed)) << f.name;
    std::size_t n = 0;
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
        ++n;
      } catch (const sim::SimError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << f.name << " input " << i << " threw " << e.what();
      } catch (...) {
        ADD_FAILURE() << f.name << " input " << i << " threw a non-exception";
      }
    }
    parsed.push_back(n);
  }
  return parsed;
}

// Every mutation of a trace file or a replay bundle either parses or
// throws SimError: no other exception, no crash, no sanitizer report.
TEST(RecordReplayFuzz, TraceAndBundleParseOrThrowSimError) {
  EventTrace trace;
  for (std::uint32_t i = 0; i < 48; ++i) {
    // Mixed deltas: zero and large time steps, seqs out of order.
    trace.append(1000 * static_cast<std::int64_t>(i * i), (i * 7) % 53,
                 i * 2654435761u);
  }
  const std::vector<std::size_t> parsed = fuzz_parsers(
      {
          {"trace", trace.serialize(),
           [](const std::string& s) { (void)EventTrace::deserialize(s).decode(); }},
          // The same file with its stream-size field patched to fit, so
          // truncations and splices reach the varint decoder.
          {"trace+size", trace.serialize(),
           [](std::string s) {
             if (s.size() >= 32) set_u64le(s, 24, s.size() - 32);
             (void)EventTrace::deserialize(s).decode();
           }},
          {"bundle", to_json(chaos_bundle(1)),
           [](const std::string& s) { (void)parse_replay_bundle(s); }},
      },
      0x7eace);
  // Bundle mutations that land in string contents still parse. A trace
  // mutation nearly always breaks the chain digest, so few or none do.
  EXPECT_GT(parsed[2], 0u);
}

// The same for the two sweep-schema documents a bundle is built from: the
// plan header and a run record carrying a full RunResult.
TEST(SweepSchemaFuzz, PlanAndRecordParseOrThrowSimError) {
  const SweepConfig cfg = tiny_sweep(1);
  const SweepRun storm = SweepRunner(cfg).execute_run(2);
  const PlanInfo plan = plan_info_for(cfg);
  const std::vector<std::size_t> parsed = fuzz_parsers(
      {
          {"plan", to_json(plan),
           [](const std::string& s) { (void)parse_plan_info(json::parse(s)); }},
          {"record", run_record_to_json(storm),
           [plan](const std::string& s) {
             (void)parse_run_record(json::parse(s), plan);
           }},
      },
      0x5eed);
  // Some mutations land in string contents or whitespace and still
  // parse; none at all would mean the seed is rejected outright.
  for (std::size_t n : parsed) EXPECT_GT(n, 0u);
}

}  // namespace
}  // namespace paratick::core::record_replay

// The paratick performance benchmark: three named workloads driven
// through the public sweep API (core::SweepRunner), timed layer by layer
// from outside.
//
// Every run goes through a timing scenario factory (ScenarioSpec::run)
// that does exactly what System::run() does — make_system_spec, the
// System constructor, power_on(), engine().run_until(max_duration),
// finish() — with a steady-clock stamp and an allocation-counter read
// around each call and around the VmSpec::setup workload install. The
// cluster workload stamps the core::Cluster constructor and run().
// Nothing the simulation computes depends on the stamps, so the sweep
// exports stay byte-identical to the plain benches.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.hpp"

namespace perfbench {

namespace core = paratick::core;
namespace sim = paratick::sim;

enum class Workload : std::uint8_t { kParsecMt, kTimerIo, kClusterOc };

inline constexpr std::array<Workload, 3> kWorkloads = {
    Workload::kParsecMt, Workload::kTimerIo, Workload::kClusterOc};

[[nodiscard]] const char* name(Workload w);
[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);

/// What one engine event did to the hypervisor, judged by which per-cause
/// exit counters it moved. Order is priority: an event that caused exits
/// of several classes counts as the first one.
enum class EventClass : std::uint8_t {
  kTimerExit = 0,
  kHaltExit,
  kIoExit,
  kIpiExit,
  kOtherExit,
  kNoExit,
  kCount,
};
inline constexpr std::size_t kEventClassCount =
    static_cast<std::size_t>(EventClass::kCount);
[[nodiscard]] const char* name(EventClass c);

/// Per-class event counts and host nanoseconds from the traced pass.
struct EventTotals {
  std::array<std::uint64_t, kEventClassCount> events{};
  std::array<std::uint64_t, kEventClassCount> ns{};

  void merge(const EventTotals& o);
};

/// One Chrome trace-event "complete" span (ph "X").
struct Span {
  std::string name;
  std::string cat;
  std::uint64_t start_ns = 0;  // steady clock
  std::uint64_t dur_ns = 0;
  int tid = 0;
  std::string run;  // run label, empty for sampled event spans
};

/// Collects spans from every run of a traced pass; written once at the end
/// as Chrome trace-event JSON (Perfetto / chrome://tracing open it).
class TraceSink {
 public:
  /// Sampled event spans beyond this many are dropped; phase spans never.
  static constexpr std::size_t kMaxSpans = 200'000;

  void add(std::vector<Span> spans);
  /// Serialize as {"traceEvents": [...]} with times relative to the
  /// earliest span, in microseconds.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Layer totals of one pass, summed over its runs.
struct LayerTotals {
  double construct_s = 0.0;  // System/Cluster constructor minus install
  double install_s = 0.0;    // VmSpec::setup / ClusterSpec::workload
  double power_on_s = 0.0;   // System::power_on (inside Cluster::run for clusters)
  double run_s = 0.0;        // engine run_until (Cluster::run for clusters)
  double collect_s = 0.0;    // System::finish (inside Cluster::run for clusters)
  std::uint64_t construct_allocs = 0;  // constructor + install + power_on
  std::uint64_t run_allocs = 0;
  std::uint64_t collect_allocs = 0;
  // Parallel engine (cluster_oc only).
  double par_run_s = 0.0;
  std::uint64_t par_windows = 0;
  std::uint64_t par_windows_skipped = 0;
  std::uint64_t par_barriers_elided = 0;
  std::uint64_t par_cross_messages = 0;
  std::uint64_t par_events = 0;
  // Cluster layer (cluster_oc only).
  std::uint64_t migrations = 0;
  std::uint64_t rebalance_rounds = 0;
  // Traced pass only.
  EventTotals events;

  /// The end-to-end set-up time: constructors, installs and power-on.
  [[nodiscard]] double setup_s() const { return construct_s + install_s + power_on_s; }
  void merge(const LayerTotals& o);
};

/// Everything one pass over a workload measured.
struct PassResult {
  std::vector<std::pair<std::string, core::SweepResult>> sweeps;
  LayerTotals layers;
  double wall_s = 0.0;    // planning -> every simulation -> aggregation -> export
  double cpu_s = 0.0;     // process CPU time over the pass
  double export_s = 0.0;  // to_csv + to_json of every sweep
  std::uint64_t allocs = 0;  // operator new calls over the pass, all threads
  std::size_t runs = 0;
  std::size_t runs_failed = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, std::string> csv;  // sweep name -> to_csv()
};

/// Run every sweep of `w` once with root seed `seed`. `sink` non-null makes
/// it the traced pass. `engine_threads` is cluster_oc's parallel-engine
/// thread count; results are identical for any value. The benchmark uses 1:
/// every partition still runs in barrier windows with lookahead and
/// cross-partition messages, and only the thread-pool hand-off per window
/// is left out. With 2, each ~0.15 ms window waits on a second thread, so
/// the run time follows how often a shared host preempts either of them.
[[nodiscard]] PassResult run_pass(Workload w, std::uint64_t seed, TraceSink* sink,
                                  unsigned engine_threads = 1);

// ---- Output checks (each returns one message per violation) ----

/// True when two cells differ at most in tick mode.
[[nodiscard]] bool same_cell_but_mode(const core::SweepCellKey& a,
                                      const core::SweepCellKey& b);

/// §4.2: paratick never takes more timer exits than dynticks, for every
/// pair of cells that differ only in tick mode.
[[nodiscard]] std::vector<std::string> check_paratick_guarantee(
    const core::SweepResult& res);

/// Table 1: periodic W1/W2 guest timer exits are exactly 40000/160000 —
/// the paper's formula. Host scheduler ticks that land on a running guest
/// are timer exits too, but whether they hit depends on the host seed
/// (W2 at 4x overcommit takes 2499 of them at root seed 9, none at the
/// paper's 1234), so they are left out of the comparison.
[[nodiscard]] std::vector<std::string> check_table1_periodic(
    const core::SweepResult& res);

/// Every run executed and succeeded.
[[nodiscard]] std::vector<std::string> check_runs_ok(const core::SweepResult& res);

/// Digest, chained from `seed`, of every run's deterministic RunResult
/// fields (all except engine_wall_ns) in run-index order, plus each
/// cluster run's ParallelEngine state digest looked up by run seed.
[[nodiscard]] std::uint64_t digest_runs(
    const core::SweepResult& res,
    const std::map<std::uint64_t, std::uint64_t>& cluster_digests,
    std::uint64_t seed);

}  // namespace perfbench

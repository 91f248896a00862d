// Conservative-quantum parallel driver for a set of partitioned Engines
// (the parti-gem5 direction from PAPERS.md).
//
// Each partition owns a private sim::Engine — its events never touch
// another partition's state — and partitions interact only through
// cross-partition sends carried over *declared links* with a minimum
// latency. Within one window every partition can safely execute its
// local events in parallel, because any message another partition emits
// during the window is delivered no earlier than the receiver's bound.
// At the window's end all workers rendezvous at a barrier, buffered
// sends are committed into per-partition inboxes in a deterministic
// global order, and the next window begins.
//
// Two lookahead modes pick the per-window execution bound:
//
//   kGlobal    every partition runs to `start + L`, where L is the
//              minimum latency over ALL declared links — the classic
//              conservative quantum. One tight link collapses every
//              partition to tiny windows.
//   kTopology  CMB-style per-partition safe horizon: partition P runs to
//              `min over incoming links (src floor + link latency)`,
//              where a partition's *floor* is its earliest committed
//              pending work (local queue or undelivered inbox message).
//              Partitions behind a slow link — or with no inbound links
//              at all — cover many global quanta per barrier
//              (at most kMaxHorizonWindows).
//
// Sparse barriers: window starts always jump directly to the earliest
// committed work anywhere, so globally-dead stretches cost zero barriers
// in either mode (counted in `windows_skipped`).
//
// Determinism: each partition engine is deterministic on its own; the
// barrier sorts messages by (delivery time, source partition, per-source
// send seq) into the destination's inbox, and the destination *injects*
// each message into its engine exactly when its own execution first
// reaches the delivery time — a time-canonical point that does not
// depend on which window delivered the message. Each partition's event
// stream (time, seq, state digest after every event) — and with it the
// stream merged by (time, partition, seq) and every counter derived from
// them — is therefore bit-identical for ANY worker-thread count AND both
// lookahead modes, which is what the engine-threads/lookahead-mode CI
// gates compare. Only the window/barrier counters (quanta, windows_skipped,
// barriers_elided, horizon_max_ns) depend on the mode.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace paratick::core {
class ThreadPool;
}  // namespace paratick::core

namespace paratick::sim {

using PartitionId = std::uint32_t;

/// How the per-window execution bound is derived from the declared links.
enum class LookaheadMode : std::uint8_t {
  kGlobal,    ///< every partition bounded by the global minimum latency
  kTopology,  ///< per-partition bound from incoming links (CMB-style)
};

[[nodiscard]] const char* to_string(LookaheadMode mode);

/// Deterministic self-profile of one ParallelEngine run. Everything except
/// wall_ns is a pure function of the workload and the lookahead mode, and
/// identical for any worker-thread count; wall_ns is host wall-clock and
/// reporting-only. The window counters (quanta, idle_skips,
/// windows_skipped, barriers_elided, horizon_max_ns) depend on the
/// lookahead mode — exports that must stay byte-identical across modes
/// carry only the other fields.
struct ParallelProfile {
  std::uint64_t partitions = 0;
  /// Barrier-delimited quantum windows executed.
  std::uint64_t quanta = 0;
  /// Windows whose start jumped forward over globally-dead time.
  std::uint64_t idle_skips = 0;
  /// Empty global-quantum windows those jumps skipped (dead time / L).
  std::uint64_t windows_skipped = 0;
  /// Extra global-quantum windows runnable partitions covered past
  /// `start + L` without a rendezvous (kTopology horizons; 0 in kGlobal).
  std::uint64_t barriers_elided = 0;
  /// Largest single-window horizon advance (bound - start) in ns.
  std::uint64_t horizon_max_ns = 0;
  /// Cross-partition messages committed at barriers.
  std::uint64_t cross_messages = 0;
  /// Events executed across all partitions.
  std::uint64_t events_committed = 0;
  /// Host nanoseconds inside run()/run_until(). Not deterministic.
  std::uint64_t wall_ns = 0;
  /// Partition EngineProfiles summed field-by-field (wall_ns excluded —
  /// concurrent partitions overlap, so a sum would double-count).
  EngineProfile merged;
};

class ParallelEngine {
 public:
  /// `threads == 1` runs every window inline on the calling thread (the
  /// reference order); `threads > 1` runs windows on a core::ThreadPool.
  /// `threads == 0` means hardware_concurrency.
  explicit ParallelEngine(unsigned threads = 1);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Register `engine` as a partition. Non-owning: the engine must outlive
  /// this ParallelEngine, and from now on only this driver (or code running
  /// inside its events) may touch it — its events are executed on worker
  /// threads. Partitions must be added before the first run.
  PartitionId add_partition(Engine& engine, std::string name = {});

  /// Declare that messages from `src` to `dst` take at least `min_latency`
  /// to arrive. send() on an undeclared pair is an error; the minimum over
  /// all declared links is the global lookahead, and in kTopology mode
  /// each partition's horizon comes from its own incoming links.
  void declare_link(PartitionId src, PartitionId dst, SimTime min_latency);

  /// Declare every ordered pair of distinct partitions at `min_latency` —
  /// a shared fabric (virtio completions, scheduler wake IPIs).
  void declare_full_mesh(SimTime min_latency);

  /// Send `fn` to fire in `dst` at src.now() + delay. Must be called from
  /// an event executing in `src` (or before the run starts), never from
  /// another partition's thread: the message is buffered in src's private
  /// outbox and committed at the next barrier. `delay` must be at least
  /// the declared src->dst link latency — that floor is what makes the
  /// lookahead window safe.
  void send(PartitionId src, PartitionId dst, SimTime delay,
            Engine::Callback fn);

  /// Run quantum windows until every partition is idle and no message is
  /// in flight. A SimError thrown inside a partition propagates after the
  /// window's barrier; when several partitions fail in one window, the
  /// lowest partition id wins (deterministic at any thread count).
  void run();

  /// Run until `deadline`; events stamped exactly at `deadline` execute,
  /// and every partition clock ends at exactly `deadline` (like
  /// Engine::run_until on each partition). Messages still in flight past
  /// the deadline are flushed into their destination queues in commit
  /// order, so a follow-up drive resumes from identical state.
  void run_until(SimTime deadline);

  /// Select how window bounds are derived (default kGlobal). May be
  /// changed between runs, never during one. Every partition's event
  /// stream is identical in both modes; only window/barrier counters
  /// differ.
  void set_lookahead_mode(LookaheadMode mode);
  [[nodiscard]] LookaheadMode lookahead_mode() const { return mode_; }

  [[nodiscard]] std::size_t partition_count() const { return parts_.size(); }
  [[nodiscard]] Engine& engine(PartitionId p) { return *parts_[p].engine; }
  [[nodiscard]] const std::string& name(PartitionId p) const {
    return parts_[p].name;
  }
  [[nodiscard]] unsigned threads() const { return threads_; }
  /// Global lookahead derived from the declared links (nullopt: none
  /// declared — partitions are fully independent and run to completion in
  /// one window).
  [[nodiscard]] std::optional<SimTime> lookahead() const;

  [[nodiscard]] ParallelProfile profile() const;

  /// Digest of the deterministic whole-run state: partition digests folded
  /// in partition order plus the cross-message total. Bit-identical across
  /// runs of the same workload at any thread count and either lookahead
  /// mode (window counters are deliberately excluded).
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  /// A kTopology horizon reaches at most this many global quanta past the
  /// window start: bounds barrier-buffer growth when a partition has slow
  /// or no inbound links. Ignored in kGlobal. Results never depend on it.
  static constexpr std::int64_t kMaxHorizonWindows = 64;

  struct CrossMessage {
    SimTime deliver_at;
    PartitionId src = 0;
    PartitionId dst = 0;
    std::uint64_t src_seq = 0;  // per-source send order (commit tiebreak)
    Engine::Callback fn;
  };

  struct Partition {
    Engine* engine = nullptr;
    std::string name;
    std::vector<CrossMessage> outbox;  // touched only by this partition
    /// Committed-but-undelivered messages, sorted (deliver_at, src,
    /// src_seq); entries before inbox_pos were already injected. Appended
    /// at barriers, consumed inside this partition's window task.
    std::vector<CrossMessage> inbox;
    std::size_t inbox_pos = 0;
    std::uint64_t send_seq = 0;
    SimTime window_bound;      // this window's execution bound
    bool runnable = false;     // has committed work before window_bound
    std::exception_ptr error;  // first failure inside a window
  };

  struct Link {
    PartitionId src = 0;
    PartitionId dst = 0;
    SimTime min_latency;
  };

  void drive(std::optional<SimTime> deadline);
  /// Barrier ingest: move every outbox into the destination inboxes in
  /// deterministic order and rethrow the lowest-partition error.
  void ingest_outboxes();
  /// Earliest committed pending work of partition `p` (local queue or
  /// undelivered inbox message); nullopt when fully idle.
  [[nodiscard]] std::optional<SimTime> floor_of(const Partition& p) const;
  /// Run one partition's window: execute local events and inject inbox
  /// messages at their exact delivery times, up to the partition's bound.
  static void run_partition_window(Partition& p);
  void execute_window();
  /// Inject every undelivered message into its destination queue (drive
  /// teardown: the remaining messages deliver past the deadline).
  void flush_inboxes();
  [[nodiscard]] std::optional<SimTime> link_latency(PartitionId src,
                                                    PartitionId dst) const;

  std::vector<Partition> parts_;
  std::vector<Link> links_;
  /// links_ indices grouped by destination (built lazily per drive).
  std::vector<std::vector<std::uint32_t>> incoming_;
  unsigned threads_ = 1;
  LookaheadMode mode_ = LookaheadMode::kGlobal;
  std::unique_ptr<core::ThreadPool> pool_;
  bool running_ = false;
  std::uint64_t quanta_ = 0;
  std::uint64_t idle_skips_ = 0;
  std::uint64_t windows_skipped_ = 0;
  std::uint64_t barriers_elided_ = 0;
  std::uint64_t horizon_max_ns_ = 0;
  std::uint64_t cross_messages_ = 0;
  std::uint64_t wall_ns_ = 0;
};

}  // namespace paratick::sim

// Conservative-quantum driver for a set of partitioned Engines (the
// parti-gem5 direction from PAPERS.md), run on the calling thread.
//
// Each partition owns a private sim::Engine — its events never touch
// another partition's state — and partitions interact only through
// cross-partition sends carried over *declared links* with a minimum
// latency. Within one window every partition can safely execute its
// local events up to its own bound, because any message another
// partition emits during the window is delivered no earlier than that
// bound. Partitions run their windows one after another in partition id
// order; at the window's end the buffered sends are committed into
// per-partition inboxes in a deterministic global order, and the next
// window begins.
//
// Window rule: a CMB-style per-partition safe horizon. Partition P runs
// to `min over incoming links (src floor + link latency)`, where a
// partition's *floor* is its earliest committed pending work (local queue
// or undelivered inbox message), closed over multi-hop paths. The
// horizon is never shorter than the global quantum `start + L` (L = the
// minimum latency over ALL declared links), so one tight link bounds only
// the partitions it points at; partitions behind a slow link, or with no
// inbound links at all, cover many global quanta per barrier (at most
// kMaxHorizonWindows).
//
// Sparse barriers: window starts always jump directly to the earliest
// committed work anywhere, so globally-dead stretches cost zero barriers
// (counted in `windows_skipped`).
//
// Determinism: each partition engine is deterministic on its own; the
// barrier sorts messages by (delivery time, source partition, per-source
// send seq) into the destination's inbox, and the destination *injects*
// each message into its engine exactly when its own execution first
// reaches the delivery time. Within one run() or run_until() drive that
// injection point does not depend on which window delivered the message,
// so each partition's event stream (time, seq, state digest after every
// event) does not depend on how far any window reached. A run_until()
// boundary is different: it parks every in-flight message in its
// destination queue (flush_inboxes), where it takes the next schedule
// seq at once instead of at its delivery time, so slicing a run at other
// deadlines can number events differently. core::Cluster always slices
// at its rebalance barriers, so its results are a pure function of its
// spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/types.hpp"

namespace paratick::sim {

using PartitionId = std::uint32_t;

/// Deterministic self-profile of one ParallelEngine run. Everything except
/// wall_ns is a pure function of the workload, the declared links and the
/// run_until() deadlines; wall_ns is host wall-clock and reporting-only.
struct ParallelProfile {
  std::uint64_t partitions = 0;
  /// Barrier-delimited quantum windows executed.
  std::uint64_t quanta = 0;
  /// Windows whose start jumped forward over globally-dead time.
  std::uint64_t idle_skips = 0;
  /// Empty global-quantum windows those jumps skipped (dead time / L).
  std::uint64_t windows_skipped = 0;
  /// Extra global-quantum windows runnable partitions covered past
  /// `start + L` without a rendezvous.
  std::uint64_t barriers_elided = 0;
  /// Largest single-window horizon advance (bound - start) in ns.
  std::uint64_t horizon_max_ns = 0;
  /// Cross-partition messages committed at barriers.
  std::uint64_t cross_messages = 0;
  /// Events executed across all partitions.
  std::uint64_t events_committed = 0;
  /// Host nanoseconds inside run()/run_until(). Not deterministic.
  std::uint64_t wall_ns = 0;
  /// Partition EngineProfiles summed field-by-field (wall_ns excluded:
  /// the driver's own wall_ns above covers them).
  EngineProfile merged;
};

class ParallelEngine {
 public:
  ParallelEngine() = default;
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Register `engine` as a partition. Non-owning: the engine must outlive
  /// this ParallelEngine, and from now on only this driver (or code running
  /// inside its events) may touch it. Partitions must be added before the
  /// first run.
  PartitionId add_partition(Engine& engine, std::string name = {});

  /// Declare that messages from `src` to `dst` take at least `min_latency`
  /// to arrive. send() on an undeclared pair is an error; the minimum over
  /// all declared links is the global lookahead, and each partition's
  /// horizon comes from its own incoming links.
  void declare_link(PartitionId src, PartitionId dst, SimTime min_latency);

  /// Declare every ordered pair of distinct partitions at `min_latency` —
  /// a shared fabric (virtio completions, scheduler wake IPIs).
  void declare_full_mesh(SimTime min_latency);

  /// Send `fn` to fire in `dst` at src.now() + delay. Must be called from
  /// an event executing in `src` (or before the run starts): the message
  /// is buffered in the outbox and committed at the next barrier. `delay`
  /// must be at least the declared src->dst link latency — that floor is
  /// what makes the lookahead window safe.
  void send(PartitionId src, PartitionId dst, SimTime delay,
            Engine::Callback fn);

  /// Run quantum windows until every partition is idle and no message is
  /// in flight. A SimError thrown inside a partition propagates at once:
  /// partitions run in id order, so when several would fail in one
  /// window, the lowest partition id's error is the one raised.
  void run();

  /// Run until `deadline`; events stamped exactly at `deadline` execute,
  /// and every partition clock ends at exactly `deadline` (like
  /// Engine::run_until on each partition). Messages still in flight past
  /// the deadline are parked in their destination queues in commit order.
  /// Parking schedules them now, not at their delivery times, so the
  /// events a follow-up drive runs keep their times but may take other
  /// seqs than one longer drive would give them (see the file comment).
  void run_until(SimTime deadline);

  [[nodiscard]] std::size_t partition_count() const { return parts_.size(); }
  [[nodiscard]] Engine& engine(PartitionId p) { return *parts_[p].engine; }
  [[nodiscard]] const std::string& name(PartitionId p) const {
    return parts_[p].name;
  }
  /// Global lookahead derived from the declared links: the quantum that
  /// windows_skipped and barriers_elided count in (nullopt: none declared
  /// — partitions are fully independent and run to completion in one
  /// window).
  [[nodiscard]] std::optional<SimTime> lookahead() const;

  [[nodiscard]] ParallelProfile profile() const;

  /// Digest of the deterministic whole-run state: partition digests folded
  /// in partition order plus the cross-message total. Bit-identical across
  /// runs of the same workload driven at the same deadlines (window
  /// counters are deliberately excluded).
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  /// A horizon reaches at most this many global quanta past the window
  /// start: bounds barrier-buffer growth when a partition has slow or no
  /// inbound links. Results never depend on it.
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
    /// Committed-but-undelivered messages, sorted (deliver_at, src,
    /// src_seq); entries before inbox_pos were already injected. Appended
    /// at barriers, consumed inside this partition's window.
    std::vector<CrossMessage> inbox;
    std::size_t inbox_pos = 0;
    std::uint64_t send_seq = 0;
    SimTime window_bound;   // this window's execution bound
    bool runnable = false;  // has committed work before window_bound
  };

  struct Link {
    PartitionId src = 0;
    PartitionId dst = 0;
    SimTime min_latency;
  };

  void drive(std::optional<SimTime> deadline);
  /// Barrier ingest: move the outbox into the destination inboxes in
  /// deterministic order.
  void ingest_outbox();
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
  /// Sends buffered since the last barrier, in send order.
  std::vector<CrossMessage> outbox_;
  std::vector<Link> links_;
  /// links_ indices grouped by destination (built lazily per drive).
  std::vector<std::vector<std::uint32_t>> incoming_;
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

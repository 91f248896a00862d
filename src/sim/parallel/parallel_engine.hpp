// Conservative-lookahead execution of a set of partitioned Engines (the
// parti-gem5 direction from PAPERS.md), on the calling thread.
//
// Each partition owns a private sim::Engine — its events never touch
// another partition's state — and partitions interact only through
// cross-partition sends whose delay is at least the lookahead L, fixed
// when the ParallelEngine is built. It runs in rounds: a round starts at
// the earliest pending work anywhere, so dead time costs no rounds, and
// runs every partition in id order up to (not including) `start + L`. A
// message sent inside the round is delivered at `start + L` or later, so
// no partition can receive one in the round it was sent in.
//
// Determinism: send() puts each message straight into its destination's
// inbox, ordered by (delivery time, source partition, per-source send
// seq), and the destination injects it into its engine exactly when its
// own execution first reaches the delivery time. That point depends only
// on the committed event stream, not on where a round or a run_until()
// deadline ends: messages stay in their inboxes across drives, so one
// run() and the same run sliced at any deadlines give every partition the
// same event stream (time, seq, state digest after every event).
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
/// wall_ns is a pure function of the workload, the lookahead and the
/// run_until() deadlines; wall_ns is host wall-clock and reporting-only.
struct ParallelProfile {
  std::uint64_t partitions = 0;
  /// Rounds executed.
  std::uint64_t quanta = 0;
  /// Empty L-long rounds that round starts jumped over (dead time / L).
  std::uint64_t windows_skipped = 0;
  /// Always 0: a round ends every partition at `start + L`, so no
  /// barrier is elided. Kept only because the benchmark harness
  /// (perfbench/) names it; the next change that owns perfbench deletes it.
  std::uint64_t barriers_elided = 0;
  /// Cross-partition messages sent.
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
  /// `lookahead` is L: the round length and the least delay send()
  /// accepts. It must be positive.
  explicit ParallelEngine(SimTime lookahead);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Register `engine` as a partition. Non-owning: the engine must outlive
  /// this ParallelEngine, and from now on only this driver (or code running
  /// inside its events) may touch it. Partitions must be added before the
  /// first run.
  PartitionId add_partition(Engine& engine, std::string name = {});

  /// Send `fn` to fire in `dst` at src.now() + delay. Must be called from
  /// an event executing in `src`, or between drives. `delay` must be at
  /// least the lookahead: that floor is what makes a round safe.
  void send(PartitionId src, PartitionId dst, SimTime delay,
            Engine::Callback fn);

  /// Run rounds until every partition is idle and no message is in
  /// flight. A SimError thrown inside a partition propagates at once:
  /// partitions run in id order, so when several would fail in one round,
  /// the lowest partition id's error is the one raised.
  void run();

  /// Run until `deadline`; events stamped exactly at `deadline` execute,
  /// and every partition clock ends at exactly `deadline` (like
  /// Engine::run_until on each partition). Messages delivering later stay
  /// in their inboxes for the next drive.
  void run_until(SimTime deadline);

  [[nodiscard]] std::size_t partition_count() const { return parts_.size(); }
  [[nodiscard]] Engine& engine(PartitionId p) { return *parts_[p].engine; }
  [[nodiscard]] const std::string& name(PartitionId p) const {
    return parts_[p].name;
  }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  [[nodiscard]] ParallelProfile profile() const;

  /// Digest of the deterministic whole-run state: partition digests folded
  /// in partition order plus the cross-message total. Bit-identical across
  /// runs of the same workload (round counters are deliberately excluded).
  [[nodiscard]] std::uint64_t state_digest() const;

 private:
  struct CrossMessage {
    SimTime deliver_at;
    PartitionId src = 0;
    std::uint64_t src_seq = 0;  // per-source send order (delivery tiebreak)
    Engine::Callback fn;
  };

  struct Partition {
    Engine* engine = nullptr;
    std::string name;
    /// Undelivered messages: a heap whose front is the earliest by
    /// (deliver_at, src, src_seq).
    std::vector<CrossMessage> inbox;
    std::uint64_t send_seq = 0;
  };

  void drive(std::optional<SimTime> deadline);
  /// Execute `p`'s local events and inject its inbox messages at their
  /// exact delivery times, up to (not including) `end`.
  static void run_partition(Partition& p, SimTime end);

  SimTime lookahead_;
  std::vector<Partition> parts_;
  bool running_ = false;
  std::uint64_t quanta_ = 0;
  std::uint64_t windows_skipped_ = 0;
  std::uint64_t cross_messages_ = 0;
  std::uint64_t wall_ns_ = 0;
};

}  // namespace paratick::sim

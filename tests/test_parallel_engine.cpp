#include <gtest/gtest.h>

#include "expect_error.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/parallel/parallel_engine.hpp"
#include "sim/rng.hpp"

namespace paratick::sim {
namespace {

TEST(ParallelEngine, IndependentPartitionsRunToCompletion) {
  Engine a, b;
  int fired_a = 0, fired_b = 0;
  a.schedule_at(SimTime::us(5), [&] { ++fired_a; });
  b.schedule_at(SimTime::us(9), [&] { ++fired_b; });

  ParallelEngine par(1);
  par.add_partition(a, "a");
  par.add_partition(b, "b");
  par.run();

  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
  EXPECT_EQ(a.now(), SimTime::us(5));
  EXPECT_EQ(b.now(), SimTime::us(9));
  EXPECT_FALSE(par.lookahead().has_value());
}

TEST(ParallelEngine, RunUntilAdvancesEveryClockToDeadline) {
  Engine a, b;
  int fired = 0;
  a.schedule_at(SimTime::us(3), [&] { ++fired; });
  // An event exactly at the deadline must still execute (run_until
  // semantics on each partition).
  b.schedule_at(SimTime::us(10), [&] { ++fired; });
  b.schedule_at(SimTime::us(11), [&] { ++fired; });

  ParallelEngine par(1);
  par.add_partition(a);
  par.add_partition(b);
  par.run_until(SimTime::us(10));

  EXPECT_EQ(fired, 2);
  EXPECT_EQ(a.now(), SimTime::us(10));
  EXPECT_EQ(b.now(), SimTime::us(10));
  EXPECT_TRUE(b.has_pending_events());
}

TEST(ParallelEngine, CrossPartitionSendDeliversAtSrcNowPlusDelay) {
  Engine a, b;
  ParallelEngine par(1);
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  par.declare_link(pa, pb, SimTime::us(2));

  SimTime delivered = SimTime::zero();
  a.schedule_at(SimTime::us(4), [&] {
    par.send(pa, pb, SimTime::us(3), [&] { delivered = b.now(); });
  });
  par.run();

  EXPECT_EQ(delivered, SimTime::us(7));  // 4 (src now) + 3 (delay)
}

TEST(ParallelEngine, IdleRelayBoundsTheHorizonDownstream) {
  // a -> b -> c, 1us each. b is idle when the window opens, but relays
  // what a sends it, so c may not run past a's floor + 2us. A horizon
  // taken from b's own (empty) floor would let c sprint ahead, and the
  // relayed message would then be injected into c's past and throw.
  Engine a, b, c;
  ParallelEngine par(1);
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  const PartitionId pc = par.add_partition(c);
  par.declare_link(pa, pb, SimTime::us(1));
  par.declare_link(pb, pc, SimTime::us(1));

  SimTime relayed = SimTime::zero();
  a.schedule_at(SimTime::ns(1), [&] {
    par.send(pa, pb, SimTime::us(1), [&] {
      par.send(pb, pc, SimTime::us(1), [&] { relayed = c.now(); });
    });
  });
  struct Busy {
    Engine* eng;
    int remaining;
    void step() {
      if (--remaining > 0) eng->schedule_after(SimTime::ns(100), [this] { step(); });
    }
  } busy{&c, 1000};  // 100us of local work on c
  c.schedule_at(SimTime::ns(1), [&busy] { busy.step(); });
  par.run();

  EXPECT_EQ(relayed, SimTime::ns(1) + SimTime::us(2));
}

TEST(ParallelEngine, SendBelowLinkLatencyThrows) {
  Engine a, b;
  ParallelEngine par(1);
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  par.declare_link(pa, pb, SimTime::us(5));

  EXPECT_SIM_ERROR(par.send(pa, pb, SimTime::us(4), [] {}),
                   "faster than the declared link");
}

TEST(ParallelEngine, SendOverUndeclaredLinkThrows) {
  Engine a, b;
  ParallelEngine par(1);
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  par.declare_link(pa, pb, SimTime::us(5));

  // Links are directed: a->b does not imply b->a.
  EXPECT_SIM_ERROR(par.send(pb, pa, SimTime::us(5), [] {}),
                   "undeclared link");
}

TEST(ParallelEngine, ZeroLatencyLinkRejected) {
  Engine a, b;
  ParallelEngine par(1);
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  EXPECT_SIM_ERROR(par.declare_link(pa, pb, SimTime::zero()),
                   "must be positive");
}

TEST(ParallelEngine, DuplicateEngineRejected) {
  Engine a;
  ParallelEngine par(1);
  par.add_partition(a);
  EXPECT_SIM_ERROR(par.add_partition(a), "already registered");
}

TEST(ParallelEngine, LookaheadIsMinimumDeclaredLatency) {
  Engine a, b, c;
  ParallelEngine par(1);
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  const PartitionId pc = par.add_partition(c);
  par.declare_link(pa, pb, SimTime::us(9));
  par.declare_link(pb, pc, SimTime::us(3));
  par.declare_link(pc, pa, SimTime::us(7));
  ASSERT_TRUE(par.lookahead().has_value());
  EXPECT_EQ(*par.lookahead(), SimTime::us(3));
}

struct StreamEvent {
  std::int64_t when_ns;
  std::uint64_t seq;
  std::uint64_t digest;
  bool operator==(const StreamEvent&) const = default;
};

/// One ordinary EventObserver per partition engine: it records every
/// event that partition executes, with the engine's state digest taken
/// right after the callback. Only the thread running that partition's
/// window ever calls it. The merge key (time, partition, seq) is
/// deterministic, so equal per-partition streams mean an equal merged
/// stream.
struct StreamRecorder final : EventObserver {
  std::vector<StreamEvent> events;
  void on_event_executed(Engine& engine, SimTime when,
                         std::uint64_t seq) override {
    events.push_back({when.nanoseconds(), seq, engine.state_digest()});
  }
};
using Streams = std::vector<std::vector<StreamEvent>>;

/// Run a 3-partition ring with local churn + cross traffic at the given
/// thread count; return (sinks, digest, per-partition event streams).
struct RingOutcome {
  std::vector<std::uint64_t> sinks;
  std::uint64_t digest = 0;
  Streams streams;
  ParallelProfile profile;
};

RingOutcome run_ring(unsigned threads) {
  constexpr PartitionId kParts = 3;
  Engine engines[kParts];
  std::uint64_t sinks[kParts] = {1, 2, 3};
  ParallelEngine par(threads);
  for (auto& e : engines) par.add_partition(e);
  for (PartitionId p = 0; p < kParts; ++p) {
    par.declare_link(p, (p + 1) % kParts, SimTime::us(2));
  }

  StreamRecorder taps[kParts];
  for (PartitionId p = 0; p < kParts; ++p) engines[p].set_observer(&taps[p]);

  // Local churn: self-rescheduling pumps with different phases, plus a
  // cross ping from each partition to its successor every few events.
  struct Pump {
    Engine* eng;
    ParallelEngine* par;
    PartitionId self, next;
    std::uint64_t* sink;
    std::uint64_t* next_sink;
    int remaining;
    void step() {
      *sink ^= static_cast<std::uint64_t>(eng->now().nanoseconds()) *
               0x9E3779B97F4A7C15ull;
      if ((remaining % 5) == 0) {
        par->send(self, next, SimTime::us(2), [s = next_sink] { *s += 17; });
      }
      if (--remaining > 0) {
        eng->schedule_after(SimTime::ns(700 + 13 * static_cast<int>(self)),
                            [this] { step(); });
      }
    }
  };
  Pump pumps[kParts];
  for (PartitionId p = 0; p < kParts; ++p) {
    pumps[p] = {&engines[p], &par,      p,
                (p + 1) % kParts,       &sinks[p], &sinks[(p + 1) % kParts],
                200};
    engines[p].schedule_after(SimTime::ns(1 + p), [&pump = pumps[p]] {
      pump.step();
    });
  }
  par.run();

  RingOutcome out;
  out.sinks.assign(sinks, sinks + kParts);
  out.digest = par.state_digest();
  for (StreamRecorder& t : taps) out.streams.push_back(std::move(t.events));
  out.profile = par.profile();
  return out;
}

TEST(ParallelEngine, ResultsBitIdenticalAcrossThreadCounts) {
  const RingOutcome ref = run_ring(1);
  ASSERT_GT(ref.profile.cross_messages, 0u);
  for (const auto& stream : ref.streams) ASSERT_FALSE(stream.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    const RingOutcome got = run_ring(threads);
    EXPECT_EQ(got.sinks, ref.sinks) << threads << " threads";
    EXPECT_EQ(got.digest, ref.digest) << threads << " threads";
    EXPECT_EQ(got.streams, ref.streams) << threads << " threads";
    EXPECT_EQ(got.profile.cross_messages, ref.profile.cross_messages);
    EXPECT_EQ(got.profile.events_committed, ref.profile.events_committed);
    EXPECT_EQ(got.profile.quanta, ref.profile.quanta);
  }
}

TEST(ParallelEngine, LowestPartitionErrorWinsDeterministically) {
  for (const unsigned threads : {1u, 4u}) {
    Engine a, b, c;
    ParallelEngine par(threads);
    par.add_partition(a);
    par.add_partition(b);
    par.add_partition(c);
    par.declare_full_mesh(SimTime::us(100));  // one window holds all three
    // All three fail inside the same quantum window; the propagated error
    // must be partition 0's whatever the worker schedule was.
    a.schedule_at(SimTime::us(3), [] {
      PARATICK_CHECK_MSG(false, "boom-partition-zero");
    });
    b.schedule_at(SimTime::us(2), [] {
      PARATICK_CHECK_MSG(false, "boom-partition-one");
    });
    c.schedule_at(SimTime::us(1), [] {
      PARATICK_CHECK_MSG(false, "boom-partition-two");
    });
    EXPECT_SIM_ERROR(par.run(), "boom-partition-zero");
  }
}

TEST(ParallelEngine, WorkerThreadsActuallyExecuteEvents) {
  // Not a determinism test: sanity that threads > 1 really runs events on
  // pool workers (each partition records the thread it executed on).
  Engine a, b;
  std::atomic<int> distinct{0};
  const auto main_id = std::this_thread::get_id();
  a.schedule_at(SimTime::us(1), [&] {
    if (std::this_thread::get_id() != main_id) distinct.fetch_add(1);
  });
  b.schedule_at(SimTime::us(1), [&] {
    if (std::this_thread::get_id() != main_id) distinct.fetch_add(1);
  });
  ParallelEngine par(2);
  par.add_partition(a);
  par.add_partition(b);
  par.run();
  EXPECT_EQ(distinct.load(), 2);
}

TEST(ParallelEngine, PreRunSendsCommitBeforeFirstWindow) {
  Engine a, b;
  ParallelEngine par(1);
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  par.declare_link(pa, pb, SimTime::us(1));

  int fired = 0;
  par.send(pa, pb, SimTime::us(1), [&] { ++fired; });  // setup-time send
  par.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(b.now(), SimTime::us(1));
}

TEST(ParallelEngine, ProfileCountsPartitionsQuantaAndMessages) {
  const RingOutcome out = run_ring(1);
  EXPECT_EQ(out.profile.partitions, 3u);
  EXPECT_GT(out.profile.quanta, 1u);
  std::size_t events = 0;
  for (const auto& stream : out.streams) events += stream.size();
  EXPECT_EQ(out.profile.events_committed, events);
  EXPECT_EQ(out.profile.merged.events_executed, out.profile.events_committed);
}

/// One link-pump: streams payloads over its declared link, mutating its
/// payload with an LCG so every message is distinct (an out-of-order or
/// dropped delivery cannot cancel out in the XOR sink).
struct DagPump {
  Engine* eng = nullptr;
  ParallelEngine* par = nullptr;
  PartitionId src = 0;
  PartitionId dst = 0;
  SimTime latency;
  SimTime period;
  std::uint64_t* dst_sink = nullptr;
  std::uint64_t payload = 0;
  int remaining = 0;

  void step() {
    par->send(src, dst, latency, [s = dst_sink, v = payload] { *s ^= v; });
    payload = payload * 6364136223846793005ull + 1442695040888963407ull;
    if (--remaining > 0) eng->schedule_after(period, [this] { step(); });
  }
};

struct DagOutcome {
  std::vector<std::uint64_t> sinks;
  std::uint64_t digest = 0;
  Streams streams;
  ParallelProfile profile;
};

/// A randomly wired DAG of link latencies (edges only src < dst, so
/// partition 0 has no inbound links and exercises the capped-horizon
/// path), with one pump per link and local churn on every partition. The
/// wiring RNG is rebuilt from a fixed seed on every call, so each thread
/// count replays the exact same topology and traffic — the outcome must
/// be identical everywhere.
DagOutcome run_random_dag(unsigned threads) {
  constexpr PartitionId kParts = 6;
  Rng wiring(0xDA60117ull);
  Engine engines[kParts];
  std::uint64_t sinks[kParts] = {};
  ParallelEngine par(threads);
  for (auto& e : engines) par.add_partition(e);

  StreamRecorder taps[kParts];
  for (PartitionId p = 0; p < kParts; ++p) engines[p].set_observer(&taps[p]);

  std::vector<std::unique_ptr<DagPump>> pumps;
  for (PartitionId s = 0; s < kParts; ++s) {
    for (PartitionId d = s + 1; d < kParts; ++d) {
      if (wiring.uniform_int(0, 2) != 0) continue;  // keep ~1/3 of the pairs
      const SimTime lat = SimTime::us(wiring.uniform_int(1, 20));
      par.declare_link(s, d, lat);
      auto pump = std::make_unique<DagPump>();
      pump->eng = &engines[s];
      pump->par = &par;
      pump->src = s;
      pump->dst = d;
      pump->latency = lat;
      pump->period = lat * wiring.uniform_int(1, 3);
      pump->dst_sink = &sinks[d];
      pump->payload = wiring.next_u64();
      pump->remaining = 60;
      engines[s].schedule_after(SimTime::ns(wiring.uniform_int(1, 900)),
                                [p = pump.get()] { p->step(); });
      pumps.push_back(std::move(pump));
    }
  }
  // The seed above wires several links; a topology with none would make
  // this test vacuous.
  PARATICK_CHECK(!pumps.empty());

  // Local churn so partitions have work between deliveries.
  struct Local {
    Engine* eng;
    std::uint64_t* sink;
    int remaining;
    SimTime step_ns;
    void step() {
      *sink ^= static_cast<std::uint64_t>(eng->now().nanoseconds()) *
               0x9E3779B97F4A7C15ull;
      if (--remaining > 0) eng->schedule_after(step_ns, [this] { step(); });
    }
  };
  Local locals[kParts];
  for (PartitionId p = 0; p < kParts; ++p) {
    locals[p] = {&engines[p], &sinks[p], 150,
                 SimTime::ns(wiring.uniform_int(300, 1500))};
    engines[p].schedule_after(SimTime::ns(1 + p),
                              [&l = locals[p]] { l.step(); });
  }
  par.run();

  DagOutcome out;
  out.sinks.assign(sinks, sinks + kParts);
  out.digest = par.state_digest();
  for (StreamRecorder& t : taps) out.streams.push_back(std::move(t.events));
  out.profile = par.profile();
  return out;
}

TEST(ParallelEngine, RandomDagDeterministicAcrossThreads) {
  const DagOutcome ref = run_random_dag(1);
  ASSERT_GT(ref.profile.cross_messages, 0u);
  for (const auto& stream : ref.streams) ASSERT_FALSE(stream.empty());
  // Horizons really reach past one global quantum here. A partition that
  // ran past a message's delivery time would trip Engine::schedule_at's
  // "in the past" check when the message is injected, so reaching this
  // far without a throw is the safety check.
  EXPECT_GT(ref.profile.barriers_elided, 0u);
  for (const unsigned threads : {2u, 4u}) {
    const DagOutcome got = run_random_dag(threads);
    const std::string label = std::to_string(threads) + " threads";
    EXPECT_EQ(got.sinks, ref.sinks) << label;
    EXPECT_EQ(got.digest, ref.digest) << label;
    EXPECT_EQ(got.streams, ref.streams) << label;
    EXPECT_EQ(got.profile.cross_messages, ref.profile.cross_messages) << label;
    EXPECT_EQ(got.profile.events_committed, ref.profile.events_committed)
        << label;
    // Window counters are thread-invariant too.
    EXPECT_EQ(got.profile.quanta, ref.profile.quanta) << label;
    EXPECT_EQ(got.profile.barriers_elided, ref.profile.barriers_elided)
        << label;
  }
}

TEST(ParallelEngine, TopologyLookaheadElidesBarriersOnSparseStar) {
  // The barrierstorm shape: one tight link into partition 0, everyone
  // else idle-ish. The 1us link is the global quantum, but only partition
  // 0 has an inbound link, so the barrier count must stay at or below
  // half the number of 1us quanta the run spans.
  Engine engines[4];
  std::uint64_t sinks[4] = {};
  ParallelEngine par(1);
  for (auto& e : engines) par.add_partition(e);
  par.declare_link(1, 0, SimTime::us(1));

  DagPump pump;
  pump.eng = &engines[1];
  pump.par = &par;
  pump.src = 1;
  pump.dst = 0;
  pump.latency = SimTime::us(1);
  pump.period = SimTime::us(10);
  pump.dst_sink = &sinks[0];
  pump.payload = 0xF00Dull;
  pump.remaining = 100;
  engines[1].schedule_after(SimTime::ns(1), [&pump] { pump.step(); });
  for (PartitionId p = 2; p < 4; ++p) {
    engines[p].schedule_at(SimTime::us(500),
                           [&s = sinks[p], p] { s = 41u + p; });
  }
  par.run();

  const ParallelProfile prof = par.profile();
  // 100 sends, 100 deliveries and the two idle-partition events.
  EXPECT_EQ(prof.events_committed, 202u);
  EXPECT_EQ(prof.cross_messages, 100u);
  EXPECT_EQ(sinks[2], 43u);
  EXPECT_EQ(sinks[3], 44u);
  // The last delivery lands 1ns + 99 * 10us + 1us into the run.
  EXPECT_EQ(engines[0].now(), SimTime::ns(1) + SimTime::us(991));
  const std::uint64_t global_quanta = static_cast<std::uint64_t>(
      engines[0].now().nanoseconds() / SimTime::us(1).nanoseconds());
  EXPECT_GT(prof.barriers_elided, 0u);
  EXPECT_LE(prof.quanta * 2, global_quanta);
}

}  // namespace
}  // namespace paratick::sim

#include <gtest/gtest.h>

#include "expect_error.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
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

  ParallelEngine par(SimTime::us(1));
  par.add_partition(a, "a");
  par.add_partition(b, "b");
  par.run();

  EXPECT_EQ(fired_a, 1);
  EXPECT_EQ(fired_b, 1);
  EXPECT_EQ(a.now(), SimTime::us(5));
  EXPECT_EQ(b.now(), SimTime::us(9));
  EXPECT_EQ(par.lookahead(), SimTime::us(1));
}

TEST(ParallelEngine, RunUntilAdvancesEveryClockToDeadline) {
  Engine a, b;
  int fired = 0;
  a.schedule_at(SimTime::us(3), [&] { ++fired; });
  // An event exactly at the deadline must still execute (run_until
  // semantics on each partition).
  b.schedule_at(SimTime::us(10), [&] { ++fired; });
  b.schedule_at(SimTime::us(11), [&] { ++fired; });

  ParallelEngine par(SimTime::us(1));
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
  ParallelEngine par(SimTime::us(2));
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);

  SimTime delivered = SimTime::zero();
  a.schedule_at(SimTime::us(4), [&] {
    par.send(pa, pb, SimTime::us(3), [&] { delivered = b.now(); });
  });
  par.run();

  EXPECT_EQ(delivered, SimTime::us(7));  // 4 (src now) + 3 (delay)
}

TEST(ParallelEngine, IdleRelayBoundsTheHorizonDownstream) {
  // a -> b -> c, 1us each. b is idle when the run starts, but relays
  // what a sends it while c is busy with local work. A round that let c
  // run ahead of b's relay would inject the relayed message into c's past
  // and throw.
  Engine a, b, c;
  ParallelEngine par(SimTime::us(1));
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  const PartitionId pc = par.add_partition(c);

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

TEST(ParallelEngine, SendBelowLookaheadThrows) {
  Engine a, b;
  ParallelEngine par(SimTime::us(5));
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);

  EXPECT_SIM_ERROR(par.send(pa, pb, SimTime::us(4), [] {}),
                   "faster than the lookahead");
  par.send(pa, pb, SimTime::us(5), [] {});  // exactly L is allowed
}

TEST(ParallelEngine, ZeroLookaheadRejected) {
  EXPECT_SIM_ERROR(ParallelEngine{SimTime::zero()}, "must be positive");
}

TEST(ParallelEngine, DuplicateEngineRejected) {
  Engine a;
  ParallelEngine par(SimTime::us(1));
  par.add_partition(a);
  EXPECT_SIM_ERROR(par.add_partition(a), "already registered");
}

struct StreamEvent {
  std::int64_t when_ns;
  std::uint64_t seq;
  std::uint64_t digest;
  bool operator==(const StreamEvent&) const = default;
};

/// One ordinary EventObserver per partition engine: it records every
/// event that partition executes, with the engine's state digest taken
/// right after the callback.
struct StreamRecorder final : EventObserver {
  std::vector<StreamEvent> events;
  void on_event_executed(Engine& engine, SimTime when,
                         std::uint64_t seq) override {
    events.push_back({when.nanoseconds(), seq, engine.state_digest()});
  }
};
using Streams = std::vector<std::vector<StreamEvent>>;

/// FNV-1a over every partition's stream, for pinning: the engine's state
/// digest counts events but does not see their seqs, so it alone would
/// not notice a message injected at another point.
std::uint64_t stream_hash(const Streams& streams) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001B3ull; };
  for (const auto& stream : streams) {
    mix(stream.size());
    for (const StreamEvent& e : stream) {
      mix(static_cast<std::uint64_t>(e.when_ns));
      mix(e.seq);
      mix(e.digest);
    }
  }
  return h;
}

/// Run a 3-partition ring with local churn + cross traffic; return
/// (sinks, digest, per-partition event streams). With `slice` set, the
/// run is driven by run_until() steps of that length instead of one run().
struct RingOutcome {
  std::vector<std::uint64_t> sinks;
  std::uint64_t digest = 0;
  Streams streams;
  ParallelProfile profile;
};

RingOutcome run_ring(std::optional<SimTime> slice = std::nullopt) {
  constexpr PartitionId kParts = 3;
  Engine engines[kParts];
  std::uint64_t sinks[kParts] = {1, 2, 3};
  ParallelEngine par(SimTime::us(2));
  for (auto& e : engines) par.add_partition(e);

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
  if (slice) {
    // The pumps run ~150us; the run() after the slices drains the rest.
    for (SimTime t = *slice; t <= SimTime::us(300); t += *slice) {
      par.run_until(t);
    }
  }
  par.run();

  RingOutcome out;
  out.sinks.assign(sinks, sinks + kParts);
  out.digest = par.state_digest();
  for (StreamRecorder& t : taps) out.streams.push_back(std::move(t.events));
  out.profile = par.profile();
  return out;
}

// Pinned goldens: a change that moves the ring's committed order, not
// just one that makes it nondeterministic, fails here.
TEST(ParallelEngine, RingResultsMatchGoldens) {
  const RingOutcome out = run_ring();
  ASSERT_GT(out.profile.cross_messages, 0u);
  for (const auto& stream : out.streams) ASSERT_FALSE(stream.empty());
  EXPECT_EQ(out.digest, 0x9cc91dfd90dc70e9ull);
  EXPECT_EQ(out.sinks, (std::vector<std::uint64_t>{0xcdfd05e8d31d4453ull,
                                                   0xc02626e08f78de84ull,
                                                   0x3202a411602127e7ull}));
  EXPECT_EQ(stream_hash(out.streams), 0x2ca063cadfb95a71ull);
  EXPECT_EQ(out.profile.quanta, 69u);
}

// Messages stay in their inboxes across run_until() calls, so where a run
// is sliced cannot change which seq an injected message takes.
TEST(ParallelEngine, RunUntilSlicesLeaveEveryEventStreamUnchanged) {
  const RingOutcome whole = run_ring();
  const RingOutcome sliced = run_ring(SimTime::us(1));
  ASSERT_EQ(whole.streams.size(), sliced.streams.size());
  for (std::size_t p = 0; p < whole.streams.size(); ++p) {
    EXPECT_EQ(whole.streams[p], sliced.streams[p]) << "partition " << p;
  }
  EXPECT_EQ(whole.sinks, sliced.sinks);
}

TEST(ParallelEngine, LowestPartitionErrorWinsDeterministically) {
  Engine a, b, c;
  ParallelEngine par(SimTime::us(100));  // one round holds all three
  par.add_partition(a);
  par.add_partition(b);
  par.add_partition(c);
  // All three would fail inside the same round, partition 2
  // earliest in simulated time; partitions run in id order, so the
  // propagated error is partition 0's.
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

TEST(ParallelEngine, PreRunSendsDeliverInTheFirstRound) {
  Engine a, b;
  ParallelEngine par(SimTime::us(1));
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);

  int fired = 0;
  par.send(pa, pb, SimTime::us(1), [&] { ++fired; });  // setup-time send
  par.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(b.now(), SimTime::us(1));
}

TEST(ParallelEngine, SimultaneousDeliveriesRunInSourceThenSendOrder) {
  // The delivery key is (deliver_at, source partition, per-source send
  // order), whatever order the sends were made in.
  Engine a, b, c;
  ParallelEngine par(SimTime::us(5));
  const PartitionId pa = par.add_partition(a);
  const PartitionId pb = par.add_partition(b);
  const PartitionId pc = par.add_partition(c);

  std::vector<int> order;
  par.send(pb, pc, SimTime::us(5), [&] { order.push_back(10); });
  par.send(pa, pc, SimTime::us(5), [&] { order.push_back(0); });
  par.send(pa, pc, SimTime::us(5), [&] { order.push_back(1); });
  par.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10}));
}

TEST(ParallelEngine, ProfileCountsPartitionsQuantaAndMessages) {
  const RingOutcome out = run_ring();
  EXPECT_EQ(out.profile.partitions, 3u);
  EXPECT_GT(out.profile.quanta, 1u);
  std::size_t events = 0;
  for (const auto& stream : out.streams) events += stream.size();
  EXPECT_EQ(out.profile.events_committed, events);
  EXPECT_EQ(out.profile.merged.events_executed, out.profile.events_committed);
}

/// One link-pump: streams payloads from `src` to `dst`, mutating its
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

/// A randomly wired DAG of pumps with per-edge latencies (edges only
/// src < dst), local churn on every partition, and the shortest latency as
/// the lookahead. The wiring RNG is rebuilt from a fixed seed on every
/// call, so every call replays the exact same topology and traffic.
DagOutcome run_random_dag() {
  constexpr PartitionId kParts = 6;
  Rng wiring(0xDA60117ull);
  Engine engines[kParts];
  std::uint64_t sinks[kParts] = {};

  StreamRecorder taps[kParts];
  for (PartitionId p = 0; p < kParts; ++p) engines[p].set_observer(&taps[p]);

  std::vector<std::unique_ptr<DagPump>> pumps;
  for (PartitionId s = 0; s < kParts; ++s) {
    for (PartitionId d = s + 1; d < kParts; ++d) {
      if (wiring.uniform_int(0, 2) != 0) continue;  // keep ~1/3 of the pairs
      const SimTime lat = SimTime::us(wiring.uniform_int(1, 20));
      auto pump = std::make_unique<DagPump>();
      pump->eng = &engines[s];
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
  SimTime lookahead = SimTime::max();
  for (const auto& pump : pumps) lookahead = std::min(lookahead, pump->latency);
  ParallelEngine par(lookahead);
  for (auto& e : engines) par.add_partition(e);
  for (const auto& pump : pumps) pump->par = &par;

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

TEST(ParallelEngine, RandomDagResultsMatchGoldens) {
  const DagOutcome out = run_random_dag();
  ASSERT_GT(out.profile.cross_messages, 0u);
  for (const auto& stream : out.streams) ASSERT_FALSE(stream.empty());
  // A partition that ran past a message's delivery time would trip
  // Engine::schedule_at's "in the past" check when the message is
  // injected, so reaching this far without a throw is the safety check.
  EXPECT_EQ(out.digest, 0x02b04fa02845c81eull);
  EXPECT_EQ(out.sinks, (std::vector<std::uint64_t>{
                           0xe3fda17faebb65c3ull, 0xa3b01735c4ffed5aull,
                           0x8e34def3d0c27307ull, 0xa290e3f7940ea6bcull,
                           0xb4b7385977a09139ull, 0x069c7e3e2c8e74dcull}));
  EXPECT_EQ(stream_hash(out.streams), 0xa611fec7feaeb37dull);
  EXPECT_EQ(out.profile.quanta, 237u);
}

TEST(ParallelEngine, SparseStarRunsAtMostOneRoundPerLookahead) {
  // One tight 1us stream into partition 0, everyone else nearly idle.
  // Every round lifts every partition past `start + L`, so a run spanning
  // `span` takes at most span / L + 1 rounds, however sparse the work.
  Engine engines[4];
  std::uint64_t sinks[4] = {};
  ParallelEngine par(SimTime::us(1));
  for (auto& e : engines) par.add_partition(e);

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
  const SimTime span = engines[0].now();
  EXPECT_EQ(span, SimTime::ns(1) + SimTime::us(991));
  EXPECT_GT(prof.quanta, 0u);
  EXPECT_LE(prof.quanta,
            static_cast<std::uint64_t>(span / par.lookahead()) + 1);
}

}  // namespace
}  // namespace paratick::sim

// Workload-layer tests: the Program op language and interpreter, PARSEC
// profiles, the fio generator and the micro-workloads.
#include <gtest/gtest.h>

#include "expect_error.hpp"

#include "core/system.hpp"
#include "workload/fio.hpp"
#include "workload/micro.hpp"
#include "workload/parsec.hpp"
#include "workload/program.hpp"
#include "workload/tenant_traffic.hpp"

namespace paratick::workload {
namespace {

using sim::SimTime;

metrics::RunResult run_program(Program prog, int cpus = 1, bool disk = false) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(static_cast<std::uint32_t>(cpus));
  spec.max_duration = SimTime::sec(10);
  core::VmSpec vm;
  vm.vcpus = cpus;
  vm.attach_disk = disk;
  vm.setup = [&prog](guest::GuestKernel& k) { k.add_task(make_task_body(prog)); };
  spec.vms.push_back(std::move(vm));
  core::System system(std::move(spec));
  return system.run();
}

TEST(Program, BuilderAccumulatesOps) {
  Program p;
  p.compute(100).barrier(1).lock(2).unlock(2).sleep(SimTime::us(5)).fault();
  EXPECT_EQ(p.ops().size(), 6u);
  EXPECT_EQ(p.ops()[0].kind, Op::Kind::kCompute);
  EXPECT_EQ(p.ops()[1].sync_id, 1);
  EXPECT_EQ(p.repeat_count(), 1);
  p.repeat(7);
  EXPECT_EQ(p.repeat_count(), 7);
}

TEST(Program, MeanComputeSumsComputeKinds) {
  Program p;
  p.compute(100).compute_exp(200).compute_norm(300, 0.1).barrier(0);
  EXPECT_EQ(p.mean_compute_cycles_per_iteration(), 600);
}

TEST(Program, InterpreterRunsRepeatIterations) {
  Program p;
  p.compute(10'000).repeat(25);
  const auto r = run_program(p);
  ASSERT_TRUE(r.completion_time().has_value());
  // 25 * 10k cycles = 250k cycles ≈ 125 us plus kernel overhead.
  EXPECT_GE(r.completion_time()->microseconds(), 125.0);
}

TEST(Program, ProbabilityGatedOpsFireProportionally) {
  Program p;
  p.compute(1'000).fault(0.25).repeat(4000);
  const auto r = run_program(p);
  const auto faults =
      r.exits_by_cause[static_cast<std::size_t>(hw::ExitCause::kBackground)];
  EXPECT_NEAR(static_cast<double>(faults), 1000.0, 120.0);
}

TEST(ProgramDeath, EmptyProgramRejected) {
  EXPECT_SIM_ERROR((void)make_task_body(Program{}), "empty workload program");
}

TEST(Parsec, SuiteHasThirteenDistinctBenchmarks) {
  const auto suite = parsec_suite();
  EXPECT_EQ(suite.size(), 13u);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    for (std::size_t j = i + 1; j < suite.size(); ++j) {
      EXPECT_NE(suite[i].name, suite[j].name);
    }
  }
}

TEST(Parsec, LookupByName) {
  EXPECT_EQ(parsec_profile("dedup").name, "dedup");
  EXPECT_TRUE(parsec_profile("dedup").pipeline);
  EXPECT_FALSE(parsec_profile("blackscholes").pipeline);
}

TEST(ParsecDeath, UnknownBenchmarkAborts) {
  EXPECT_SIM_ERROR((void)parsec_profile("doom3"), "unknown PARSEC benchmark");
}

TEST(Parsec, SequentialProgramHasNoBlockingSync) {
  for (const auto& profile : parsec_suite()) {
    const Program p = make_parsec_program(profile, 1, 0);
    for (const auto& op : p.ops()) {
      EXPECT_NE(op.kind, Op::Kind::kSemWait);
      EXPECT_NE(op.kind, Op::Kind::kSemPost);
    }
  }
}

TEST(Parsec, PipelineRolesDiffer) {
  const auto& dedup = parsec_profile("dedup");
  const Program producer = make_parsec_program(dedup, 4, 0);
  const Program consumer = make_parsec_program(dedup, 4, 1);
  bool producer_posts = false, consumer_waits = false;
  for (const auto& op : producer.ops()) producer_posts |= op.kind == Op::Kind::kSemPost;
  for (const auto& op : consumer.ops()) consumer_waits |= op.kind == Op::Kind::kSemWait;
  EXPECT_TRUE(producer_posts);
  EXPECT_TRUE(consumer_waits);
}

TEST(Parsec, GroupsUseDistinctSemaphores) {
  const auto& dedup = parsec_profile("dedup");
  const Program g0 = make_parsec_program(dedup, 8, 0);
  const Program g1 = make_parsec_program(dedup, 8, 4);
  int s0 = -1, s1 = -1;
  for (const auto& op : g0.ops()) {
    if (op.kind == Op::Kind::kSemPost) s0 = op.sync_id;
  }
  for (const auto& op : g1.ops()) {
    if (op.kind == Op::Kind::kSemPost) s1 = op.sync_id;
  }
  EXPECT_EQ(s0, 0);
  EXPECT_EQ(s1, 1);
}

TEST(Parsec, InstallRunsToCompletionSequential) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  spec.max_duration = SimTime::sec(30);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.attach_disk = true;
  vm.setup = [](guest::GuestKernel& k) {
    install_parsec(k, parsec_profile("streamcluster"), 1);
  };
  spec.vms.push_back(std::move(vm));
  core::System system(std::move(spec));
  const auto r = system.run();
  EXPECT_TRUE(r.completion_time().has_value());
  EXPECT_EQ(system.kernel(0).tasks_done(), 1);
}

TEST(Parsec, BarrierImbalanceCreatesIdleness) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(4);
  spec.max_duration = SimTime::sec(30);
  core::VmSpec vm;
  vm.vcpus = 4;
  vm.attach_disk = true;
  vm.setup = [](guest::GuestKernel& k) {
    install_parsec(k, parsec_profile("fluidanimate"), 4);
  };
  spec.vms.push_back(std::move(vm));
  core::System system(std::move(spec));
  const auto r = system.run();
  EXPECT_GT(r.vms[0].task_blocks, 1000u);  // microsecond-scale blocking regime
}

TEST(Fio, CategoriesAndBlockSizesMatchPaper) {
  EXPECT_EQ(fio_categories().size(), 4u);  // seqr, seqwr, rndr, rndwr
  EXPECT_EQ(fio_block_sizes().size(), 7u);
  EXPECT_EQ(fio_block_sizes().front(), 4096u);
  EXPECT_EQ(fio_block_sizes().back(), 262144u);
}

TEST(Fio, ProgramIssuesExactlyOpsRequests) {
  FioSpec spec;
  spec.ops = 37;
  core::SystemSpec sys;
  sys.machine = hw::MachineSpec::small(1);
  sys.max_duration = SimTime::sec(10);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.attach_disk = true;
  vm.setup = [&spec](guest::GuestKernel& k) { install_fio(k, spec); };
  sys.vms.push_back(std::move(vm));
  core::System system(std::move(sys));
  const auto r = system.run();
  EXPECT_TRUE(r.completion_time().has_value());
  EXPECT_EQ(system.disk(0)->completed_requests(), 37u);
  EXPECT_EQ(r.exits_by_cause[static_cast<std::size_t>(hw::ExitCause::kIoKick)], 37u);
}

TEST(Fio, WritesSlowerThanReads) {
  auto run_cat = [](hw::IoDir dir) {
    FioSpec spec;
    spec.dir = dir;
    spec.ops = 300;
    core::SystemSpec sys;
    sys.machine = hw::MachineSpec::small(1);
    sys.max_duration = SimTime::sec(10);
    core::VmSpec vm;
    vm.vcpus = 1;
    vm.attach_disk = true;
    vm.setup = [&spec](guest::GuestKernel& k) { install_fio(k, spec); };
    sys.vms.push_back(std::move(vm));
    core::System system(std::move(sys));
    return *system.run().completion_time();
  };
  EXPECT_LT(run_cat(hw::IoDir::kRead), run_cat(hw::IoDir::kWrite));
}

TEST(Micro, SyncStormBlocksAtExpectedRate) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(4);
  spec.max_duration = SimTime::sec(3);
  core::VmSpec vm;
  vm.vcpus = 4;
  vm.setup = [](guest::GuestKernel& k) {
    SyncStormSpec storm;
    storm.threads = 4;
    storm.sync_rate_hz = 500.0;
    storm.duration = SimTime::sec(1);
    workload::install_sync_storm(k, storm);
  };
  spec.vms.push_back(std::move(vm));
  core::System system(std::move(spec));
  const auto r = system.run();
  // ~500 barriers, 3 waiters each -> ~1500 blocks (±contention noise).
  EXPECT_NEAR(static_cast<double>(r.vms[0].task_blocks), 1500.0, 300.0);
}

TEST(Micro, TickStormChurnsTimers) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  spec.max_duration = SimTime::sec(5);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.setup = [](guest::GuestKernel& k) {
    TickStormSpec storm;
    storm.iterations = 1000;
    storm.sleep_interval = SimTime::us(200);
    install_tick_storm(k, storm);
  };
  spec.vms.push_back(std::move(vm));
  core::System system(std::move(spec));
  const auto r = system.run();
  ASSERT_TRUE(r.completion_time().has_value());
  EXPECT_EQ(r.vms[0].task_blocks, 1000u);
}

TEST(Micro, PureComputeNeverBlocks) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(1);
  spec.max_duration = SimTime::sec(5);
  core::VmSpec vm;
  vm.vcpus = 1;
  vm.setup = [](guest::GuestKernel& k) {
    PureComputeSpec pc;
    pc.total_cycles = 50'000'000;
    install_pure_compute(k, pc);
  };
  spec.vms.push_back(std::move(vm));
  core::System system(std::move(spec));
  const auto r = system.run();
  EXPECT_EQ(r.vms[0].task_blocks, 0u);
  ASSERT_TRUE(r.completion_time().has_value());
  EXPECT_NEAR(r.completion_time()->milliseconds(), 25.0, 2.0);  // 50M @ 2 GHz
}

// ---------------------------------------------------------------------------
// Interpreter oracle: a fixed-seed run of every op kind (and of the tenant
// traffic workers) in every tick mode, folded into one digest of what each
// task did and what the host saw. Any change to the order in which tasks
// draw random numbers, issue ops or resume changes the digest.
// ---------------------------------------------------------------------------

// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(SimTime t) { add(static_cast<std::uint64_t>(t.nanoseconds())); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t oracle_digest(guest::TickMode mode,
                            std::function<void(guest::GuestKernel&)> setup) {
  core::SystemSpec spec;
  spec.machine = hw::MachineSpec::small(2);
  spec.max_duration = SimTime::sec(10);
  core::VmSpec vm;
  vm.vcpus = 2;
  vm.attach_disk = true;
  vm.guest.tick_mode = mode;
  vm.setup = std::move(setup);
  spec.vms.push_back(std::move(vm));
  core::System system(std::move(spec));
  const auto r = system.run();
  Digest d;
  guest::GuestKernel& k = system.kernel(0);
  d.add(static_cast<std::uint64_t>(k.task_count()));
  for (int i = 0; i < k.task_count(); ++i) {
    const guest::GuestTask& t = k.task(i);
    d.add(t.finished_at);
    d.add(t.blocks);
    d.add(t.wakes);
  }
  for (const std::uint64_t n : r.exits_by_cause) d.add(n);
  d.add(r.events_executed);
  return d.value();
}

// Three tasks on two vCPUs (so the tick preempts), sharing one hot lock
// (so `critical` contends). Probability-gated I/O and faults exercise the
// skipped-op path; Exp(10 ms) sleeps land on the exact-deadline path
// (< 4 ticks) and on the jiffy path (>= 16 ms at 250 Hz).
void install_every_op(guest::GuestKernel& k) {
  hw::IoRequest req;
  req.dir = hw::IoDir::kRead;
  req.pattern = hw::IoPattern::kRandom;
  req.bytes = 8192;
  Program p;
  p.compute(5'000)
      .compute_exp(3'000)
      .compute_norm(4'000, 0.3)
      .critical(1, 20'000)
      .lock(1)
      .compute(2'000)
      .unlock(1)
      .sem_post(0)
      .sem_wait(0)
      .io(req, 0.5)
      .fault(0.3)
      .sleep(SimTime::us(50))
      .sleep_exp(SimTime::ms(10))
      .barrier(0)
      .repeat(40);
  k.create_barrier(0, 3);
  for (int t = 0; t < 3; ++t) k.add_task(make_task_body(p), t % k.cpu_count());
}

void install_tenants(guest::GuestKernel& k) {
  TenantTrafficSpec spec;
  spec.workers = 3;
  spec.until = SimTime::ms(80);
  spec.mean_interarrival = SimTime::us(300);
  spec.flash_duration = SimTime::ms(5);
  install_tenant_traffic(k, spec);
}

class InterpOracle : public ::testing::TestWithParam<guest::TickMode> {};

TEST_P(InterpOracle, ProgramDigestIsUnchanged) {
  // Golden values: any change to what a task does, or when, changes them.
  std::uint64_t expected = 0;
  switch (GetParam()) {
    case guest::TickMode::kPeriodic: expected = 0x015290d81c80fd29ull; break;
    case guest::TickMode::kDynticksIdle: expected = 0xe33ad5750bab96bbull; break;
    case guest::TickMode::kFullDynticks: expected = 0xe4e987954b4042deull; break;
    case guest::TickMode::kParatick: expected = 0x0684b6466633e7e2ull; break;
  }
  EXPECT_EQ(oracle_digest(GetParam(), install_every_op), expected);
}

TEST_P(InterpOracle, TenantTrafficDigestIsUnchanged) {
  std::uint64_t expected = 0;
  switch (GetParam()) {
    case guest::TickMode::kPeriodic: expected = 0x2e664c11b2247f45ull; break;
    case guest::TickMode::kDynticksIdle: expected = 0xe861e940fd43170cull; break;
    case guest::TickMode::kFullDynticks: expected = 0xae3567d63cb15e3aull; break;
    case guest::TickMode::kParatick: expected = 0xfbc0ba1de10b2046ull; break;
  }
  EXPECT_EQ(oracle_digest(GetParam(), install_tenants), expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, InterpOracle,
                         ::testing::Values(guest::TickMode::kPeriodic,
                                           guest::TickMode::kDynticksIdle,
                                           guest::TickMode::kFullDynticks,
                                           guest::TickMode::kParatick));

}  // namespace
}  // namespace paratick::workload

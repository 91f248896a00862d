#include "workload/parsec.hpp"

#include <algorithm>
#include <array>

#include "guest/kernel.hpp"
#include "sim/check.hpp"

namespace paratick::workload {

namespace {

constexpr std::int64_t kM = 1'000'000;
constexpr std::int64_t kK = 1'000;

ParsecProfile data_parallel(std::string_view name, int phases, std::int64_t phase,
                            double cv, int sync_ops, std::int64_t hold, int hot,
                            double io_prob, std::uint32_t io_block, double fault_prob) {
  ParsecProfile p;
  p.name = name;
  p.pipeline = false;
  p.phases = phases;
  p.phase_compute_cycles = phase;
  p.compute_cv = cv;
  p.sync_ops_per_phase = sync_ops;
  p.lock_hold_cycles = hold;
  p.hot_locks = hot;
  p.io_prob = io_prob;
  p.io_block_bytes = io_block;
  p.fault_prob = fault_prob;
  return p;
}

ParsecProfile pipeline(std::string_view name, int items, std::int64_t item,
                       std::int64_t consumer, double io_prob, std::uint32_t io_block,
                       double fault_prob, double seq_io_prob) {
  ParsecProfile p;
  p.name = name;
  p.pipeline = true;
  p.items_per_group = items;
  p.item_cycles = item;
  p.consumer_cycles = consumer;
  p.io_prob = io_prob;
  p.io_block_bytes = io_block;
  p.fault_prob = fault_prob;
  p.seq_io_prob = seq_io_prob;
  return p;
}

const std::array<ParsecProfile, 13> kSuite = {{
    // Data-parallel codes, ordered by rising sync intensity.
    data_parallel("blackscholes", 30, 12 * kM, 0.05, 0, 0, 1, 0.0, 0, 0.20),
    data_parallel("swaptions", 20, 15 * kM, 0.05, 0, 0, 1, 0.0, 0, 0.20),
    data_parallel("freqmine", 60, 5 * kM, 0.18, 4, 15 * kK, 2, 0.0, 0, 0.25),
    data_parallel("facesim", 80, 4 * kM, 0.15, 6, 12 * kK, 2, 0.0, 0, 0.25),
    data_parallel("canneal", 300, 900 * kK, 0.10, 8, 6 * kK, 2, 0.0, 0, 0.10),
    data_parallel("fluidanimate", 700, 500 * kK, 0.12, 8, 4 * kK, 2, 0.0, 0, 0.05),
    data_parallel("streamcluster", 900, 400 * kK, 0.10, 3, 6 * kK, 2, 0.0, 0, 0.05),
    data_parallel("raytrace", 150, 2500 * kK, 0.22, 10, 8 * kK, 2, 0.01, 16'384, 0.15),
    // Pipeline codes: 1 producer + 3 consumers per group of 4 threads.
    pipeline("bodytrack", 5000, 70 * kK, 25 * kK, 0.00, 65'536, 0.02, 0.12),
    pipeline("ferret", 7000, 55 * kK, 20 * kK, 0.005, 65'536, 0.02, 0.30),
    pipeline("dedup", 7500, 60 * kK, 22 * kK, 0.006, 262'144, 0.02, 0.50),
    pipeline("vips", 6000, 65 * kK, 24 * kK, 0.005, 131'072, 0.02, 0.40),
    pipeline("x264", 9000, 45 * kK, 16 * kK, 0.002, 65'536, 0.02, 0.20),
}};

}  // namespace

std::span<const ParsecProfile> parsec_suite() { return kSuite; }

const ParsecProfile& parsec_profile(std::string_view name) {
  for (const auto& p : kSuite) {
    if (p.name == name) return p;
  }
  PARATICK_CHECK_MSG(false, "unknown PARSEC benchmark");
  return kSuite[0];
}

namespace {

hw::IoRequest input_read(std::uint32_t bytes) {
  hw::IoRequest req;
  req.dir = hw::IoDir::kRead;
  req.pattern = hw::IoPattern::kSequential;
  req.bytes = bytes;
  return req;
}

// Each builder reserves its largest op count (the io and fault ops are
// conditional), so building a program allocates once.

/// Ops of a data-parallel phase: a compute burst and a critical section
/// per sync op, then the last burst, io, fault and the barrier.
std::size_t sync_program_ops(const ParsecProfile& p) {
  return 2 * static_cast<std::size_t>(p.sync_ops_per_phase) + 4;
}

Program sequential_program(const ParsecProfile& p) {
  Program prog;
  const double io_prob = std::max(p.io_prob, p.seq_io_prob);
  if (p.pipeline) {
    // One thread performs every stage's work per item, in order.
    prog.reserve(3);
    prog.compute_exp(p.item_cycles + 3 * p.consumer_cycles);
    if (io_prob > 0.0) prog.io(input_read(p.io_block_bytes), io_prob);
    if (p.fault_prob > 0.0) prog.fault(p.fault_prob);
    prog.repeat(p.items_per_group);
    return prog;
  }
  const int chunks = p.sync_ops_per_phase + 1;
  const std::int64_t gap =
      (p.phase_compute_cycles - p.sync_ops_per_phase * p.lock_hold_cycles) / chunks;
  prog.reserve(sync_program_ops(p));
  for (int s = 0; s < p.sync_ops_per_phase; ++s) {
    prog.compute_exp(gap);
    prog.critical(p.hot_locks, p.lock_hold_cycles);  // uncontended when alone
  }
  prog.compute_norm(gap, p.compute_cv);
  if (io_prob > 0.0) prog.io(input_read(p.io_block_bytes), io_prob);
  if (p.fault_prob > 0.0) prog.fault(p.fault_prob);
  prog.barrier(0);  // single-party barrier: immediate
  prog.repeat(p.phases);
  return prog;
}

Program barrier_program(const ParsecProfile& p, int nthreads, int thread_index) {
  Program prog;
  const int chunks = p.sync_ops_per_phase + 1;
  const std::int64_t gap =
      (p.phase_compute_cycles - p.sync_ops_per_phase * p.lock_hold_cycles) / chunks;
  PARATICK_CHECK_MSG(gap > 0, "profile over-commits compute to locks");
  // Lock granularity scales with parallelism (as real codes partition
  // their data), keeping per-lock contention constant across VM sizes.
  const int hot = std::max(p.hot_locks, p.hot_locks * nthreads / 4);
  prog.reserve(sync_program_ops(p));
  for (int s = 0; s < p.sync_ops_per_phase; ++s) {
    prog.compute_exp(gap);
    prog.critical(hot, p.lock_hold_cycles);
  }
  prog.compute_norm(gap, p.compute_cv);
  if (thread_index == 0) {
    if (p.io_prob > 0.0) prog.io(input_read(p.io_block_bytes), p.io_prob);
  }
  if (p.fault_prob > 0.0) prog.fault(p.fault_prob);
  prog.barrier(0);
  prog.repeat(p.phases);
  return prog;
}

Program producer_program(const ParsecProfile& p, int group) {
  Program prog;
  prog.reserve(4);
  prog.compute_exp(p.item_cycles);
  if (p.io_prob > 0.0) prog.io(input_read(p.io_block_bytes), p.io_prob);
  if (p.fault_prob > 0.0) prog.fault(p.fault_prob);
  prog.sem_post(group);
  prog.repeat(p.items_per_group);
  return prog;
}

Program consumer_program(const ParsecProfile& p, int group) {
  Program prog;
  prog.reserve(3);
  prog.sem_wait(group);
  prog.compute_exp(p.consumer_cycles);
  if (p.fault_prob > 0.0) prog.fault(p.fault_prob);
  prog.repeat(p.items_per_group / 3);
  return prog;
}

}  // namespace

Program make_parsec_program(const ParsecProfile& profile, int nthreads,
                            int thread_index) {
  PARATICK_CHECK(nthreads >= 1 && thread_index >= 0 && thread_index < nthreads);
  if (nthreads == 1) return sequential_program(profile);
  if (!profile.pipeline) return barrier_program(profile, nthreads, thread_index);
  PARATICK_CHECK_MSG(nthreads % 4 == 0, "pipeline profiles need a multiple of 4 threads");
  const int group = thread_index / 4;
  const int role = thread_index % 4;
  return role == 0 ? producer_program(profile, group)
                   : consumer_program(profile, group);
}

void install_parsec(guest::GuestKernel& kernel, const ParsecProfile& profile,
                    int nthreads) {
  PARATICK_CHECK(nthreads >= 1 && nthreads <= kernel.cpu_count());
  if (!profile.pipeline || nthreads == 1) kernel.create_barrier(0, nthreads);
  for (int t = 0; t < nthreads; ++t) {
    kernel.add_task(make_task_body(make_parsec_program(profile, nthreads, t)),
                    t % kernel.cpu_count());
  }
}

}  // namespace paratick::workload

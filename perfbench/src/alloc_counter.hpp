// Counting global operator new for the benchmark binary (and its tests).
//
// Every replaceable operator new in alloc_counter.cpp bumps a per-thread
// counter for the phase the calling thread is in. Each thread owns one
// cache-line slot, so the hot path is a plain load/store on memory no
// other thread writes. Totals are summed over all slots; read them only
// at quiescent points (after the threads that allocated were joined, or
// from the allocating thread itself) for exact values.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench::alloc {

/// What a thread is doing when it allocates. kOther covers sweep planning,
/// aggregation, exports and thread-pool plumbing.
enum class Phase : std::uint8_t { kOther = 0, kConstruct, kRun, kCollect, kCount };

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

using Counts = std::array<std::uint64_t, kPhaseCount>;

/// Set the calling thread's phase; returns the previous one.
Phase set_thread_phase(Phase phase);

/// Phase for threads that never set their own (the parallel engine's
/// workers): kOther by default. Only meaningful while a single run is in
/// flight, which is how the cluster workload uses it.
void set_default_phase(Phase phase);

/// The calling thread's own counts (exact at any time; all zero for a
/// thread that shares the overflow slot).
[[nodiscard]] Counts thread_counts();

/// Counts summed over every thread that ever allocated.
[[nodiscard]] Counts total_counts();

[[nodiscard]] inline std::uint64_t sum(const Counts& c) {
  std::uint64_t n = 0;
  for (const std::uint64_t v : c) n += v;
  return n;
}

/// RAII phase switch for the calling thread.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase) : prev_(set_thread_phase(phase)) {}
  ~PhaseScope() { set_thread_phase(prev_); }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Phase prev_;
};

}  // namespace perfbench::alloc

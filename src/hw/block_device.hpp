// Block storage device model: a single-server queue with a calibrated
// latency/bandwidth profile.
//
// Substitutes for the paper's SATA-SSD test device (§6.3, no SR-IOV).
// Service time = fixed access latency (reads cheaper than writes, random
// access pays a small penalty) + transfer time at the device bandwidth.
// Requests queue FIFO while the device is busy; completion invokes a
// callback that the virtio backend turns into a guest interrupt.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/engine.hpp"
#include "sim/ring_queue.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace paratick::hw {

enum class IoDir : std::uint8_t { kRead, kWrite };
enum class IoPattern : std::uint8_t { kSequential, kRandom };

struct IoRequest {
  IoDir dir = IoDir::kRead;
  IoPattern pattern = IoPattern::kSequential;
  std::uint32_t bytes = 4096;
  std::uint64_t cookie = 0;  // opaque tag the submitter gets back
  bool failed = false;       // set by fault injection; completion = error
};

struct BlockDeviceSpec {
  sim::SimTime read_latency = sim::SimTime::us(30);
  sim::SimTime write_latency = sim::SimTime::us(50);
  sim::SimTime random_read_penalty = sim::SimTime::us(12);
  sim::SimTime random_write_penalty = sim::SimTime::us(8);
  double read_bandwidth_gbps = 1.6;   // GB/s for the transfer term
  double write_bandwidth_gbps = 1.3;
  double latency_jitter = 0.08;  // relative stddev on the access latency

  /// Mid-range SATA SSD without SR-IOV — the paper's device class.
  [[nodiscard]] static BlockDeviceSpec sata_ssd() { return BlockDeviceSpec{}; }
  /// Fast NVMe profile (paper §6.3 outlook: lower-latency devices).
  [[nodiscard]] static BlockDeviceSpec nvme();
  /// Spinning disk profile (paper §4.2: high-latency device, little benefit).
  [[nodiscard]] static BlockDeviceSpec hdd();
};

class BlockDevice {
 public:
  using CompletionFn = std::function<void(const IoRequest&)>;

  BlockDevice(sim::Engine& engine, BlockDeviceSpec spec, sim::Rng rng)
      : engine_(engine), spec_(spec), rng_(rng) {}

  void set_completion_handler(CompletionFn fn) { on_complete_ = std::move(fn); }

  /// Fault-injection hook: consulted as each request starts service.
  /// `fail` completes the request as an error; `latency_factor` scales
  /// its service time (latency spike).
  struct FaultOutcome {
    bool fail = false;
    double latency_factor = 1.0;
  };
  using FaultHook = std::function<FaultOutcome(const IoRequest&)>;
  void set_fault_hook(FaultHook fn) { fault_hook_ = std::move(fn); }

  /// Enqueue a request. Completion fires after queueing + service time.
  void submit(const IoRequest& req);

  /// Deterministic mean service time for a request shape (no jitter);
  /// exposed for the analytic model and for tests.
  [[nodiscard]] sim::SimTime mean_service_time(IoDir dir, IoPattern pattern,
                                               std::uint32_t bytes) const;

  [[nodiscard]] std::uint64_t completed_requests() const { return completed_; }
  [[nodiscard]] std::uint64_t completed_bytes() const { return bytes_done_; }
  /// Requests completed with an injected error (subset of completed).
  [[nodiscard]] std::uint64_t failed_requests() const { return failed_; }
  [[nodiscard]] const sim::Accumulator& service_times_us() const { return service_us_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size() + (busy_ ? 1u : 0u); }

 private:
  void start_next();
  void finish(IoRequest req);

  sim::Engine& engine_;
  BlockDeviceSpec spec_;
  sim::Rng rng_;
  CompletionFn on_complete_;
  FaultHook fault_hook_;
  sim::RingQueue<IoRequest> queue_;
  bool busy_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t bytes_done_ = 0;
  std::uint64_t failed_ = 0;
  sim::Accumulator service_us_;
};

}  // namespace paratick::hw

// Compact, delta-encoded event traces for full-run record/replay.
//
// One record per executed engine event: the time delta to the previous
// event, the delta of the event's schedule-order sequence number, and a
// 32-bit truncation of the engine state digest — all varint-encoded, so
// a timer-heavy workload costs a few bytes per event. A running 64-bit
// chain digest folds every record as it is appended and is stored in the
// file header: deserialize() re-decodes the stream and rejects a file
// whose records do not fold back to it. It is an integrity check only;
// replays are compared with the trace record by record (TraceChecker).
//
// Recording buffers start at a fixed size (TraceRecorder) and grow with
// the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace paratick::core::record_replay {

/// One decoded trace entry. `time_ns`/`seq` are absolute (deltas are an
/// encoding detail); `digest` is the truncated engine state digest taken
/// after the event's callback ran.
struct TraceRecord {
  std::int64_t time_ns = 0;
  std::uint64_t seq = 0;
  std::uint32_t digest = 0;

  constexpr bool operator==(const TraceRecord&) const = default;
};

/// Seed of the chain digest ("paratick" in ASCII).
inline constexpr std::uint64_t kChainSeed = 0x706172617469636bull;

class EventTrace {
 public:
  /// Pre-size the byte buffer for about `events` records.
  void reserve_events(std::uint64_t events);

  void append(std::int64_t time_ns, std::uint64_t seq, std::uint32_t digest);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Chain digest over all records (kChainSeed when empty).
  [[nodiscard]] std::uint64_t chain_digest() const { return chain_; }
  [[nodiscard]] std::size_t byte_size() const { return data_.size(); }

  /// Sequential decoder (no random access — the stream is delta-coded).
  class Cursor {
   public:
    explicit Cursor(const EventTrace& trace) : trace_(&trace) {}
    /// Decode the next record into `out`; false at end of trace.
    bool next(TraceRecord* out);
    [[nodiscard]] std::uint64_t index() const { return index_; }
    /// Stream bytes consumed so far.
    [[nodiscard]] std::size_t offset() const { return pos_; }

   private:
    const EventTrace* trace_;
    std::size_t pos_ = 0;
    std::int64_t prev_time_ = 0;
    std::uint64_t prev_seq_ = 0;
    std::uint64_t index_ = 0;  // records decoded so far
  };

  /// Decode the full trace (tests, tampering tools, reports).
  [[nodiscard]] std::vector<TraceRecord> decode() const;
  /// Re-encode a record list (the tamper/repair path of tests).
  [[nodiscard]] static EventTrace from_records(
      const std::vector<TraceRecord>& records);

  /// Binary serialization: fixed little-endian header (magic, version,
  /// count, chain digest, stream size) + the varint stream. deserialize
  /// PARATICK_CHECKs (throws sim::SimError) on bad magic, a truncated
  /// varint or a time or seq delta that overflows (both name the record
  /// and its byte offset), bytes left over after the last record (named
  /// by offset), or a chain digest that does not match the re-decoded
  /// stream.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static EventTrace deserialize(const std::string& bytes);

 private:
  friend class Cursor;

  std::vector<std::uint8_t> data_;
  std::uint64_t count_ = 0;
  std::uint64_t chain_ = kChainSeed;
  std::int64_t prev_time_ = 0;
  std::uint64_t prev_seq_ = 0;
};

/// Write / read a serialized trace. write creates parent directories and
/// returns the path; every load error (unreadable file, bad magic, size
/// or digest mismatch, malformed record) is a SimError naming the path.
std::string write_trace_file(const EventTrace& trace, const std::string& path);
[[nodiscard]] EventTrace load_trace_file(const std::string& path);

}  // namespace paratick::core::record_replay

#include "core/record_replay/trace.hpp"

#include <cstring>
#include <filesystem>

#include "core/safe_io.hpp"
#include "sim/check.hpp"
#include "sim/error.hpp"

namespace paratick::core::record_replay {

namespace {

constexpr char kMagic[8] = {'P', 'T', 'K', 'T', 'R', 'C', '0', '1'};
/// Serialized header: magic, then count, chain digest and stream size as
/// u64le. The varint stream follows, so stream offset + kHeader is the
/// byte offset in a trace file.
constexpr std::size_t kHeader = sizeof kMagic + 3 * 8;

constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// Returns false on a truncated or over-long encoding.
bool get_varint(const std::vector<std::uint8_t>& data, std::size_t& pos,
                std::uint64_t* out) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    if (pos >= data.size()) return false;
    const std::uint8_t byte = data[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}

void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint64_t get_u64le(const std::string& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[pos + i]))
         << (8 * i);
  }
  return v;
}

/// One chain step: fold `r` into the running digest `h`. Mixing all three
/// fields means the chain pins event times and identities, not just the
/// truncated state digests.
std::uint64_t chain_mix(std::uint64_t h, const TraceRecord& r) {
  h = mix64(h ^ static_cast<std::uint64_t>(r.time_ns));
  h = mix64(h ^ r.seq);
  h = mix64(h ^ r.digest);
  return h;
}

}  // namespace

void EventTrace::reserve_events(std::uint64_t events) {
  // Typical record: small time delta + near-consecutive seq + digest —
  // about 8 bytes each; the digest varint dominates.
  data_.reserve(static_cast<std::size_t>(events) * 8);
}

void EventTrace::append(std::int64_t time_ns, std::uint64_t seq,
                        std::uint32_t digest) {
  put_varint(data_, zigzag(time_ns - prev_time_));
  // Seqs mostly advance by one between consecutive pops; encode the
  // offset from that expectation so the common case is a single byte.
  put_varint(data_, zigzag(static_cast<std::int64_t>(seq) -
                           static_cast<std::int64_t>(prev_seq_ + 1)));
  put_varint(data_, digest);
  prev_time_ = time_ns;
  prev_seq_ = seq;
  chain_ = chain_mix(chain_, TraceRecord{time_ns, seq, digest});
  ++count_;
}

bool EventTrace::Cursor::next(TraceRecord* out) {
  if (index_ >= trace_->count_) return false;
  const std::size_t record_start = pos_;
  std::uint64_t dt = 0, dseq = 0, digest = 0;
  const bool ok = get_varint(trace_->data_, pos_, &dt) &&
                  get_varint(trace_->data_, pos_, &dseq) &&
                  get_varint(trace_->data_, pos_, &digest);
  const auto fail = [&](const char* what) {
    const std::string msg = std::string("event trace: ") + what +
                            " in record " + std::to_string(index_) +
                            " at byte offset " +
                            std::to_string(kHeader + record_start);
    PARATICK_CHECK_MSG(false, msg.c_str());
  };
  if (!ok) fail("varint stream truncated");
  std::int64_t seq = 0;
  if (__builtin_add_overflow(prev_time_, unzigzag(dt), &out->time_ns)) {
    fail("time delta overflows");
  }
  if (__builtin_add_overflow(static_cast<std::int64_t>(prev_seq_ + 1),
                             unzigzag(dseq), &seq)) {
    fail("seq delta overflows");
  }
  out->seq = static_cast<std::uint64_t>(seq);
  out->digest = static_cast<std::uint32_t>(digest);
  prev_time_ = out->time_ns;
  prev_seq_ = out->seq;
  ++index_;
  return true;
}

std::vector<TraceRecord> EventTrace::decode() const {
  std::vector<TraceRecord> out;
  out.reserve(static_cast<std::size_t>(count_));
  Cursor cur(*this);
  TraceRecord r;
  while (cur.next(&r)) out.push_back(r);
  return out;
}

EventTrace EventTrace::from_records(const std::vector<TraceRecord>& records) {
  EventTrace t;
  t.reserve_events(records.size());
  for (const TraceRecord& r : records) t.append(r.time_ns, r.seq, r.digest);
  return t;
}

std::string EventTrace::serialize() const {
  std::string out;
  out.reserve(kHeader + data_.size());
  out.append(kMagic, sizeof kMagic);
  put_u64le(out, count_);
  put_u64le(out, chain_);
  put_u64le(out, data_.size());
  out.append(reinterpret_cast<const char*>(data_.data()), data_.size());
  return out;
}

EventTrace EventTrace::deserialize(const std::string& bytes) {
  PARATICK_CHECK_MSG(bytes.size() >= kHeader, "event trace: file too short");
  PARATICK_CHECK_MSG(std::memcmp(bytes.data(), kMagic, sizeof kMagic) == 0,
                     "event trace: bad magic (not a trace file?)");
  const std::uint64_t count = get_u64le(bytes, sizeof kMagic);
  const std::uint64_t chain = get_u64le(bytes, sizeof kMagic + 8);
  const std::uint64_t size = get_u64le(bytes, sizeof kMagic + 16);
  PARATICK_CHECK_MSG(bytes.size() == kHeader + size,
                     "event trace: stream size does not match header");

  EventTrace t;
  t.data_.assign(bytes.begin() + kHeader, bytes.end());
  t.count_ = count;
  // Re-decode the stream: recomputing the chain digest both restores the
  // delta-decoder state (prev time/seq) and verifies integrity end-to-end.
  std::uint64_t h = kChainSeed;
  Cursor cur(t);
  TraceRecord r;
  while (cur.next(&r)) h = chain_mix(h, r);
  if (cur.offset() != t.data_.size()) {
    const std::string msg =
        "event trace: " + std::to_string(t.data_.size() - cur.offset()) +
        " trailing bytes at byte offset " +
        std::to_string(kHeader + cur.offset()) + " (header count " +
        std::to_string(count) + ")";
    PARATICK_CHECK_MSG(false, msg.c_str());
  }
  PARATICK_CHECK_MSG(h == chain,
                     "event trace: chain digest mismatch (corrupt trace)");
  t.chain_ = chain;
  t.prev_time_ = r.time_ns;
  t.prev_seq_ = r.seq;
  return t;
}

std::string write_trace_file(const EventTrace& trace, const std::string& path) {
  // Atomic temp+rename: a worker SIGKILLed mid-write must not leave a
  // truncated trace next to its replay bundle.
  core::write_file_atomic(path, trace.serialize());
  return path;
}

EventTrace load_trace_file(const std::string& path) {
  const std::string bytes = core::read_file(path, "trace file");
  try {
    return EventTrace::deserialize(bytes);
  } catch (const sim::SimError& e) {
    throw sim::SimError(e.kind(), e.expr(), e.file(), e.line(),
                        e.msg() + " (trace file " + path + ")", e.sim_time(),
                        e.events_executed());
  }
}

}  // namespace paratick::core::record_replay

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/inline_callback.hpp"

namespace paratick::sim {
namespace {

TEST(InlineCallback, DefaultIsInvalid) {
  InlineCallback cb;
  EXPECT_FALSE(cb.valid());
  EXPECT_FALSE(static_cast<bool>(cb));
  EXPECT_TRUE(cb == nullptr);
  InlineCallback null_cb = nullptr;
  EXPECT_FALSE(null_cb.valid());
}

TEST(InlineCallback, InvokesStoredLambda) {
  int hits = 0;
  InlineCallback cb = [&hits] { ++hits; };
  ASSERT_TRUE(cb.valid());
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, CapturesUpToCapacityInline) {
  // A capture of exactly kCapacity bytes must fit without spilling; this
  // is the static boundary the hv continuations sit right at.
  struct Payload {
    unsigned char bytes[InlineCallback::kCapacity - sizeof(void*)] = {};
    int* out;
  };
  static_assert(sizeof(Payload) == InlineCallback::kCapacity);
  int sum = 0;
  Payload p{.out = &sum};
  p.bytes[0] = 7;
  p.bytes[sizeof(p.bytes) - 1] = 35;
  InlineCallback cb = [p] { *p.out = p.bytes[0] + p.bytes[sizeof(p.bytes) - 1]; };
  EXPECT_FALSE(cb.spilled());
  EXPECT_EQ(cb.spill_bytes(), 0u);
  cb();
  EXPECT_EQ(sum, 42);
}

TEST(InlineCallback, OversizedCaptureDoesNotConvert) {
  // The no-heap-fallback contract, checked at the type level: a lambda
  // whose capture exceeds kCapacity is rejected by the static_assert in
  // the converting constructor, so the only way to build one is spill().
  struct Big {
    unsigned char bytes[InlineCallback::kCapacity + 8] = {};
  };
  static_assert(sizeof(Big) > InlineCallback::kCapacity);
  // (Compile-time property; instantiating the negative case would be a
  // build error by design. What we can check here is that spill() accepts
  // it and reports its true size.)
  Big big;
  big.bytes[3] = 9;
  int out = 0;
  InlineCallback cb = InlineCallback::spill([big, &out] { out = big.bytes[3]; });
  EXPECT_TRUE(cb.spilled());
  EXPECT_GE(cb.spill_bytes(), sizeof(Big));
  cb();
  EXPECT_EQ(out, 9);
}

TEST(InlineCallback, MoveTransfersOwnership) {
  int hits = 0;
  InlineCallback a = [&hits] { ++hits; };
  InlineCallback b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserting the moved-from state
  ASSERT_TRUE(b.valid());
  b();
  EXPECT_EQ(hits, 1);

  InlineCallback c;
  c = std::move(b);
  EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, MoveAssignDestroysPreviousTarget) {
  // The old callable (and anything it owns) must be released on overwrite.
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineCallback holder = [token] { (void)token; };
  token.reset();
  EXPECT_FALSE(watch.expired());  // alive inside holder
  holder = InlineCallback{[] {}};
  EXPECT_TRUE(watch.expired());
}

TEST(InlineCallback, MoveOnlyCallablesAreSupported) {
  auto owned = std::make_unique<int>(11);
  int out = 0;
  InlineCallback cb = [owned = std::move(owned), &out] { out = *owned; };
  InlineCallback moved = std::move(cb);
  moved();
  EXPECT_EQ(out, 11);
}

TEST(InlineCallback, ResetReleasesTheCallable) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  InlineCallback cb = [token] { (void)token; };
  token.reset();
  cb.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(cb.valid());
}

TEST(InlineCallback, SpilledCallableSurvivesMoves) {
  struct Big {
    unsigned char bytes[128] = {};
  };
  Big big;
  big.bytes[100] = 5;
  int out = 0;
  InlineCallback a = InlineCallback::spill([big, &out] { out = big.bytes[100]; });
  InlineCallback b = std::move(a);
  InlineCallback c;
  c = std::move(b);
  EXPECT_TRUE(c.spilled());
  EXPECT_GE(c.spill_bytes(), sizeof(Big));
  c();
  EXPECT_EQ(out, 5);
}

TEST(InlineCallback, ObjectStaysCompact) {
  // One vtable-ish pointer + the buffer: the whole point is that a slot
  // map of these is allocation-free and cache-dense.
  static_assert(sizeof(InlineCallback) == InlineCallback::kCapacity + sizeof(void*));
  static_assert(!std::is_copy_constructible_v<InlineCallback>);
  static_assert(std::is_nothrow_move_constructible_v<InlineCallback>);
}

TEST(InlineCallback, TriviallyCopyableCaptureSurvivesMoveChains) {
  // A full-capacity, trivially copyable capture moves by buffer copy:
  // every byte must survive construct and assign moves, including an
  // assignment over a live callable, and the callable runs exactly once.
  struct Sink {
    int hits = 0;
    std::uint64_t sum = 0;
  };
  struct Payload {
    std::uint64_t words[4];
    Sink* sink;
  };
  static_assert(sizeof(Payload) == InlineCallback::kCapacity);
  Sink sink;
  const Payload p{{1, 20, 300, 4000}, &sink};
  auto body = [p] {
    ++p.sink->hits;
    p.sink->sum = p.words[0] + p.words[1] + p.words[2] + p.words[3];
  };
  static_assert(sizeof(body) == InlineCallback::kCapacity);
  static_assert(std::is_trivially_copyable_v<decltype(body)>);

  InlineCallback a = body;
  InlineCallback b = std::move(a);
  InlineCallback c;
  c = std::move(b);
  InlineCallback d = std::move(c);
  Sink other;
  InlineCallback e = [&other] { ++other.hits; };
  e = std::move(d);  // over a live callable
  for (const InlineCallback* moved_from : {&a, &b, &c, &d}) {
    EXPECT_FALSE(moved_from->valid());
  }
  ASSERT_TRUE(e.valid());
  EXPECT_FALSE(e.spilled());
  e();
  EXPECT_EQ(sink.hits, 1);
  EXPECT_EQ(sink.sum, 4321u);
  EXPECT_EQ(other.hits, 0);  // the overwritten callable never ran
}

TEST(InlineCallback, SharedPtrCaptureKeepsItsCountThroughMoves) {
  // A non-trivially-copyable capture takes the relocate/destroy path:
  // moves neither copy nor drop the reference, reset() and destruction
  // release it.
  auto token = std::make_shared<int>(5);
  int seen = 0;
  {
    InlineCallback a = [token, &seen] { seen = *token; };
    EXPECT_EQ(token.use_count(), 2);
    InlineCallback b = std::move(a);
    EXPECT_EQ(token.use_count(), 2);
    InlineCallback c;
    c = std::move(b);
    EXPECT_EQ(token.use_count(), 2);
    c();
    EXPECT_EQ(seen, 5);
    c.reset();
    EXPECT_EQ(token.use_count(), 1);

    InlineCallback d = [token] { (void)token; };
    InlineCallback e = std::move(d);
    EXPECT_EQ(token.use_count(), 2);
  }  // e destroyed here
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineCallback, SpillStillCountsAndMovesTheBox) {
  // spill() boxes even a small, trivially copyable callable; the box
  // (a unique_ptr) is moved through its relocate function and counted.
  int out = 0;
  InlineCallback a = InlineCallback::spill([&out] { out = 3; });
  EXPECT_TRUE(a.spilled());
  EXPECT_EQ(a.spill_bytes(), sizeof(int*));
  InlineCallback b = std::move(a);
  EXPECT_FALSE(a.spilled());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.spilled());
  EXPECT_EQ(b.spill_bytes(), sizeof(int*));
  b();
  EXPECT_EQ(out, 3);
}

}  // namespace
}  // namespace paratick::sim

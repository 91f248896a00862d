// Fixed-capacity, move-only callable for the event hot path.
//
// std::function<void()> (libstdc++) inlines captures of at most 16 bytes;
// every larger capture — and the hypervisor's VM-entry/exit continuations
// run 24..40 bytes — costs one heap allocation per scheduled event.
// InlineCallback stores the callable in a 40-byte in-object buffer with
// NO implicit heap fallback: a capture that does not fit is a compile
// error, so hot-path regressions are caught at build time instead of
// showing up as allocator traffic.
//
// The capacity is the largest capture in the tree: 40 bytes (this +
// vCPU + a 24-byte request, in hv::Kvm::exit_and_reenter). With the ops
// pointer that makes the object 48 bytes, so sim::EventQueue's slot (the
// callback plus its seq and generation) is one 64-byte cache line.
//
// Trivially copyable callables — every capture on the hot path — are
// moved by copying the whole fixed-size buffer and need no destructor
// call; only the others (a shared_ptr capture, spill() boxes) go through
// their ops table's relocate/destroy functions.
//
// Escape hatch: InlineCallback::spill(fn) boxes an oversized callable on
// the heap and records its size, which the EventQueue surfaces as the
// callback-spill counters in sim::EngineProfile — so any spill that does
// sneak in is visible in --profile output and CI history snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace paratick::sim {

class InlineCallback {
 public:
  /// In-object storage for the callable, in bytes.
  static constexpr std::size_t kCapacity = 40;
  /// Maximum alignment the buffer guarantees.
  static constexpr std::size_t kAlign = alignof(void*);

  constexpr InlineCallback() noexcept = default;
  constexpr InlineCallback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  InlineCallback(F&& fn) {  // NOLINT(google-explicit-constructor)
    using D = std::remove_cvref_t<F>;
    static_assert(sizeof(D) <= kCapacity,
                  "capture is larger than InlineCallback::kCapacity: shrink "
                  "the capture (capture a pointer to long-lived state) or, if "
                  "the allocation is genuinely wanted, use "
                  "InlineCallback::spill()");
    static_assert(alignof(D) <= kAlign,
                  "capture is over-aligned for InlineCallback's buffer");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "InlineCallback requires a noexcept-movable callable");
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
    // Whole-buffer moves copy the tail too: give it defined bytes.
    if constexpr (sizeof(D) < kCapacity) {
      std::memset(buf_ + sizeof(D), 0, kCapacity - sizeof(D));
    }
    ops_ = &OpsFor<D>::value;
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) take_buffer(other);
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        take_buffer(other);
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  /// Box `fn` on the heap. The deliberate, visible opt-out for callables
  /// over kCapacity; the wrapper itself (one pointer) always fits inline.
  template <typename F>
  [[nodiscard]] static InlineCallback spill(F&& fn) {
    using D = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>);
    InlineCallback cb;
    ::new (static_cast<void*>(cb.buf_))
        Boxed<D>{std::make_unique<D>(std::forward<F>(fn))};
    cb.ops_ = &SpillOpsFor<D>::value;
    return cb;
  }

  /// Invoke the stored callable. Precondition: valid().
  void operator()() { ops_->invoke(buf_); }

  [[nodiscard]] bool valid() const noexcept { return ops_ != nullptr; }
  explicit operator bool() const noexcept { return valid(); }
  friend bool operator==(const InlineCallback& cb, std::nullptr_t) noexcept {
    return !cb.valid();
  }

  /// True when the callable was heap-boxed via spill().
  [[nodiscard]] bool spilled() const noexcept {
    return ops_ != nullptr && ops_->spill_bytes != 0;
  }
  /// Heap bytes behind this callable (0 unless spilled).
  [[nodiscard]] std::size_t spill_bytes() const noexcept {
    return ops_ == nullptr ? 0 : ops_->spill_bytes;
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct, then destroy src; nullptr: copy the buffer.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr: trivially destructible, nothing to do.
    void (*destroy)(void*) noexcept;
    std::uint32_t spill_bytes;
  };

  /// Move other's callable (ops_ already copied, non-null) into buf_.
  void take_buffer(InlineCallback& other) noexcept {
    if (ops_->relocate == nullptr) {
      std::memcpy(buf_, other.buf_, kCapacity);
    } else {
      ops_->relocate(buf_, other.buf_);
    }
    other.ops_ = nullptr;
  }

  template <typename D, std::uint32_t SpillBytes>
  struct OpsImpl {
    static void invoke(void* p) { (*std::launder(static_cast<D*>(p)))(); }
    static void relocate(void* dst, void* src) noexcept {
      D* s = std::launder(static_cast<D*>(src));
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void destroy(void* p) noexcept { std::launder(static_cast<D*>(p))->~D(); }
    static constexpr bool kTrivial = std::is_trivially_copyable_v<D>;
    static constexpr Ops value{&invoke, kTrivial ? nullptr : &relocate,
                               kTrivial ? nullptr : &destroy, SpillBytes};
  };

  template <typename D>
  struct Boxed {
    std::unique_ptr<D> fn;
    void operator()() { (*fn)(); }
  };

  template <typename D>
  using OpsFor = OpsImpl<D, 0>;
  template <typename D>
  using SpillOpsFor = OpsImpl<Boxed<D>, static_cast<std::uint32_t>(sizeof(D))>;

  const Ops* ops_ = nullptr;
  alignas(kAlign) unsigned char buf_[kCapacity];
};

static_assert(sizeof(InlineCallback) == 48,
              "the ops pointer plus the buffer: EventQueue's slot is sized to it");

}  // namespace paratick::sim

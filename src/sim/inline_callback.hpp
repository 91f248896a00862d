// Fixed-capacity, move-only callable for the event hot path.
//
// std::function<void()> (libstdc++) inlines captures of at most 16 bytes;
// every larger capture — and the hypervisor's VM-entry/exit continuations
// run 24..72 bytes — costs one heap allocation per scheduled event.
// InlineCallback stores the callable in a 72-byte in-object buffer with
// NO implicit heap fallback: a capture that does not fit is a compile
// error, so hot-path regressions are caught at build time instead of
// showing up as allocator traffic.
//
// The capacity was sized to hv::Kvm's do_exit lambdas when they still
// carried a std::function port completion (72 bytes). Port verbs now
// complete through hv::GuestCpuIface::port_done(), and the largest
// capture in the tree is 40 bytes (this + vCPU + a 24-byte request, in
// Kvm::exit_and_reenter); the capacity stays until a smaller one is
// measured to pay.
//
// Escape hatch: InlineCallback::spill(fn) boxes an oversized callable on
// the heap and records its size, which the EventQueue surfaces as the
// callback-spill counters in sim::EngineProfile — so any spill that does
// sneak in is visible in --profile output and CI history snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace paratick::sim {

class InlineCallback {
 public:
  /// In-object storage for the callable, in bytes.
  static constexpr std::size_t kCapacity = 72;
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
    ops_ = &OpsFor<D>::value;
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
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
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct, then destroy src
    void (*destroy)(void*) noexcept;
    std::uint32_t spill_bytes;
  };

  template <typename D, std::uint32_t SpillBytes>
  struct OpsImpl {
    static void invoke(void* p) { (*std::launder(static_cast<D*>(p)))(); }
    static void relocate(void* dst, void* src) noexcept {
      D* s = std::launder(static_cast<D*>(src));
      ::new (dst) D(std::move(*s));
      s->~D();
    }
    static void destroy(void* p) noexcept { std::launder(static_cast<D*>(p))->~D(); }
    static constexpr Ops value{&invoke, &relocate, &destroy, SpillBytes};
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

}  // namespace paratick::sim

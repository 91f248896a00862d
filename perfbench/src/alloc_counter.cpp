#include "alloc_counter.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {

namespace {

/// One slot per thread that ever allocated. Benchmark processes create a
/// few hundred threads at most (sweep pools plus parallel-engine pools);
/// past kSlots, threads share the overflow slot through atomic adds.
constexpr std::size_t kSlots = 4096;

struct alignas(64) Slot {
  std::array<std::atomic<std::uint64_t>, kPhaseCount> n{};
};

Slot g_slots[kSlots];
Slot g_overflow;
std::atomic<std::size_t> g_next_slot{0};
std::atomic<Phase> g_default_phase{Phase::kOther};

// kCount means "unset: use the process default phase".
constinit thread_local Phase t_phase = Phase::kCount;
constinit thread_local Slot* t_slot = nullptr;

void count_one() {
  Slot* slot = t_slot;
  if (slot == nullptr) {
    const std::size_t i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    slot = i < kSlots ? &g_slots[i] : &g_overflow;
    t_slot = slot;
  }
  const Phase p = t_phase == Phase::kCount
                      ? g_default_phase.load(std::memory_order_relaxed)
                      : t_phase;
  std::atomic<std::uint64_t>& c = slot->n[static_cast<std::size_t>(p)];
  if (slot == &g_overflow) {
    c.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Single writer: the owning thread. A plain load/store keeps the hot
    // path free of locked instructions.
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  count_one();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void add(Counts& out, const Slot& slot) {
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    out[i] += slot.n[i].load(std::memory_order_relaxed);
  }
}

}  // namespace

Phase set_thread_phase(Phase phase) {
  const Phase prev = t_phase;
  t_phase = phase;
  return prev;
}

void set_default_phase(Phase phase) {
  g_default_phase.store(phase, std::memory_order_relaxed);
}

Counts thread_counts() {
  Counts out{};
  if (t_slot != nullptr && t_slot != &g_overflow) add(out, *t_slot);
  return out;
}

Counts total_counts() {
  Counts out{};
  const std::size_t used =
      std::min(g_next_slot.load(std::memory_order_relaxed), kSlots);
  for (std::size_t i = 0; i < used; ++i) add(out, g_slots[i]);
  add(out, g_overflow);
  return out;
}

}  // namespace perfbench::alloc

using perfbench::alloc::allocate;
using perfbench::alloc::allocate_aligned;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return allocate_aligned(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

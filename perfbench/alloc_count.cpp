#include "alloc_count.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace pb {
namespace {

// One cache line per thread: written only by its owner, read by anyone
// summing.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> bytes{0};
};

constexpr int kSlots = 4096;
Slot g_slots[kSlots];
std::atomic<int> g_used{0};
thread_local Slot* t_slot = nullptr;

Slot* my_slot() {
  if (t_slot == nullptr) {
    const int i = g_used.fetch_add(1, std::memory_order_relaxed);
    if (i >= kSlots) {
      std::fputs("perfbench: more threads than allocation slots\n", stderr);
      std::abort();
    }
    t_slot = &g_slots[i];
  }
  return t_slot;
}

void count(std::size_t n) {
  Slot* s = my_slot();
  s->count.store(s->count.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  s->bytes.store(s->bytes.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
}

void* alloc(std::size_t n) {
  count(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* alloc_nothrow(std::size_t n) noexcept {
  count(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* alloc_aligned(std::size_t n, std::align_val_t al) {
  count(n);
  const std::size_t a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

AllocTotals alloc_totals() {
  AllocTotals t;
  const int n = g_used.load(std::memory_order_relaxed);
  for (int i = 0; i < n && i < kSlots; ++i) {
    t.count += g_slots[i].count.load(std::memory_order_relaxed);
    t.bytes += g_slots[i].bytes.load(std::memory_order_relaxed);
  }
  return t;
}

AllocTotals thread_alloc_totals() {
  const Slot* s = my_slot();
  return {s->count.load(std::memory_order_relaxed),
          s->bytes.load(std::memory_order_relaxed)};
}

}  // namespace pb

void* operator new(std::size_t n) { return pb::alloc(n); }
void* operator new[](std::size_t n) { return pb::alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return pb::alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return pb::alloc_nothrow(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return pb::alloc_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return pb::alloc_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

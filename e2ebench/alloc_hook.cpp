// Global allocation counter for the benchmark binary.
//
// Replacing the global operator new/delete family here, in the benchmark's
// own translation unit, counts every heap allocation the linked program
// makes (the library code under test included) without touching src/.
// The counter is one relaxed atomic; the benchmark reads it before and
// after each timed window.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace sxb {

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align) < sizeof(void*)
                            ? sizeof(void*)
                            : static_cast<std::size_t>(align);
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) return nullptr;
  return p;
}
}  // namespace

/// Heap allocations made by the whole process so far.
std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace sxb

void* operator new(std::size_t size) {
  if (void* p = sxb::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = sxb::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return sxb::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return sxb::counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = sxb::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = sxb::counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return sxb::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return sxb::counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

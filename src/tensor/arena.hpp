// Static memory arena for the FUSA runtime path.
//
// Functional-safety standards (e.g. ISO 26262-6, DO-178C) effectively forbid
// dynamic memory allocation during operation. The StaticEngine pre-plans all
// activation buffers out of an Arena sized at configuration time; after
// setup, inference performs zero heap allocations (asserted in tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>

#include "util/status.hpp"

namespace sx::tensor {

/// Alignment of panel and arena backing storage: 64 bytes == one cache
/// line. The kernel panel planners round block offsets up to cache-line
/// multiples; that only yields truly aligned blocks when the base pointer
/// itself is cache-line aligned — plain new[]/make_unique guarantees only
/// fundamental alignment (typically 16 bytes).
inline constexpr std::size_t kStorageAlignBytes = 64;

namespace detail {
struct AlignedArrayDelete {
  template <typename T>
  void operator()(T* p) const noexcept {
    ::operator delete[](static_cast<void*>(p),
                        std::align_val_t{kStorageAlignBytes});
  }
};
}  // namespace detail

/// Owning cache-line-aligned array storage (value-initialized).
template <typename T>
using AlignedStorage = std::unique_ptr<T[], detail::AlignedArrayDelete>;

/// Allocates `n` value-initialized elements at kStorageAlignBytes
/// alignment. Configuration-time only, like every other allocation here.
template <typename T>
AlignedStorage<T> make_aligned_storage(std::size_t n) {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedArrayDelete deallocates without destroying");
  return AlignedStorage<T>(
      new (std::align_val_t{kStorageAlignBytes}) T[n]());  // sxlint: allow(hot-path-alloc) the one configuration-time allocation behind every aligned panel/arena
}

/// Bump allocator over a single contiguous float buffer.
///
/// Allocation is monotonic; reset() releases everything at once (between
/// inferences). The high-water mark is tracked for certification evidence
/// ("worst-case memory demand").
class Arena {
 public:
  /// Creates an arena holding `capacity` floats. Allocates once, here,
  /// at configuration time — never afterwards. The buffer starts on a
  /// cache line, so the wide kernels' activation loads do not straddle
  /// lines by an accident of heap layout (a CNN decision's throughput
  /// moved by up to a quarter with it). The line is reached by padding a
  /// plain allocation: aligned allocations raised resident memory across
  /// repeated deployments.
  explicit Arena(std::size_t capacity)
      : storage_(std::make_unique<float[]>(capacity + kPadFloats)),  // sxlint: allow(hot-path-alloc) the one configuration-time allocation the arena exists to own
        base_(storage_.get() + pad_floats(storage_.get())),
        capacity_(capacity) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `n` floats; returns an empty span when exhausted.
  std::span<float> alloc(std::size_t n) noexcept {
    if (used_ + n > capacity_) return {};
    std::span<float> out{base_ + used_, n};
    used_ += n;
    high_water_ = used_ > high_water_ ? used_ : high_water_;
    return out;
  }

  /// Releases all allocations (buffers become invalid).
  void reset() noexcept { used_ = 0; }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t used() const noexcept { return used_; }
  std::size_t available() const noexcept { return capacity_ - used_; }
  /// Worst-case demand observed since construction.
  std::size_t high_water_mark() const noexcept { return high_water_; }

 private:
  static constexpr std::size_t kPadFloats =
      kStorageAlignBytes / sizeof(float) - 1;
  /// Floats from `p` to the next cache-line boundary.
  static std::size_t pad_floats(const float* p) noexcept {
    const auto misalign =
        reinterpret_cast<std::uintptr_t>(p) % kStorageAlignBytes;
    return misalign == 0 ? 0 : (kStorageAlignBytes - misalign) / sizeof(float);
  }

  std::unique_ptr<float[]> storage_;
  float* base_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
};

/// Bump allocator over a single contiguous int8 buffer — the quantized
/// engine's analog of Arena (the int8 path's activations are bytes, not
/// floats). Same discipline: one allocation at
/// configuration time, monotonic alloc, high-water mark as evidence.
class ByteArena {
 public:
  /// The backing storage is cache-line aligned, so the arena's first
  /// carve-out (and any later one whose cumulative offset is a multiple of
  /// kStorageAlignBytes) starts on a cache line.
  explicit ByteArena(std::size_t capacity)
      : storage_(make_aligned_storage<std::int8_t>(capacity)),
        capacity_(capacity) {}

  ByteArena(const ByteArena&) = delete;
  ByteArena& operator=(const ByteArena&) = delete;

  /// Allocates `n` bytes; returns an empty span when exhausted.
  std::span<std::int8_t> alloc(std::size_t n) noexcept {
    if (used_ + n > capacity_) return {};
    std::span<std::int8_t> out{storage_.get() + used_, n};
    used_ += n;
    high_water_ = used_ > high_water_ ? used_ : high_water_;
    return out;
  }

  void reset() noexcept { used_ = 0; }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t used() const noexcept { return used_; }
  std::size_t available() const noexcept { return capacity_ - used_; }
  std::size_t high_water_mark() const noexcept { return high_water_; }

 private:
  AlignedStorage<std::int8_t> storage_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace sx::tensor

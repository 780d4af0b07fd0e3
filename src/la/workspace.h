// Peak-workspace accounting for the dense containers.
//
// Every owning MatrixT allocation (FP64 or FP32) routes through TrackingAlloc,
// which maintains a process-wide current-bytes counter and a monotone peak.
// The counters are relaxed atomics — numerics are untouched and the
// overhead is one add per container allocation, not per element — so the
// values-only memory claim (ISSUE: peak strictly below the standard path)
// can be *measured*, not argued. Scoped usage:
//
//   la::workspace_reset_peak();
//   ... run a driver ...
//   std::size_t peak = la::workspace_peak_bytes();
//
// The peak is global (not per-thread): concurrent drivers sum into one
// high-water mark, which is what a capacity planner wants anyway.
#pragma once

#include <cstddef>
#include <new>

namespace tdg::la {

namespace detail {
void track_alloc(std::size_t bytes);
void track_dealloc(std::size_t bytes);
}  // namespace detail

/// Bytes currently held by tracked containers.
std::size_t workspace_current_bytes();

/// High-water mark since the last reset (monotone between resets).
std::size_t workspace_peak_bytes();

/// Restart the peak from the current live footprint.
void workspace_reset_peak();

/// Minimal allocator wrapper: operator new plus the byte counters.
template <class T>
struct TrackingAlloc {
  using value_type = T;

  TrackingAlloc() = default;
  template <class U>
  TrackingAlloc(const TrackingAlloc<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    detail::track_alloc(n * sizeof(T));
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    detail::track_dealloc(n * sizeof(T));
    ::operator delete(p);
  }

  template <class U>
  bool operator==(const TrackingAlloc<U>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const TrackingAlloc<U>&) const noexcept {
    return false;
  }
};

}  // namespace tdg::la

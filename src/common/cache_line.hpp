// Cache-line placement for state that different partition threads write in
// the same simulated cycle (docs/partitioning.md). Two threads writing one
// line serialize on it even when they touch different bytes (false
// sharing), so each such block starts on a line of its own and fills whole
// lines.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace tcmp {

/// Cache-line size of the hosts the partitioned driver targets (x86-64 and
/// the common AArch64 servers). A constant rather than
/// std::hardware_destructive_interference_size, whose value GCC warns can
/// change with tuning flags.
inline constexpr std::size_t kCacheLine = 64;

/// Allocator whose blocks start on a cache line and span whole lines, so no
/// two blocks, and no block and a neighbouring heap object, share a line.
template <typename T>
class CacheLineAllocator {
 public:
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  explicit(false) CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(padded(n), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, padded(n), std::align_val_t{kCacheLine});
  }

  friend bool operator==(const CacheLineAllocator&, const CacheLineAllocator&) {
    return true;
  }

 private:
  [[nodiscard]] static std::size_t padded(std::size_t n) {
    return (n * sizeof(T) + kCacheLine - 1) / kCacheLine * kCacheLine;
  }
};

/// A vector whose elements occupy cache lines of their own.
template <typename T>
using CacheLineVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace tcmp

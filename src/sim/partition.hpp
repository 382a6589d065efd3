// Partitioned-driver building blocks (docs/partitioning.md): the static
// tile-to-partition map and the cycle-lockstep spin barrier.
//
// A PartitionPlan slices the mesh into K contiguous row blocks, so each
// partition owns a rectangular sub-mesh and every cross-partition NoC link
// is a vertical mesh link (north/south between adjacent row blocks). That
// gives the synchronization horizon its floor: the minimum cross-partition
// link latency is the minimum vertical-link latency, >= 1 cycle, so a flit
// or credit produced in cycle t can only be consumed in cycle t+1 or later —
// one barrier crossing per simulated cycle is enough for determinism (the
// argument is spelled out in docs/partitioning.md).
#pragma once

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/cache_line.hpp"
#include "common/check.hpp"

namespace tcmp::sim {

/// Static contiguous row-block partition of a W x H mesh into K blocks.
/// Tiles are row-major (node = y * W + x), so each partition owns the
/// contiguous node range [first(p), first(p+1)). K is clamped to H: a row is
/// the finest grain that keeps every cross-partition link vertical.
class PartitionPlan {
 public:
  PartitionPlan() : PartitionPlan(1, 1, 1) {}

  PartitionPlan(unsigned mesh_width, unsigned mesh_height, unsigned k)
      : width_(mesh_width) {
    TCMP_CHECK(mesh_width >= 1 && mesh_height >= 1 && k >= 1);
    if (k > mesh_height) k = mesh_height;
    // Spread rows as evenly as possible: the first (H % K) partitions get
    // one extra row.
    first_row_.reserve(k + 1);
    unsigned row = 0;
    for (unsigned p = 0; p < k; ++p) {
      first_row_.push_back(row);
      row += mesh_height / k + (p < mesh_height % k ? 1 : 0);
    }
    first_row_.push_back(mesh_height);
    TCMP_CHECK(row == mesh_height);
  }

  [[nodiscard]] unsigned num_partitions() const {
    return static_cast<unsigned>(first_row_.size()) - 1;
  }
  /// First node id owned by partition p (p == K gives one-past-the-end).
  [[nodiscard]] unsigned first(unsigned p) const { return first_row_[p] * width_; }
  [[nodiscard]] unsigned count(unsigned p) const { return first(p + 1) - first(p); }
  /// Owning partition of a node id: a linear scan over K+1 boundaries —
  /// callers on hot paths cache per-node results (Network keeps a per-node
  /// table).
  [[nodiscard]] unsigned part_of(unsigned node) const {
    unsigned p = 0;
    while (first(p + 1) <= node) ++p;
    return p;
  }

 private:
  unsigned width_;
  std::vector<unsigned> first_row_;  ///< K+1 row boundaries, last == H
};

/// Sense-reversing spin barrier for the cycle-lockstep driver: one
/// participant per driver thread (min(K, host cores): the workers plus the
/// coordinator), one crossing per live simulated cycle. The last thread to
/// arrive runs the crossing's completion before it releases the others
/// (std::barrier's contract): everything each participant wrote before
/// arriving is visible to the completion, and everything the completion
/// writes is visible to every participant once it leaves.
/// Spinning (not std::condition_variable) is deliberate — partitions leave
/// the barrier within tens of nanoseconds of each other on a saturated mesh,
/// and a futex round trip per cycle would dominate the cycle itself. After a
/// bounded spin the waiter yields: on an oversubscribed host (more
/// participants than free cores) unbounded spinning turns each barrier into
/// a full scheduler quantum, livelocking the lockstep.
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned participants) : total_(participants) {}

  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    // acq_rel: the read-modify-writes on arrived_ chain every earlier
    // arrival's writes to the last arriver, which runs the completion.
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == total_) {
      arrived_.store(0, std::memory_order_relaxed);
      completion();
      sense_.store(my_sense, std::memory_order_release);  // releases the rest
    } else {
      unsigned spins = 0;
      while (sense_.load(std::memory_order_acquire) != my_sense) {
        if (++spins >= kSpinsBeforeYield) {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }

 private:
  static constexpr unsigned kSpinsBeforeYield = 1u << 12;

  const unsigned total_;
  // One line each: arrivals write arrived_ while the spinners poll sense_.
  alignas(kCacheLine) std::atomic<unsigned> arrived_{0};
  alignas(kCacheLine) std::atomic<bool> sense_{false};
};

}  // namespace tcmp::sim

// Timed FIFOs used to model fixed access latencies inside tiles (L2 tag/data
// pipelines, off-chip memory). Items pushed with a ready cycle pop in ready
// order; ties preserve insertion order, keeping the simulation deterministic.
//
// Two implementations with the same API:
//   DelayQueue      — a heap; accepts deadlines in any order. Needed where a
//                     single queue mixes latencies (the protocol test
//                     fabric's unordered wire).
//   FifoDelayQueue  — a plain ring; requires monotone (non-decreasing)
//                     deadlines, which holds for any pipe pushed with a
//                     per-instance-constant latency at non-decreasing `now`
//                     (L2 access pipe, memory pipe, tile loopback, per-port
//                     link arrivals). Ready order then equals insertion
//                     order, so the heap's O(log n) churn and seq tiebreak
//                     are pure overhead. The monotonicity contract is
//                     enforced by a debug check on every push.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "common/check.hpp"
#include "common/queues.hpp"
#include "common/types.hpp"

namespace tcmp::protocol {

template <typename T>
class DelayQueue {
 public:
  void push(Cycle ready_at, T item) {
    heap_.push(Node{ready_at, next_seq_++, std::move(item)});
  }

  /// Pop the next item whose ready cycle has arrived, if any.
  [[nodiscard]] std::optional<T> pop_ready(Cycle now) {
    if (heap_.empty() || heap_.top().ready_at > now) return std::nullopt;
    T item = std::move(const_cast<Node&>(heap_.top()).item);
    heap_.pop();
    return item;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Earliest ready cycle of any queued item (kNeverCycle when empty) —
  /// used by the simulator's idle fast-forwarding.
  [[nodiscard]] Cycle next_ready() const {
    return heap_.empty() ? kNeverCycle : heap_.top().ready_at;
  }

  /// Checkpoint serialization (common/snapshot.hpp). The heap is drained
  /// from a copy in pop order — (ready_at, seq) is a total order, so the
  /// serialized sequence (and the rebuilt heap's pop order) is independent
  /// of the internal array layout.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(next_seq_);
    if constexpr (Ar::kIsWriter) {
      ar.raw_u64(heap_.size());
      auto copy = heap_;
      while (!copy.empty()) {
        Node n = copy.top();
        copy.pop();
        ar.field(n.ready_at);
        ar.field(n.seq);
        ar.field(n.item);
      }
    } else {
      heap_ = {};
      for (std::uint64_t n = ar.raw_u64(); n > 0; --n) {
        Node node{};
        ar.field(node.ready_at);
        ar.field(node.seq);
        ar.field(node.item);
        heap_.push(std::move(node));
      }
    }
  }

 private:
  struct Node {
    Cycle ready_at;
    std::uint64_t seq = 0;
    T item;
    bool operator>(const Node& o) const {
      return ready_at != o.ready_at ? ready_at > o.ready_at : seq > o.seq;
    }
  };
  std::priority_queue<Node, std::vector<Node>, std::greater<>> heap_;
  std::uint64_t next_seq_ = 0;
};

/// DelayQueue specialization for pipes whose deadlines arrive in
/// non-decreasing order (see file comment): a small-buffer ring whose front
/// carries the earliest deadline by construction.
template <typename T>
class FifoDelayQueue {
 public:
  void push(Cycle ready_at, T item) {
    TCMP_DCHECK_MSG(q_.empty() || ready_at >= q_.back().ready_at,
                    "FifoDelayQueue requires non-decreasing deadlines");
    q_.push_back(Node{ready_at, std::move(item)});
  }

  /// Pop the next item whose ready cycle has arrived, if any.
  [[nodiscard]] std::optional<T> pop_ready(Cycle now) {
    if (q_.empty() || q_.front().ready_at > now) return std::nullopt;
    T item = std::move(q_.front().item);
    q_.pop_front();
    return item;
  }

  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }

  /// Earliest ready cycle of any queued item (kNeverCycle when empty) —
  /// used by the simulator's idle fast-forwarding.
  [[nodiscard]] Cycle next_ready() const {
    return q_.empty() ? kNeverCycle : q_.front().ready_at;
  }

  /// Checkpoint serialization (common/snapshot.hpp).
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(q_);
  }

 private:
  struct Node {
    Cycle ready_at{};
    T item{};

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(ready_at);
      ar.field(item);
    }
  };
  SmallQueue<Node, 4> q_;
};

}  // namespace tcmp::protocol

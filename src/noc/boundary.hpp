// Inter-partition boundary channels (docs/partitioning.md): the message
// queues that replace the two direct cross-router writes a mesh link makes
// (a flit into the downstream input queue, a credit into the upstream return
// heap) when the link crosses a partition boundary.
//
// Each channel is one DIRECTED partition pair and is double-buffered:
// producers append to the `pending` side during the parallel phase (single
// writer — only the producing partition's thread touches it), the serial
// epilogue swaps pending and ready between the cycle's two barriers, and the
// consuming partition drains the `ready` side at the start of its next
// parallel phase (single reader). The barrier provides the happens-before
// edge, so no atomics are needed.
//
// Timing is preserved exactly: events carry the same deadline the direct
// write would have used (flit: t + 1 + link_cycles, credit: t + link_cycles,
// for a link traversed in cycle t), and with link_cycles >= 1 — the
// synchronization horizon the Network constructor enforces — every deadline
// is >= t + 1, so draining at the start of cycle t + 1 lands the event in
// the downstream queue before anything can legally consume it.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "noc/router.hpp"

namespace tcmp::noc {

class BoundaryChannel {
 public:
  /// Producer side (parallel phase, producing partition only): a flit that
  /// crossed the switch of an upstream router whose link leads into `router`
  /// (owned by the consuming partition).
  void push_flit(Router* router, unsigned port, unsigned vc, Cycle deadline,
                 Flit&& flit) {
    pending_flits_.push_back(FlitEvent{router, port, vc, deadline, std::move(flit)});
  }

  /// Producer side: a credit return headed for `router` (the upstream of a
  /// cross-partition link, owned by the consuming partition).
  void push_credit(Router* router, unsigned out_port, unsigned vc, Cycle deadline) {
    pending_credits_.push_back(CreditEvent{router, out_port, vc, deadline});
  }

  /// Serial epilogue (between the cycle's barriers): publish this cycle's
  /// flits to the consumer and apply the credits right away. Returns the
  /// earliest flit deadline now sitting on the ready side (kNeverCycle when
  /// none) — the consumer partition's contribution to the global next-wake,
  /// since its own next wake cannot know about events it has not drained
  /// yet.
  ///
  /// Credits are applied here, not double-buffered: both partitions are
  /// parked at the barrier, so the serial write into the upstream router's
  /// credit heap is race-free, and the heap already defers the credit to its
  /// deadline — the same cycle the direct-link path would apply it. Keeping
  /// credits out of the channel preserves the seed's finish rule: in-flight
  /// credit returns never delay end-of-run detection (they are not part of
  /// Router::quiescent(), and the wake argument in docs/kernel.md covers
  /// them without a boundary deadline).
  Cycle exchange() {
    TCMP_CHECK_MSG(ready_flits_.empty(),
                   "boundary events published but never drained");
    for (const CreditEvent& e : pending_credits_) {
      e.router->external_credit(e.out_port, e.vc, e.deadline);
    }
    pending_credits_.clear();
    std::swap(pending_flits_, ready_flits_);
    Cycle nxt = kNeverCycle;
    for (const FlitEvent& e : ready_flits_) nxt = std::min(nxt, e.deadline);
    return nxt;
  }

  /// Consumer side (start of the consuming partition's parallel phase):
  /// apply every published flit to its router, exactly the write the
  /// direct-link path would have made.
  void drain() {
    for (FlitEvent& e : ready_flits_) {
      e.router->external_arrival(e.port, e.vc, e.deadline, std::move(e.flit));
    }
    ready_flits_.clear();
  }

  [[nodiscard]] bool empty() const {
    return pending_flits_.empty() && pending_credits_.empty() &&
           ready_flits_.empty();
  }

 private:
  struct FlitEvent {
    Router* router = nullptr;
    unsigned port = 0;
    unsigned vc = 0;
    Cycle deadline{};
    Flit flit{};
  };
  struct CreditEvent {
    Router* router = nullptr;
    unsigned out_port = 0;
    unsigned vc = 0;
    Cycle deadline{};
  };

  std::vector<FlitEvent> pending_flits_, ready_flits_;
  std::vector<CreditEvent> pending_credits_;  ///< applied at exchange()
};

}  // namespace tcmp::noc

// Inter-partition boundary channels (docs/partitioning.md): the message
// queues that replace the two direct cross-router writes a mesh link makes
// (a flit into the downstream input ring, a credit into the upstream credit
// FIFO) when the link crosses a partition boundary. A tail flit also moves
// its packet's record from the producer's PacketSlab to the consumer's.
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
// write would have used (flit arrival: t + 1 + link_cycles, credit:
// t + link_cycles, for a link traversed in cycle t), and with link_cycles
// >= 1 — the synchronization horizon the Network constructor enforces —
// every deadline is >= t + 1, so draining at the start of cycle t + 1 lands
// the event in the downstream router before anything can legally consume
// it.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "noc/router.hpp"

namespace tcmp::noc {

class BoundaryChannel {
 public:
  /// The channel from the partition owning `producer` to the one owning
  /// `consumer`.
  BoundaryChannel(PacketSlab* producer, PacketSlab* consumer)
      : producer_(producer), consumer_(consumer) {}

  /// Producer side (parallel phase, producing partition only): a flit that
  /// crossed the switch of an upstream router whose link leads into `router`
  /// (owned by the consuming partition). A tail takes its packet record out
  /// of the producer's slab.
  void push_flit(Router* router, unsigned port, Cycle at, const Flit& flit) {
    FlitEvent& e = pending_flits_.emplace_back(FlitEvent{router, port, at, flit, {}});
    if (flit.tail) e.packet = producer_->release(flit.packet);
  }

  /// Producer side: a credit return headed for `router` (the upstream of a
  /// cross-partition link, owned by the consuming partition).
  void push_credit(Router* router, unsigned out_port, unsigned vnet, Cycle deadline) {
    pending_credits_.push_back(CreditEvent{router, out_port, vnet, deadline});
  }

  /// Serial epilogue (between the cycle's barriers): publish this cycle's
  /// flits to the consumer and apply the credits right away. Returns the
  /// earliest flit arrival now sitting on the ready side (kNeverCycle when
  /// none) — the consumer partition's contribution to the global next-wake,
  /// since its own next wake cannot know about events it has not drained
  /// yet.
  ///
  /// Credits are applied here, not double-buffered: both partitions are
  /// parked at the barrier, so the serial write into the upstream router's
  /// credit FIFO is race-free, and the FIFO already defers the credit to its
  /// deadline — switch allocation counts it no earlier than the direct-link
  /// path would. Keeping credits out of the channel preserves the seed's
  /// finish rule: in-flight credit returns never delay end-of-run detection
  /// (they are not part of Router::quiescent(), and the wake argument in
  /// docs/kernel.md covers them without a boundary deadline).
  Cycle exchange() {
    TCMP_CHECK_MSG(ready_flits_.empty(),
                   "boundary events published but never drained");
    for (const CreditEvent& e : pending_credits_) {
      e.router->external_credit(e.out_port, e.vnet, e.deadline);
    }
    pending_credits_.clear();
    std::swap(pending_flits_, ready_flits_);
    Cycle nxt = kNeverCycle;
    for (const FlitEvent& e : ready_flits_) nxt = std::min(nxt, e.at);
    return nxt;
  }

  /// Consumer side (start of the consuming partition's parallel phase):
  /// apply every published flit to its router, exactly the write the
  /// direct-link path would have made; a tail's packet record joins the
  /// consumer's slab under a new handle.
  void drain() {
    for (FlitEvent& e : ready_flits_) {
      if (e.flit.tail) e.flit.packet = consumer_->alloc(e.packet);
      e.router->external_arrival(e.port, e.at, e.flit);
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
    Cycle at{};        ///< arrival cycle at the downstream router
    Flit flit{};
    PacketRecord packet{};  ///< tail flits only: the record in transit
  };
  struct CreditEvent {
    Router* router = nullptr;
    unsigned out_port = 0;
    unsigned vnet = 0;
    Cycle deadline{};
  };

  PacketSlab* producer_;
  PacketSlab* consumer_;
  std::vector<FlitEvent> pending_flits_, ready_flits_;
  std::vector<CreditEvent> pending_credits_;  ///< applied at exchange()
};

}  // namespace tcmp::noc

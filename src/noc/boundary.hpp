// Inter-partition boundary channels (docs/partitioning.md): the message
// queues that replace the two direct cross-router writes a mesh link makes
// (a flit into the downstream input ring, a credit into the upstream credit
// FIFO) when the link crosses a partition boundary. A tail flit also moves
// its packet's record from the producer's PacketSlab to the consumer's.
//
// Each channel is one DIRECTED partition pair and a parity double buffer.
// Each side owns its buffer index and flips it at the start of its
// partition's phase, once per live cycle: in live cycle n the producer
// appends to buffer n & 1 while the consumer drains buffer (n - 1) & 1,
// everything the producer wrote in the previous live cycle. The two sides
// never touch the same buffer within a cycle, and the cycle's single
// barrier crossing orders a buffer's writes before its drain, so no atomics
// are needed and no serial step touches a channel.
//
// Timing is preserved exactly: events carry the same deadline the direct
// write would have used (flit arrival: t + 1 + link_cycles, credit:
// t + link_cycles, for a link traversed in cycle t), and with link_cycles
// >= 1 — the synchronization horizon the Network constructor enforces —
// every deadline is >= t + 1, so draining at the start of the next live
// cycle lands the event in the downstream router before anything can
// legally consume it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/cache_line.hpp"
#include "common/types.hpp"
#include "noc/router.hpp"

namespace tcmp::noc {

class BoundaryChannel {
 public:
  /// The channel from the partition owning `producer` to the one owning
  /// `consumer`.
  BoundaryChannel(PacketSlab* producer, PacketSlab* consumer)
      : producer_{producer, 0}, consumer_{consumer, 1} {}

  /// Producer side, start of the producing partition's phase: this live
  /// cycle's pushes go to the other buffer.
  void begin_produce() {
    producer_.buffer ^= 1;
    producer_.earliest = kNeverCycle;
  }

  /// Producer side (its phase only): a flit that crossed the switch of an
  /// upstream router whose link leads into `router` (owned by the consuming
  /// partition). A tail takes its packet record out of the producer's slab.
  void push_flit(Router* router, unsigned port, Cycle at, const Flit& flit) {
    FlitEvent& e = buffers_[producer_.buffer].flits.emplace_back(
        FlitEvent{router, port, at, flit, {}});
    if (flit.tail) e.packet = producer_.slab->release(flit.packet);
    producer_.earliest = std::min(producer_.earliest, at);
  }

  /// Producer side: a credit return headed for `router` (the upstream of a
  /// cross-partition link, owned by the consuming partition).
  void push_credit(Router* router, unsigned out_port, unsigned vnet, Cycle deadline) {
    buffers_[producer_.buffer].credits.push_back(
        CreditEvent{router, out_port, vnet, deadline});
  }

  /// Earliest arrival of the flits pushed this live cycle (kNeverCycle when
  /// none): the consumer's next wake cannot know about them until it drains
  /// them, so the producer publishes it.
  [[nodiscard]] Cycle pushed_earliest() const { return producer_.earliest; }

  /// Consumer side, start of the consuming partition's phase: switch to the
  /// buffer the producer filled in the previous live cycle and apply it —
  /// exactly the writes the direct-link path would have made. A tail's
  /// packet record joins the consumer's slab under a new handle.
  void drain() {
    consumer_.buffer ^= 1;
    apply(buffers_[consumer_.buffer]);
  }

  /// Checkpoint save (between cycles): apply the buffer the producer wrote
  /// in the last live cycle — the drain the next live cycle would make —
  /// leaving both buffers empty.
  void apply_pending() { apply(buffers_[producer_.buffer]); }

  /// No flit in either buffer. Credits do not count: a credit return never
  /// holds up the end of a run (docs/partitioning.md).
  [[nodiscard]] bool no_flits() const {
    return buffers_[0].flits.empty() && buffers_[1].flits.empty();
  }
  /// Credit returns waiting in either buffer.
  [[nodiscard]] std::size_t credits() const {
    return buffers_[0].credits.size() + buffers_[1].credits.size();
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
  /// One parity's events, on lines of its own: the producer appends to one
  /// buffer while the consumer drains the other.
  struct alignas(kCacheLine) Buffer {
    std::vector<FlitEvent> flits;
    std::vector<CreditEvent> credits;
  };
  /// One side's state, written only by that side's partition.
  struct alignas(kCacheLine) Side {
    PacketSlab* slab = nullptr;
    unsigned buffer = 0;  ///< the buffer this live cycle writes / drains
    Cycle earliest = kNeverCycle;  ///< producer: earliest arrival pushed
  };

  /// Credits first: they touch only the upstream routers' credit FIFOs,
  /// which switch allocation reads no earlier than the direct-link path
  /// would have counted them.
  void apply(Buffer& b) {
    for (const CreditEvent& e : b.credits) {
      e.router->external_credit(e.out_port, e.vnet, e.deadline);
    }
    b.credits.clear();
    for (FlitEvent& e : b.flits) {
      if (e.flit.tail) e.flit.packet = consumer_.slab->alloc(e.packet);
      e.router->external_arrival(e.port, e.at, e.flit);
    }
    b.flits.clear();
  }

  Buffer buffers_[2];
  /// The producer writes buffer 0 ^ 1 = 1 in the first live cycle, while the
  /// consumer drains buffer 1 ^ 1 = 0 (empty).
  Side producer_;
  Side consumer_;
};

}  // namespace tcmp::noc

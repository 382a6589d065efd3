// Flow-control digits and the packets they belong to. A packet is serialized
// into ceil(bytes/width) flits; the head flit drives routing/VC allocation
// and the tail flit completes the packet. A flit is only its routing record
// (at most 16 bytes): the protocol message and the packet's latency
// bookkeeping live once per packet in a PacketSlab, one per partition, and
// the tail flit carries the handle (wormhole switching keeps a packet's
// flits in order on a single VC path, so the message is needed exactly when
// the tail arrives).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "protocol/coherence_msg.hpp"

namespace tcmp::noc {

struct Flit {
  /// The packet's PacketSlab handle in the owning partition's slab; read on
  /// tail flits only (a packet's other flits carry the same value, unread).
  std::uint32_t packet = 0;
  NodeId dst = kInvalidNode;
  std::uint8_t vnet = 0;
  bool head = false;
  bool tail = false;
  std::uint16_t active_bits = 0;  ///< wires actually toggled by this flit
  /// Tail: accumulated link-traversal cycles (latency breakdown). Saturating
  /// uint16: the breakdown degrades gracefully on >65k-cycle pathologies;
  /// the total stays exact.
  std::uint16_t wire_cycles = 0;

  /// Checkpoint serialization (common/snapshot.hpp).
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(packet);
    ar.field(dst);
    ar.field(vnet);
    ar.field(head);
    ar.field(tail);
    ar.field(active_bits);
    ar.field(wire_cycles);
  }
};
static_assert(sizeof(Flit) <= 16, "a flit is a routing record, not a packet");

/// What a packet carries besides its flits: the message, read at tail
/// ejection (and by the per-hop trace), and the latency bookkeeping. When the
/// tail leaves the NI lane the packet has fully cleared injection queuing +
/// serialization (queue_cycles); link flight accumulates on the tail flit
/// (Flit::wire_cycles); the remainder of the end-to-end latency is router
/// pipeline time.
struct PacketRecord {
  protocol::CoherenceMsg msg{};
  Cycle injected_at{0};            ///< the message entered the NI queue
  std::uint16_t queue_cycles = 0;  ///< NI wait + serialization (saturating)

  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(msg);
    ar.field(injected_at);
    ar.field(queue_cycles);
  }
};

/// One partition's packet records. A record is allocated when the NI pumps
/// the head flit, freed at tail ejection, and moved to the consuming
/// partition's slab when the tail crosses a boundary channel
/// (noc/boundary.hpp). Single-owner: only the owning partition's thread
/// touches a slab. Freed handles are reused last-in first-out, so handle
/// assignment is deterministic.
class PacketSlab {
 public:
  [[nodiscard]] std::uint32_t alloc(const PacketRecord& rec) {
    if (free_.empty()) {
      records_.push_back(rec);
      return static_cast<std::uint32_t>(records_.size() - 1);
    }
    const std::uint32_t h = free_.back();
    free_.pop_back();
    records_[h] = rec;
    return h;
  }
  [[nodiscard]] PacketRecord& operator[](std::uint32_t h) {
    TCMP_DCHECK(h < records_.size());
    return records_[h];
  }
  [[nodiscard]] const PacketRecord& operator[](std::uint32_t h) const {
    TCMP_DCHECK(h < records_.size());
    return records_[h];
  }
  /// Free `h` and return its record.
  [[nodiscard]] PacketRecord release(std::uint32_t h) {
    TCMP_DCHECK(h < records_.size());
    free_.push_back(h);
    return records_[h];
  }
  /// Records allocated and not yet released.
  [[nodiscard]] std::size_t live() const { return records_.size() - free_.size(); }

  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(records_);
    ar.field(free_);
  }

 private:
  std::vector<PacketRecord> records_;
  std::vector<std::uint32_t> free_;  ///< released handles, reused LIFO
};

}  // namespace tcmp::noc

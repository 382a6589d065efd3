// Per-tile network interface controller: the glue between the coherence
// controllers and the (possibly heterogeneous) network.
//
// Send side: runs the address compressor for eligible messages, applies the
// wire-mapping policy, stamps a per-(destination, message-class) sequence
// number and injects into the chosen channel plane.
//
// Receive side: because the VL and B planes can reorder messages between the
// same pair of tiles, compressor state updates must be applied in send
// order. The NIC keeps, per (source, class), the next expected sequence
// number and a small reorder window; decompression (and its state update)
// happens strictly in sequence, after which messages are released to the
// protocol immediately (the protocol itself tolerates reordering).
//
// The simulator carries the true address in every message; the NIC asserts
// that the decompressed address matches it, so any sender/receiver state
// divergence aborts the run instead of silently skewing results.
//
// Thread compatibility: the NIC is the sanctioned message seam between a
// tile and the rest of the machine (tile-escape lint,
// docs/static-analysis.md): under the partitioned driver
// (docs/partitioning.md) send()/receive() are the cross-partition hand-off
// points, so everything behind them stays single-owner.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "common/queues.hpp"
#include "common/stats.hpp"
#include "compression/compressor.hpp"
#include "het/wire_policy.hpp"
#include "noc/network.hpp"

namespace tcmp::obs {
class Observer;
}

namespace tcmp::het {

class TileNic final {
 public:
  using DeliverFn = std::function<void(const protocol::CoherenceMsg&)>;

  TileNic(NodeId id, const compression::SchemeConfig& scheme,
          wire::LinkStyle style, unsigned n_nodes, noc::Network* net,
          StatRegistry* stats);

  /// Compress/map/inject an outgoing message (dst != id).
  void send(protocol::CoherenceMsg msg, Cycle now);

  /// Handle a message ejected at this tile; forwards to `deliver` in
  /// decompression-safe order.
  void receive(protocol::CoherenceMsg msg, Cycle now, const DeliverFn& deliver);

  /// Attach a lifecycle observer (send/reorder trace events); null detaches.
  void set_observer(obs::Observer* obs) { obs_ = obs; }

  /// Table accesses performed by this tile's compression hardware (for the
  /// energy report).
  [[nodiscard]] std::uint64_t compression_accesses() const;

  [[nodiscard]] const compression::SchemeConfig& scheme() const { return scheme_; }

  // --- invariant-scan hooks (verify lint) ---
  [[nodiscard]] const compression::SenderCompressor& sender(
      compression::MsgClass c) const {
    return *classes_[static_cast<unsigned>(c)].sender;
  }
  [[nodiscard]] const compression::ReceiverDecompressor& receiver(
      compression::MsgClass c) const {
    return *classes_[static_cast<unsigned>(c)].receiver;
  }
  [[nodiscard]] std::uint32_t send_seq(compression::MsgClass c, NodeId dst) const {
    return classes_[static_cast<unsigned>(c)].next_send_seq[dst];
  }
  [[nodiscard]] std::uint32_t recv_seq(compression::MsgClass c, NodeId src) const {
    return classes_[static_cast<unsigned>(c)].next_recv_seq[src];
  }
  [[nodiscard]] bool reorder_empty(compression::MsgClass c, NodeId src) const {
    return classes_[static_cast<unsigned>(c)].reorder[src].empty();
  }

  /// The NIC acts only when the network hands it a message, so it is never
  /// a wake source; it holds in-flight work exactly while some reorder
  /// window has an out-of-order arrival parked.
  [[nodiscard]] bool quiescent() const { return parked_ == 0; }

  /// Checkpoint serialization (common/snapshot.hpp): per-class compressor
  /// state (via the virtual save/load seam), sequence counters and reorder
  /// windows, so a restored NIC decodes exactly where it left off.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.section("nic");
    for (ClassState& cs : classes_) {
      if constexpr (Ar::kIsWriter) {
        cs.sender->save(ar);
        cs.receiver->save(ar);
      } else {
        cs.sender->load(ar);
        cs.receiver->load(ar);
      }
      ar.field(cs.next_send_seq);
      ar.field(cs.next_recv_seq);
      ar.field(cs.reorder);
    }
    ar.field(parked_);
  }

 private:
  struct ClassState {
    std::unique_ptr<compression::SenderCompressor> sender;
    std::unique_ptr<compression::ReceiverDecompressor> receiver;
    std::vector<std::uint32_t> next_send_seq;  ///< per destination
    std::vector<std::uint32_t> next_recv_seq;  ///< per source
    /// Per source: out-of-order arrivals waiting for their turn, parked in a
    /// flat seq-indexed window (the VL/B skew spans a handful of messages,
    /// so the window stays at its minimum size in practice).
    std::vector<SeqWindow<protocol::CoherenceMsg>> reorder;
  };

  void decode_and_release(ClassState& cs, NodeId src,
                          const protocol::CoherenceMsg& msg,
                          const DeliverFn& deliver);

  // tcmplint: snapshot-exempt (construction parameter, never mutates)
  NodeId id_;
  // tcmplint: snapshot-exempt (construction parameter, never mutates)
  compression::SchemeConfig scheme_;
  // tcmplint: snapshot-exempt (construction parameter, never mutates)
  wire::LinkStyle style_;
  noc::Network* net_;
  StatRegistry* stats_;
  obs::Observer* obs_ = nullptr;
  // Interned stat handles (hot path: every send/receive).
  CounterRef compressed_;
  CounterRef uncompressed_;
  CounterRef b_messages_;
  CounterRef vl_messages_;
  CounterRef reordered_;
  std::array<ClassState, compression::kNumMsgClasses> classes_;
  /// Arrivals parked across all reorder windows: the drain check reads this
  /// every cycle, where scanning the classes x n_nodes windows would not
  /// scale to 256 tiles.
  std::uint64_t parked_ = 0;
};

}  // namespace tcmp::het

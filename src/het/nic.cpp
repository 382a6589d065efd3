#include "het/nic.hpp"

#include "common/check.hpp"
#include "obs/observer.hpp"

namespace tcmp::het {

using compression::MsgClass;
using protocol::CoherenceMsg;

TileNic::TileNic(NodeId id, const compression::SchemeConfig& scheme,
                 wire::LinkStyle style, unsigned n_nodes, noc::Network* net,
                 StatRegistry* stats)
    : id_(id), scheme_(scheme), style_(style), net_(net), stats_(stats) {
  TCMP_CHECK(net_ != nullptr && stats_ != nullptr);
  TCMP_CHECK((style == wire::LinkStyle::kBaseline) == (net_->num_channels() == 1));
  compressed_ = stats_->counter_ref("compression.compressed");
  uncompressed_ = stats_->counter_ref("compression.uncompressed");
  b_messages_ = stats_->counter_ref("het.b_messages");
  vl_messages_ = stats_->counter_ref("het.vl_messages");
  reordered_ = stats_->counter_ref("het.reordered_messages");
  for (auto& cs : classes_) {
    auto pair = compression::make_compressor(scheme_, n_nodes);
    cs.sender = std::move(pair.sender);
    cs.receiver = std::move(pair.receiver);
    cs.next_send_seq.assign(n_nodes, 0);
    cs.next_recv_seq.assign(n_nodes, 0);
    cs.reorder.resize(n_nodes);
  }
}

void TileNic::send(CoherenceMsg msg, Cycle now) {
  TCMP_DCHECK(msg.src == id_ && msg.dst != id_);
  bool compressed = false;
  if (wants_compression(msg.type, scheme_, style_)) {
    ClassState& cs = classes_[static_cast<unsigned>(protocol::compression_class(msg.type))];
    msg.enc = cs.sender->compress(msg.dst, msg.line);
    msg.seq = cs.next_send_seq[msg.dst]++;
    compressed = msg.enc.compressed;
    ++(compressed ? compressed_ : uncompressed_);
  }
  const MappingDecision d = map_message(msg.type, compressed, scheme_, style_);
  // Telemetry mirror of the mapping decision: lets the delivery side (slack
  // telemetry, flight recorder) attribute the message to its wire class
  // without re-deriving the mapping.
  msg.wire_class = static_cast<std::uint8_t>(d.channel);
  ++(d.channel == noc::kBChannel ? b_messages_ : vl_messages_);
  if (obs_ != nullptr) [[unlikely]] {
    obs_->nic_send(msg, compressed, d.channel, d.wire_bytes);
  }
  net_->inject(msg, d.channel, d.wire_bytes, now);
}

void TileNic::receive(CoherenceMsg msg, Cycle now, const DeliverFn& deliver) {
  (void)now;
  if (!wants_compression(msg.type, scheme_, style_)) {
    deliver(msg);
    return;
  }
  ClassState& cs = classes_[static_cast<unsigned>(protocol::compression_class(msg.type))];
  const NodeId src = msg.src;
  if (msg.seq != cs.next_recv_seq[src]) {
    // Out of order between the VL and B planes: hold until its turn so
    // compressor state updates apply in send order.
    TCMP_CHECK_MSG(msg.seq > cs.next_recv_seq[src], "duplicate sequence number");
    cs.reorder[src].insert(cs.next_recv_seq[src], msg.seq, msg);
    ++parked_;
    ++reordered_;
    if (obs_ != nullptr) [[unlikely]] {
      obs_->nic_reorder_hold(msg);
    }
    return;
  }
  decode_and_release(cs, src, msg, deliver);
  // Drain any consecutive buffered successors. With nothing parked there
  // are none, and the window need not be read: no delivery re-enters
  // receive(), so parked_ cannot change under it.
  if (parked_ == 0) return;
  auto& window = cs.reorder[src];
  while (auto next = window.take(cs.next_recv_seq[src])) {
    --parked_;
    decode_and_release(cs, src, *next, deliver);
  }
}

void TileNic::decode_and_release(ClassState& cs, NodeId src, const CoherenceMsg& msg,
                                 const DeliverFn& deliver) {
  const LineAddr decoded = cs.receiver->decode(src, msg.enc, msg.line);
  TCMP_CHECK_MSG(decoded == msg.line,
                 "compressor state diverged between sender and receiver");
  cs.next_recv_seq[src] = msg.seq + 1;
  deliver(msg);
}

std::uint64_t TileNic::compression_accesses() const {
  std::uint64_t total = 0;
  for (const auto& cs : classes_) {
    total += cs.sender->accesses().total() + cs.receiver->accesses().total();
  }
  return total;
}

}  // namespace tcmp::het

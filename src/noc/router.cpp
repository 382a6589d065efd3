#include "noc/router.hpp"

#include <bit>

#include "common/check.hpp"
#include "noc/boundary.hpp"
#include "obs/observer.hpp"

namespace tcmp::noc {

Router::Router(NodeId id, const Config& cfg, StatRegistry* stats,
               std::string stat_prefix)
    : id_(id), cfg_(cfg), stats_(stats), prefix_(std::move(stat_prefix)) {
  TCMP_CHECK(stats_ != nullptr);
  traversals_ = stats_->counter_ref(prefix_ + ".router_traversals");
  flit_hops_ = stats_->counter_ref(prefix_ + ".flit_hops");
  bit_hops_ = stats_->counter_ref(prefix_ + ".bit_hops");
  bit_dmm_hops_ = stats_->counter_ref(prefix_ + ".bit_dmm_hops");
  route_table_.assign(cfg_.nodes, kPortLocal);
}

void Router::set_route(NodeId dst, unsigned port) {
  TCMP_CHECK(dst < route_table_.size() && port < kNumPorts);
  route_table_[dst] = static_cast<std::uint8_t>(port);
}

void Router::set_eject(unsigned port, EjectFn fn) {
  TCMP_CHECK(port < kNumPorts);
  output_[port].eject = std::move(fn);
  // Ejection sinks always drain: unbounded credit.
  for (unsigned v = 0; v < kVcsPerPort; ++v) out_vcs_[port * kVcsPerPort + v].credits = ~0u;
}

void Router::connect(unsigned out_port, Router* downstream, unsigned in_port,
                     unsigned link_cycles, double link_mm) {
  TCMP_CHECK(out_port < kNumPorts);
  TCMP_CHECK(downstream != nullptr && in_port < kNumPorts);
  TCMP_CHECK_MSG(link_cycles >= 1, "links take at least one cycle");
  OutputPort& out = output_[out_port];
  TCMP_CHECK_MSG(!out.eject, "port is already an ejection port");
  out.downstream = downstream;
  out.downstream_port = in_port;
  out.link_cycles = link_cycles;
  out.link_dmm = static_cast<std::uint64_t>(link_mm * 10.0 + 0.5);
  for (unsigned v = 0; v < kVcsPerPort; ++v) {
    out_vcs_[out_port * kVcsPerPort + v].credits = kVcDepth;
  }
  downstream->upstream_[in_port] = Upstream{this, out_port, nullptr};
}

Cycle Router::earliest_front() const {
  Cycle wake = kNeverCycle;
  for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(bits));
    wake = std::min(wake, slots_[s * kVcDepth + input_[s].head].at);
  }
  return wake;
}

bool Router::wake_covers_fronts() const { return wake_ <= earliest_front(); }

Router::Census Router::census(Cycle now) const {
  Census c;
  for (unsigned s = 0; s < kSlots; ++s) {
    for (unsigned k = 0; k < input_[s].size; ++k) {
      unsigned i = input_[s].head + k;
      if (i >= kVcDepth) i -= kVcDepth;
      if (slots_[s * kVcDepth + i].at <= now) {
        ++c.buffered;
      } else {
        ++c.on_links;
      }
    }
  }
  return c;
}

void Router::send_credit(unsigned in_port, unsigned vnet, Cycle now) {
  const Upstream& up = upstream_[in_port];
  if (up.router == nullptr) return;  // Local port: the NI checks occupancy directly
  // link_cycles is immutable after construction, so this read is safe even
  // when the upstream router belongs to another partition.
  const Cycle deadline = now + up.router->output_[up.out_port].link_cycles;
  if (up.cross != nullptr) {
    up.cross->push_credit(up.router, up.out_port, vnet, deadline);
  } else {
    up.router->external_credit(up.out_port, vnet, deadline);
  }
}

bool Router::take_due_credits(unsigned o, Cycle now) {
  OutputVc& ovc = out_vcs_[o];
  const Cycle* const ring = &credit_at_[o * kVcDepth];
  while (ovc.credit_size != 0 && ring[ovc.credit_head] <= now) {
    ++ovc.credits;
    if (++ovc.credit_head == kVcDepth) ovc.credit_head = 0;
    --ovc.credit_size;
  }
  return ovc.credits != 0;
}

void Router::allocate_and_switch(Cycle now) {
  // One pass over the occupied input VCs in (port, vnet) order: VC
  // allocation for a waiting head flit, then a switch request bit (slot s =
  // port * kVcsPerPort + vnet) on the output port of every VC whose front
  // flit may traverse this cycle. A packet keeps its vnet, so input VC s
  // always claims output VC out_port * kVcsPerPort + s % kVcsPerPort.
  // Nothing the pass decides can change another VC's eligibility —
  // allocation touches only the VC's own state and an unheld output VC, and
  // each output VC has one holder, so its credits are read (and its due
  // returns counted) by one request.
  std::uint64_t requests[kNumPorts] = {};
  for (std::uint64_t bits = occupied_; bits != 0; bits &= bits - 1) {
    const auto s = static_cast<unsigned>(std::countr_zero(bits));
    InputVc& in = input_[s];
    const Slot& front = slots_[s * kVcDepth + in.head];
    if (front.at > now) continue;  // still on the link
    if (!in.vc_allocated) {
      if (!front.flit.head) continue;
      if (!cfg_.single_cycle && front.at >= now) continue;  // BW -> VA
      TCMP_DCHECK(front.flit.dst < route_table_.size());
      in.out_port = route_table_[front.flit.dst];
      OutputVc& ovc = out_vcs_[in.out_port * kVcsPerPort + s % kVcsPerPort];
      if (ovc.held) continue;
      ovc.held = true;
      in.vc_allocated = true;
      in.allocated_at = now;
    }
    if (!cfg_.single_cycle) {
      if (front.at >= now) continue;                          // still being written
      if (front.flit.head && in.allocated_at >= now) continue;  // VA -> SA
    }
    const unsigned o = in.out_port * kVcsPerPort + s % kVcsPerPort;
    if (out_vcs_[o].credits == 0 && !take_due_credits(o, now)) continue;
    requests[in.out_port] |= std::uint64_t{1} << s;
  }

  // Switch allocation: per output port in order, the first requesting slot
  // at or after the port's round-robin pointer (wrapping), among inputs that
  // have not already sent a flit this cycle.
  constexpr std::uint64_t kPortSlots = (std::uint64_t{1} << kVcsPerPort) - 1;
  std::uint64_t free_slots = ~std::uint64_t{0};
  for (unsigned p = 0; p < kNumPorts; ++p) {
    const std::uint64_t req = requests[p] & free_slots;
    if (req == 0) continue;
    OutputPort& out = output_[p];
    const std::uint64_t from_rr = req & (~std::uint64_t{0} << out.sa_rr);
    const auto s = static_cast<unsigned>(std::countr_zero(from_rr != 0 ? from_rr : req));
    const unsigned in_port = s / kVcsPerPort;
    const unsigned vnet = s % kVcsPerPort;
    free_slots &= ~(kPortSlots << (in_port * kVcsPerPort));
    out.sa_rr = s + 1 == kSlots ? 0 : s + 1;

    // Winner: traverse the switch.
    InputVc& in = input_[s];
    Flit flit = slots_[s * kVcDepth + in.head].flit;
    if (++in.head == kVcDepth) in.head = 0;
    if (--in.size == 0) occupied_ &= ~(std::uint64_t{1} << s);
    OutputVc& ovc = out_vcs_[p * kVcsPerPort + vnet];
    ++traversals_;
    if (flit.tail) {
      ovc.held = false;
      in.vc_allocated = false;
      if (obs_ != nullptr) [[unlikely]] {
        obs_->msg_hop((*slab_)[flit.packet].msg, id_, now);
      }
    }
    send_credit(in_port, vnet, now);

    if (out.eject) {
      out.eject(flit);
      continue;
    }
    TCMP_CHECK_MSG(out.downstream != nullptr, "unwired output port");
    ovc.credits--;
    ++flit_hops_;
    bit_hops_ += flit.active_bits;
    bit_dmm_hops_ += flit.active_bits * out.link_dmm;
    if (flit.tail) {
      flit.wire_cycles = static_cast<std::uint16_t>(flit.wire_cycles +
                                                    out.link_cycles);
    }
    const Cycle at = now + 1 + out.link_cycles;
    if (out.cross != nullptr) {
      out.cross->push_flit(out.downstream, out.downstream_port, at, flit);
    } else {
      out.downstream->external_arrival(out.downstream_port, at, flit);
    }
  }
  wake_ = earliest_front();
}

}  // namespace tcmp::noc

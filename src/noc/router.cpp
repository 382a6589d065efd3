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
  TCMP_CHECK(cfg_.vcs_per_vnet >= 1 && cfg_.vnets >= 1 && cfg_.buffer_flits >= 1);
  // Switch requests are one 64-bit mask per output port over the (port, vc)
  // input slots.
  TCMP_CHECK_MSG(kNumPorts * num_vcs() <= 64, "at most 64 input VCs per router");
  route_table_.assign(cfg_.nodes, kPortLocal);
  input_.assign(kNumPorts, std::vector<InputVc>(num_vcs()));
  for (auto& port : input_)
    for (InputVc& vc : port) vc.buffer.reset_capacity(cfg_.buffer_flits);
  output_.resize(kNumPorts);
  for (auto& out : output_) out.vcs.resize(num_vcs());
}

void Router::set_route(NodeId dst, unsigned port) {
  TCMP_CHECK(dst < route_table_.size() && port < kNumPorts);
  route_table_[dst] = static_cast<std::uint8_t>(port);
}

void Router::set_eject(unsigned port, EjectFn fn) {
  TCMP_CHECK(port < kNumPorts);
  output_[port].eject = std::move(fn);
  // Ejection sinks always drain: unbounded credit.
  for (auto& vc : output_[port].vcs) vc.credits = ~0u;
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
  out.link_mm = link_mm;
  for (auto& vc : out.vcs) vc.credits = downstream->cfg_.buffer_flits;
  downstream->upstream_of_input_[in_port] = this;
  downstream->upstream_out_port_[in_port] = out_port;
}

bool Router::can_inject(unsigned port, unsigned vc) const {
  TCMP_DCHECK(port < kNumPorts && vc < num_vcs());
  return !input_[port][vc].buffer.full();
}

bool Router::try_inject(unsigned port, unsigned vc, Flit&& flit, Cycle now) {
  if (!can_inject(port, vc)) return false;
  input_[port][vc].buffer.push_back({std::move(flit), now});
  ++buffered_;
  wake();
  return true;
}

void Router::deliver(Cycle now) {
  for (unsigned p = 0; p < kNumPorts; ++p) {
    while (auto arr = arrivals_[p].pop_ready(now)) {
      InputVc& vc = input_[p][arr->vc];
      TCMP_CHECK_MSG(!vc.buffer.full(),
                     "credit protocol violated: buffer overflow");
      vc.buffer.push_back({std::move(arr->flit), now});
      ++buffered_;
      --arrivals_pending_;
    }
  }
  while (auto cr = credit_returns_.pop_ready(now)) {
    output_[cr->first].vcs[cr->second].credits++;
  }
  deliver_due_ = next_deliver();
}

void Router::send_credit(unsigned in_port, unsigned vc, Cycle now) {
  Router* up = upstream_of_input_[in_port];
  if (up == nullptr) return;  // Local port: the NI checks occupancy directly
  const unsigned up_out = upstream_out_port_[in_port];
  // link_cycles is immutable after construction, so this read is safe even
  // when the upstream router belongs to another partition.
  const Cycle deadline = now + up->output_[up_out].link_cycles;
  if (upstream_cross_[in_port] != nullptr) {
    upstream_cross_[in_port]->push_credit(up, up_out, vc, deadline);
  } else {
    up->external_credit(up_out, vc, deadline);
  }
}

void Router::allocate_and_switch(Cycle now) {
  // One pass over the input VCs in (port, vc) order: VC allocation for a
  // waiting head flit, then a switch request bit (slot = port * nvc + vc)
  // on the output port of every VC whose front flit may traverse this
  // cycle. Nothing the pass decides can change another VC's eligibility —
  // allocation touches only the VC's own state and an unheld output VC, and
  // each output VC has one holder, so its credits are read by one request.
  const unsigned nvc = num_vcs();
  std::uint64_t requests[kNumPorts] = {};
  unsigned slot = 0;
  for (unsigned p = 0; p < kNumPorts; ++p) {
    for (unsigned v = 0; v < nvc; ++v, ++slot) {
      InputVc& in = input_[p][v];
      if (in.buffer.empty()) continue;
      BufferedFlit& head = in.buffer.front();
      if (!in.vc_allocated) {
        if (!head.flit.head) continue;
        if (!cfg_.single_cycle && head.buffered_at >= now) continue;  // BW -> VA
        if (!in.routed) {
          TCMP_DCHECK(head.flit.dst < route_table_.size());
          in.out_port = route_table_[head.flit.dst];
          in.routed = true;
        }
        OutputPort& out = output_[in.out_port];
        const unsigned base = head.flit.vnet * cfg_.vcs_per_vnet;
        for (unsigned k = 0; k < cfg_.vcs_per_vnet; ++k) {
          OutputVc& ovc = out.vcs[base + k];
          if (ovc.held) continue;
          ovc.held = true;
          ovc.holder_port = p;
          ovc.holder_vc = v;
          in.vc_allocated = true;
          in.out_vc = base + k;
          in.allocated_at = now;
          break;
        }
        if (!in.vc_allocated) continue;
      }
      if (!cfg_.single_cycle) {
        if (head.buffered_at >= now) continue;         // still being written
        if (head.flit.head && in.allocated_at >= now) continue;  // VA -> SA
      } else if (head.buffered_at > now) {
        continue;
      }
      if (output_[in.out_port].vcs[in.out_vc].credits == 0) continue;
      requests[in.out_port] |= std::uint64_t{1} << slot;
    }
  }

  // Switch allocation: per output port in order, the first requesting slot
  // at or after the port's round-robin pointer (wrapping), among inputs that
  // have not already sent a flit this cycle.
  const std::uint64_t port_slots = (std::uint64_t{1} << nvc) - 1;
  std::uint64_t free_slots = ~std::uint64_t{0};
  for (unsigned p = 0; p < kNumPorts; ++p) {
    const std::uint64_t req = requests[p] & free_slots;
    if (req == 0) continue;
    OutputPort& out = output_[p];
    const std::uint64_t from_rr = req & (~std::uint64_t{0} << out.sa_rr);
    const auto idx = static_cast<unsigned>(std::countr_zero(from_rr != 0 ? from_rr : req));
    const unsigned in_port = idx / nvc;
    const unsigned in_vc = idx % nvc;
    free_slots &= ~(port_slots << (in_port * nvc));
    out.sa_rr = idx + 1 == kNumPorts * nvc ? 0 : idx + 1;

    // Winner: traverse the switch.
    InputVc& in = input_[in_port][in_vc];
    OutputVc& ovc = out.vcs[in.out_vc];
    Flit flit = std::move(in.buffer.front().flit);
    const unsigned out_vc = in.out_vc;
    in.buffer.pop_front();
    --buffered_;
    ++traversals_;
    if (flit.tail) {
      ovc.held = false;
      in.vc_allocated = false;
      in.routed = false;
      if (obs_ != nullptr) [[unlikely]] {
        obs_->msg_hop(flit.msg, id_, now);
      }
    }
    send_credit(in_port, in_vc, now);

    if (out.eject) {
      out.eject(std::move(flit));
      continue;
    }
    TCMP_CHECK_MSG(out.downstream != nullptr, "unwired output port");
    ovc.credits--;
    ++flit_hops_;
    bit_hops_ += flit.active_bits;
    bit_dmm_hops_ +=
        flit.active_bits * static_cast<std::uint64_t>(out.link_mm * 10.0 + 0.5);
    if (flit.tail) {
      flit.wire_cycles = static_cast<std::uint16_t>(flit.wire_cycles +
                                                    out.link_cycles);
    }
    const Cycle deadline = now + 1 + out.link_cycles;
    if (out.cross != nullptr) {
      out.cross->push_flit(out.downstream, out.downstream_port, out_vc,
                           deadline, std::move(flit));
    } else {
      out.downstream->external_arrival(out.downstream_port, out_vc, deadline,
                                       std::move(flit));
    }
  }
}

}  // namespace tcmp::noc

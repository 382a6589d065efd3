// Input-queued virtual-channel wormhole router with credit-based flow
// control and a 3-stage pipeline (BW -> VA -> SA/ST) plus link traversal:
// a flit buffered at cycle t can win VC allocation at t+1, switch allocation
// at t+2, and is written into the downstream buffer at t+3+link_cycles.
//
// One tick() runs the router's whole cycle: deliver the link arrivals and
// credit returns that are due (deliver_due_ says when), then one pass over
// the input VCs in (port, vc) order that allocates output VCs and collects
// each output port's switch requests as a bitmask over the (port, vc)
// slots, then one round-robin winner per output port, found with
// std::countr_zero from the port's pointer. The network ticks only the
// routers in its partition's active set (noc/network.hpp): every write that
// gives a router work sets its bit, and a tick that leaves it idle clears it.
//
// Routing is table-driven: the topology builder (2D mesh with XY routes, or
// the two-level tree) fills a per-router destination->output-port table, so
// any deadlock-free single-path topology plugs in without touching the
// router. VCs are partitioned by virtual network: vc = vnet * vcs_per_vnet
// + k; a packet never changes vnet, so the three protocol classes (requests,
// forwards, responses) cannot block each other. Any port may be an ejection
// port (meshes eject at kPortLocal; tree cluster routers eject each leaf
// tile at its own port).
//
// Thread compatibility: single-owner, no internal locking. Downstream/
// upstream router pointers are intra-plane wiring; when a link crosses a
// partition boundary the two writes it makes through them (flit into the
// downstream arrival queue, credit into the upstream return heap) are
// rerouted onto a BoundaryChannel (noc/boundary.hpp) and applied by the
// owning partition — the only cross-partition *reads* left are of
// construction-time-immutable link configuration (docs/partitioning.md).
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "common/queues.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"
#include "protocol/delay_queue.hpp"

namespace tcmp::obs {
class Observer;
}

namespace tcmp::noc {

class BoundaryChannel;

inline constexpr unsigned kPortE = 0;
inline constexpr unsigned kPortW = 1;
inline constexpr unsigned kPortN = 2;
inline constexpr unsigned kPortS = 3;
inline constexpr unsigned kPortLocal = 4;
inline constexpr unsigned kNumPorts = 5;

class Router {
 public:
  struct Config {
    unsigned vcs_per_vnet = 1;
    unsigned vnets = 3;
    unsigned buffer_flits = 4;  ///< per input VC
    unsigned nodes = 16;        ///< destinations the route table covers
    /// Single-cycle router (lookahead routing + speculative allocation):
    /// a flit can be buffered, allocated and switched in the same cycle, so
    /// per-hop latency is 1 + link_cycles. False models a 3-stage pipeline.
    bool single_cycle = true;
  };

  using EjectFn = std::function<void(Flit&&)>;

  Router(NodeId id, const Config& cfg, StatRegistry* stats, std::string stat_prefix);

  /// Wire output `out_port` to `downstream`'s input `in_port` over a link of
  /// `link_cycles` (>= 1, checked: tick() relies on it) latency and `link_mm`
  /// physical length (energy accounting).
  void connect(unsigned out_port, Router* downstream, unsigned in_port,
               unsigned link_cycles, double link_mm);  // tcmplint: allow-raw-unit (config boundary, mm)
  /// Deliver packets for destination tiles ejecting at `port` to `fn`.
  void set_eject(unsigned port, EjectFn fn);
  /// Destination `dst` leaves this router through `port`.
  void set_route(NodeId dst, unsigned port);

  /// Attach a lifecycle observer (per-hop trace events); null detaches.
  void set_observer(obs::Observer* obs) { obs_ = obs; }

  /// Mark output `out_port` (already connect()ed) as crossing a partition
  /// boundary: switched flits go to `ch` instead of directly into the
  /// downstream router's arrival queue.
  void set_cross_downstream(unsigned out_port, BoundaryChannel* ch) {
    TCMP_CHECK(out_port < kNumPorts && output_[out_port].downstream != nullptr);
    output_[out_port].cross = ch;
  }
  /// Mark input `in_port`'s upstream as cross-partition: credit returns go
  /// to `ch` instead of directly into the upstream router's credit heap.
  void set_cross_upstream(unsigned in_port, BoundaryChannel* ch) {
    TCMP_CHECK(in_port < kNumPorts && upstream_of_input_[in_port] != nullptr);
    upstream_cross_[in_port] = ch;
  }

  /// Bind this router to its bit in the owning partition's active set
  /// (Network work sets): the wake sites below set the bit, and tick()
  /// clears it when it leaves the router idle.
  void set_work_bit(std::uint64_t* word, std::uint64_t bit) {
    work_word_ = word;
    work_bit_ = bit;
  }

  /// The two writes a link makes into this router, both wake sites: a flit
  /// into input `port`'s arrival pipe and a credit into the return heap.
  /// A same-partition upstream/downstream router calls them directly; a
  /// boundary channel (noc/boundary.hpp) calls them on the owning partition.
  void external_arrival(unsigned port, unsigned vc, Cycle deadline, Flit&& flit) {
    arrivals_[port].push(deadline, {vc, std::move(flit)});
    ++arrivals_pending_;
    deliver_due_ = std::min(deliver_due_, deadline);
    wake();
  }
  void external_credit(unsigned out_port, unsigned vc, Cycle deadline) {
    credit_returns_.push(deadline, {out_port, vc});
    deliver_due_ = std::min(deliver_due_, deadline);
    wake();
  }

  /// Network-interface injection into input port `port` (a wake site).
  /// Returns false when the chosen VC has no buffer space (retry next cycle).
  [[nodiscard]] bool try_inject(unsigned port, unsigned vc, Flit&& flit, Cycle now);
  /// True if the port's VC can accept a flit this cycle.
  [[nodiscard]] bool can_inject(unsigned port, unsigned vc) const;

  /// One cycle: deliver what is due, then allocate and switch while flits
  /// are buffered. Every link takes >= 1 cycle, so nothing a router pushes
  /// during its tick (flit deadline now + 1 + link_cycles, credit deadline
  /// now + link_cycles) is due before the next cycle: ticking the routers
  /// one after another is exact against running each phase across all of
  /// the partition's routers in turn.
  void tick(Cycle now) {
    if (now >= deliver_due_) deliver(now);
    if (buffered_ != 0) allocate_and_switch(now);
    if (idle()) *work_word_ &= ~work_bit_;
  }

  /// Nothing buffered and nothing in flight towards this router (link
  /// arrivals or credit returns): ticking it is a no-op.
  [[nodiscard]] bool idle() const {
    return buffered_ == 0 && deliver_due_ == kNeverCycle;
  }
  /// No flits buffered or on an input link (credit returns do not count).
  [[nodiscard]] bool quiescent() const {
    return buffered_ == 0 && arrivals_pending_ == 0;
  }

  /// Earliest cycle after `now` at which tick() has work: next cycle while
  /// flits are buffered (allocation/switching may act every cycle),
  /// otherwise the earliest link arrival. In-flight credit returns are
  /// deliberately NOT a wake source: credits are only read during switch
  /// allocation, which requires buffered flits — and buffered flits keep
  /// every cycle live, so a credit due at cycle c is always applied (by the
  /// tick's delivery) no later than the first cycle whose switch could read
  /// it. See docs/kernel.md for the full argument.
  [[nodiscard]] Cycle next_event(Cycle now) const {
    if (buffered_ != 0) return now + 1;
    if (arrivals_pending_ == 0) return kNeverCycle;
    Cycle nxt = kNeverCycle;
    for (const auto& q : arrivals_) nxt = std::min(nxt, q.next_ready());
    return nxt;
  }

  /// Flits in the input buffers / in flight on the input links.
  [[nodiscard]] unsigned buffered_flits() const { return buffered_; }
  [[nodiscard]] unsigned flits_on_links() const { return arrivals_pending_; }

  [[nodiscard]] unsigned num_vcs() const { return cfg_.vcs_per_vnet * cfg_.vnets; }
  [[nodiscard]] NodeId id() const { return id_; }

  /// Checkpoint serialization (common/snapshot.hpp): every input VC buffer,
  /// output VC allocation/credit state, in-flight link arrivals and credit
  /// returns. Wiring (downstream pointers, routes, eject fns) is rebuilt by
  /// construction and not serialized; deliver_due_ is derived from the
  /// queues on load, and the network rebuilds its work sets.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(buffered_);
    ar.field(arrivals_pending_);
    ar.field(input_);
    for (OutputPort& p : output_) {
      ar.field(p.vcs);
      ar.field(p.sa_rr);
    }
    for (auto& q : arrivals_) ar.field(q);
    ar.field(credit_returns_);
    if constexpr (!Ar::kIsWriter) deliver_due_ = next_deliver();
  }

 private:
  struct BufferedFlit {
    Flit flit;
    Cycle buffered_at{0};

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(flit);
      ar.field(buffered_at);
    }
  };

  struct InputVc {
    /// Fixed-capacity ring sized by the credit bound (cfg_.buffer_flits):
    /// credits guarantee an upstream never sends into a full buffer, so the
    /// ring can never overflow (checked in deliver / can_inject).
    RingBuffer<BufferedFlit> buffer;
    bool routed = false;
    unsigned out_port = 0;
    bool vc_allocated = false;
    unsigned out_vc = 0;
    Cycle allocated_at{0};

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(buffer);
      ar.field(routed);
      ar.field(out_port);
      ar.field(vc_allocated);
      ar.field(out_vc);
      ar.field(allocated_at);
    }
  };

  struct OutputVc {
    bool held = false;
    unsigned holder_port = 0;
    unsigned holder_vc = 0;
    unsigned credits = 0;

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(held);
      ar.field(holder_port);
      ar.field(holder_vc);
      ar.field(credits);
    }
  };

  struct OutputPort {
    Router* downstream = nullptr;
    unsigned downstream_port = 0;
    unsigned link_cycles = 0;
    double link_mm = 0.0;  // tcmplint: allow-raw-unit (energy accounting, mm)
    EjectFn eject;  ///< set on ejection ports instead of a downstream
    BoundaryChannel* cross = nullptr;  ///< non-null: link crosses a partition
    std::vector<OutputVc> vcs;
    unsigned sa_rr = 0;  ///< round-robin pointer over (in_port, in_vc)
  };

  struct LinkArrival {
    unsigned vc = 0;
    Flit flit;

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(vc);
      ar.field(flit);
    }
  };

  void send_credit(unsigned in_port, unsigned vc, Cycle now);
  void wake() { *work_word_ |= work_bit_; }

  // The busy-path bodies of tick().
  void deliver(Cycle now);
  void allocate_and_switch(Cycle now);
  /// Earliest pending link-arrival or credit-return deadline (kNeverCycle
  /// when nothing is in flight towards this router).
  [[nodiscard]] Cycle next_deliver() const {
    Cycle due = credit_returns_.next_ready();
    for (const auto& q : arrivals_) due = std::min(due, q.next_ready());
    return due;
  }

  // tcmplint: snapshot-exempt (construction parameter, never mutates)
  NodeId id_;
  // tcmplint: snapshot-exempt (construction parameter, never mutates)
  Config cfg_;
  StatRegistry* stats_;
  // tcmplint: snapshot-exempt (stat-name prefix derived at construction)
  std::string prefix_;
  // tcmplint: snapshot-exempt (topology-derived at construction)
  std::vector<std::uint8_t> route_table_;  ///< destination -> output port
  CounterRef traversals_;  ///< interned stat handles (hot path)
  CounterRef flit_hops_;
  CounterRef bit_hops_;
  CounterRef bit_dmm_hops_;  ///< bits x link length (0.1 mm units)
  unsigned buffered_ = 0;  ///< flits currently buffered (idle fast-path)
  unsigned arrivals_pending_ = 0;  ///< flits in flight on any input link
  /// next_deliver(), kept current: lowered by every push, recomputed after
  /// each delivery, so tick() delivers only in cycles where something is due.
  Cycle deliver_due_ = kNeverCycle;
  /// This router's bit in its partition's active set (set_work_bit).
  std::uint64_t* work_word_ = nullptr;
  // tcmplint: snapshot-exempt (wiring: bound by the network at construction)
  std::uint64_t work_bit_ = 0;

  std::vector<std::vector<InputVc>> input_;  ///< [port][vc]
  std::vector<OutputPort> output_;           ///< [port]
  /// Each input port has exactly one upstream output port (fixed
  /// link_cycles, at most one flit per cycle), so per-port link arrivals are
  /// strictly monotone — a FIFO pipe, not a heap.
  protocol::FifoDelayQueue<LinkArrival> arrivals_[kNumPorts];
  /// Deliberately still a heap: one queue collects credits from ALL output
  /// ports, whose link lengths differ (tree root vs leaf links), so
  /// deadlines are not monotone.
  protocol::DelayQueue<std::pair<unsigned, unsigned>> credit_returns_;  ///< (port, vc)
  std::vector<Router*> upstream_of_input_ = std::vector<Router*>(kNumPorts, nullptr);
  std::vector<unsigned> upstream_out_port_ = std::vector<unsigned>(kNumPorts, 0);
  /// Non-null where the upstream of an input port is in another partition:
  /// the reverse-direction boundary channel carrying this port's credits.
  std::vector<BoundaryChannel*> upstream_cross_ =
      std::vector<BoundaryChannel*>(kNumPorts, nullptr);
  // Cold: only read on tail-flit switch traversals. Kept last so the hot
  // members above stay in the same cache lines as without observability.
  obs::Observer* obs_ = nullptr;
};

}  // namespace tcmp::noc

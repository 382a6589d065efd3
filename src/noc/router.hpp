// Input-queued virtual-channel wormhole router with credit-based flow
// control and a 3-stage pipeline (BW -> VA -> SA/ST) plus link traversal:
// a flit buffered at cycle t can win VC allocation at t+1, switch allocation
// at t+2, and arrives in the downstream buffer at t+3+link_cycles.
//
// Due-time state (docs/performance.md "Router tick"): a switch traversal in
// cycle t writes the flit straight into the downstream input-VC ring,
// stamped with its arrival cycle t + 1 + link_cycles. The credit it spent
// already reserved that slot, so the ring holds the flits on the link as
// well as the buffered ones, in arrival order, and allocation skips a front
// that has not arrived yet. Credit returns are deadlines in a per-output-VC
// FIFO that switch allocation drains only when the VC's count is 0, so a
// credit never makes a router tick. wake_ is the earliest front arrival: the
// router has work in every cycle at or after it, and none before.
//
// One tick() runs the router's cycle once wake_ is due: one pass over the
// occupied input VCs in (port, vc) order that allocates output VCs and
// collects each output port's switch requests as a bitmask over the
// (port, vc) slots, then one round-robin winner per output port, found with
// std::countr_zero from the port's pointer. The network ticks only the
// routers in its partition's active set (noc/network.hpp): every write that
// gives a router a flit sets its bit, and a tick that leaves it empty clears
// it.
//
// Routing is table-driven: the topology builder (2D mesh with XY routes, or
// the two-level tree) fills a per-router destination->output-port table, so
// any deadlock-free single-path topology plugs in without touching the
// router. Each port has one VC per virtual network (kVcsPerPort) of
// kVcDepth flits: a packet's VC is its vnet at every hop, so the three
// protocol classes (requests, forwards, responses) cannot block each other,
// and VC allocation is one check that the vnet's output VC is free. Any port
// may be an ejection port (meshes eject at kPortLocal; tree cluster routers
// eject each leaf tile at its own port).
//
// Thread compatibility: single-owner, no internal locking. Downstream/
// upstream router pointers are intra-plane wiring; when a link crosses a
// partition boundary the two writes it makes through them (flit into the
// downstream input ring, credit into the upstream credit FIFO) are
// rerouted onto a BoundaryChannel (noc/boundary.hpp) and applied by the
// owning partition — the only cross-partition *reads* left are of
// construction-time-immutable link configuration (docs/partitioning.md).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"

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
/// Virtual channels per port: one per virtual network (VC index = vnet).
inline constexpr unsigned kVcsPerPort = protocol::kNumVnets;
/// Input buffer depth of every VC, in flits.
inline constexpr unsigned kVcDepth = 4;

class Router {
 public:
  struct Config {
    unsigned nodes = 16;  ///< destinations the route table covers
    /// Single-cycle router (lookahead routing + speculative allocation):
    /// a flit can be buffered, allocated and switched in the same cycle, so
    /// per-hop latency is 1 + link_cycles. False models a 3-stage pipeline.
    bool single_cycle = true;
  };

  using EjectFn = std::function<void(const Flit&)>;

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

  /// Attach a lifecycle observer (per-hop trace events), which reads each
  /// tail's message from `slab` (the owning partition's); null detaches.
  void set_observer(obs::Observer* obs, const PacketSlab* slab) {
    obs_ = obs;
    slab_ = slab;
  }

  /// Mark output `out_port` (already connect()ed) as crossing a partition
  /// boundary: switched flits go to `ch` instead of directly into the
  /// downstream router's input ring.
  void set_cross_downstream(unsigned out_port, BoundaryChannel* ch) {
    TCMP_CHECK(out_port < kNumPorts && output_[out_port].downstream != nullptr);
    output_[out_port].cross = ch;
  }
  /// Mark input `in_port`'s upstream as cross-partition: credit returns go
  /// to `ch` instead of directly into the upstream router's credit FIFO.
  void set_cross_upstream(unsigned in_port, BoundaryChannel* ch) {
    TCMP_CHECK(in_port < kNumPorts && upstream_[in_port].router != nullptr);
    upstream_[in_port].cross = ch;
  }

  /// Bind this router to its bit in the owning partition's active set
  /// (Network work sets): the flit writes below set the bit, and tick()
  /// clears it when it leaves the router empty.
  void set_work_bit(std::uint64_t* word, std::uint64_t bit) {
    work_word_ = word;
    work_bit_ = bit;
  }

  /// The two writes a link makes into this router. A flit lands in input
  /// `port`'s ring for its vnet, stamped with its arrival cycle `at` (a wake
  /// site); a credit return joins output `out_port`'s credit FIFO for
  /// `vnet` and is counted when switch allocation needs it (not a wake
  /// site). A same-partition upstream/downstream router calls them
  /// directly; a boundary channel (noc/boundary.hpp) calls them on the
  /// owning partition.
  void external_arrival(unsigned port, Cycle at, const Flit& flit) {
    const unsigned s = port * kVcsPerPort + flit.vnet;
    TCMP_CHECK_MSG(input_[s].size < kVcDepth, "credit protocol violated: buffer overflow");
    push_flit(s, at, flit);
  }
  void external_credit(unsigned out_port, unsigned vnet, Cycle deadline) {
    const unsigned o = out_port * kVcsPerPort + vnet;
    OutputVc& ovc = out_vcs_[o];
    TCMP_DCHECK_MSG(ovc.credit_size < kVcDepth, "credit slots overflow");
    Cycle* const ring = &credit_at_[o * kVcDepth];
    unsigned i = ovc.credit_head + ovc.credit_size;
    if (i >= kVcDepth) i -= kVcDepth;
    TCMP_DCHECK_MSG(ovc.credit_size == 0 ||
                        deadline >= ring[i == 0 ? kVcDepth - 1 : i - 1],
                    "credit deadlines must not decrease per output VC");
    ring[i] = deadline;
    ++ovc.credit_size;
  }

  /// Network-interface injection into input port `port` (a wake site): the
  /// flit arrives at `now`. Returns false when its vnet's VC has no buffer
  /// space (retry next cycle).
  [[nodiscard]] bool try_inject(unsigned port, const Flit& flit, Cycle now) {
    if (!can_inject(port, flit.vnet)) return false;
    push_flit(port * kVcsPerPort + flit.vnet, now, flit);
    return true;
  }
  /// True if the port's VC for `vnet` can accept a flit this cycle.
  [[nodiscard]] bool can_inject(unsigned port, unsigned vnet) const {
    TCMP_DCHECK(port < kNumPorts && vnet < kVcsPerPort);
    return input_[port * kVcsPerPort + vnet].size < kVcDepth;
  }

  /// One cycle: allocate and switch once a front flit has arrived. Every
  /// link takes >= 1 cycle, so nothing a router writes during its tick (flit
  /// arrival now + 1 + link_cycles, credit deadline now + link_cycles) is
  /// due before the next cycle: ticking the routers one after another is
  /// exact against running each phase across all of the partition's
  /// routers in turn.
  void tick(Cycle now) {
    if (now >= wake_) allocate_and_switch(now);
    if (occupied_ == 0) *work_word_ &= ~work_bit_;
  }

  /// No flit buffered or on an input link (credit returns do not count):
  /// ticking it is a no-op, and it has no event.
  [[nodiscard]] bool quiescent() const { return occupied_ == 0; }

  /// Earliest cycle after `now` at which tick() has work: the next cycle
  /// once a front flit has arrived (allocation/switching may act every
  /// cycle), otherwise the earliest front arrival. Credit returns are
  /// deliberately NOT a wake source: they are counted when a switch request
  /// needs one, which requires an arrived front flit — and an arrived front
  /// keeps every cycle live. See docs/kernel.md for the full argument.
  [[nodiscard]] Cycle next_event(Cycle now) const { return std::max(wake_, now + 1); }

  /// Wake invariant (tests): wake_ is no later than any front flit's arrival.
  [[nodiscard]] bool wake_covers_fronts() const;

  /// The flits in this router's input rings at the end of cycle `now`: those
  /// that have arrived (buffered) and those still on an input link.
  struct Census {
    unsigned buffered = 0;
    unsigned on_links = 0;
  };
  [[nodiscard]] Census census(Cycle now) const;

  [[nodiscard]] NodeId id() const { return id_; }

  /// Checkpoint serialization (common/snapshot.hpp): every input VC ring
  /// with its arrival stamps, output VC allocation/credit state and the
  /// credit-return FIFOs. Wiring (downstream pointers, routes, eject fns) is
  /// rebuilt by construction and not serialized; the occupied mask and
  /// wake_ are derived from the rings on load, and the network rebuilds its
  /// work sets.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(input_);
    ar.field(slots_);
    ar.field(out_vcs_);
    ar.field(credit_at_);
    for (OutputPort& p : output_) ar.field(p.sa_rr);
    if constexpr (!Ar::kIsWriter) {
      occupied_ = 0;
      for (unsigned s = 0; s < kSlots; ++s) {
        if (input_[s].size != 0) occupied_ |= std::uint64_t{1} << s;
      }
      wake_ = earliest_front();
    }
  }

 private:
  /// Input VCs per router: the request and occupied masks are 64 bits.
  static constexpr unsigned kSlots = kNumPorts * kVcsPerPort;
  static_assert(kSlots <= 64, "at most 64 input VCs per router");

  /// One input VC's ring state; its flits are slots_[s * kVcDepth ...]. An
  /// allocated VC holds output VC out_port * kVcsPerPort + its own vnet.
  struct InputVc {
    unsigned head = 0;  ///< ring index of the front flit
    unsigned size = 0;  ///< flits buffered or on the link (credit-bounded)
    unsigned out_port = 0;  ///< the head's route, set at VC allocation
    bool vc_allocated = false;
    Cycle allocated_at{0};

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(head);
      ar.field(size);
      ar.field(out_port);
      ar.field(vc_allocated);
      ar.field(allocated_at);
    }
  };

  /// A flit in an input ring and the cycle it arrives (is buffered).
  struct Slot {
    Cycle at{0};
    Flit flit;

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(at);
      ar.field(flit);
    }
  };

  /// One output VC: allocation, credit count and the credit-return FIFO
  /// credit_at_[o * kVcDepth ...]. In-flight credits never exceed the
  /// downstream buffer depth, so the FIFO never overflows.
  struct OutputVc {
    bool held = false;
    unsigned credits = 0;
    unsigned credit_head = 0;
    unsigned credit_size = 0;

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(held);
      ar.field(credits);
      ar.field(credit_head);
      ar.field(credit_size);
    }
  };

  struct OutputPort {
    Router* downstream = nullptr;
    unsigned downstream_port = 0;
    unsigned link_cycles = 0;
    /// Link length in 0.1 mm units (bit_dmm_hops energy accounting).
    std::uint64_t link_dmm = 0;
    EjectFn eject;  ///< set on ejection ports instead of a downstream
    BoundaryChannel* cross = nullptr;  ///< non-null: link crosses a partition
    unsigned sa_rr = 0;  ///< round-robin pointer over (in_port, in_vc)
  };

  /// Where an input port's credits go: the upstream output port, and the
  /// boundary channel when the upstream is in another partition.
  struct Upstream {
    Router* router = nullptr;
    unsigned out_port = 0;
    BoundaryChannel* cross = nullptr;
  };

  void push_flit(unsigned s, Cycle at, const Flit& flit) {
    InputVc& in = input_[s];
    unsigned i = in.head + in.size;
    if (i >= kVcDepth) i -= kVcDepth;
    slots_[s * kVcDepth + i] = Slot{at, flit};
    ++in.size;
    occupied_ |= std::uint64_t{1} << s;
    wake_ = std::min(wake_, at);
    *work_word_ |= work_bit_;
  }
  void send_credit(unsigned in_port, unsigned vnet, Cycle now);
  /// Count output VC `o`'s credit returns due by `now`; true when it then
  /// holds a credit.
  bool take_due_credits(unsigned o, Cycle now);
  /// The busy-path body of tick(); recomputes wake_.
  void allocate_and_switch(Cycle now);
  /// Earliest front-flit arrival over the occupied input VCs (kNeverCycle
  /// when empty).
  [[nodiscard]] Cycle earliest_front() const;

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
  /// Bit port * kVcsPerPort + vnet is set while that input VC's ring is
  /// non-empty.
  std::uint64_t occupied_ = 0;
  /// Earliest front-flit arrival (kNeverCycle when empty): lowered by every
  /// flit write, recomputed after each switch.
  Cycle wake_ = kNeverCycle;
  /// This router's bit in its partition's active set (set_work_bit).
  std::uint64_t* work_word_ = nullptr;
  // tcmplint: snapshot-exempt (wiring: bound by the network at construction)
  std::uint64_t work_bit_ = 0;

  std::array<InputVc, kSlots> input_{};               ///< [port * kVcsPerPort + vnet]
  std::array<Slot, kSlots * kVcDepth> slots_{};        ///< [input VC * kVcDepth + i]
  std::array<OutputVc, kSlots> out_vcs_{};             ///< [port * kVcsPerPort + vnet]
  std::array<Cycle, kSlots * kVcDepth> credit_at_{};   ///< [output VC * kVcDepth + i]
  OutputPort output_[kNumPorts];
  // tcmplint: snapshot-exempt (wiring: set by the upstream's connect)
  Upstream upstream_[kNumPorts];
  // Cold: only read on tail-flit switch traversals. Kept last so the hot
  // members above stay in the same cache lines as without observability.
  obs::Observer* obs_ = nullptr;
  const PacketSlab* slab_ = nullptr;
};

}  // namespace tcmp::noc

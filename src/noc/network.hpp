// Network facade: per-channel 2D-mesh router planes plus per-tile network
// interfaces (packetization, injection lanes per virtual network, ejection
// reassembly). The caller's mapping policy decides which channel and how many
// wire bytes each message uses; the network handles everything below that.
// Each partition keeps one PacketSlab (noc/flit.hpp) for the messages of the
// packets its routers and lanes hold.
//
// Thread compatibility: every router, injection lane, packet slab, work-set
// mask and stat handle belongs to one partition of the plan
// (docs/partitioning.md) — a single one unless the mesh is split. The
// partition phases (drain_boundary / tick_partition /
// next_event_partition / quiescent_partition) touch only that partition's
// state, and the two direct writes a cross-partition link would make are
// rerouted onto BoundaryChannels, swapped by the serial epilogue
// (exchange_boundaries). The cut happens at link boundaries inside this
// layer, below the NIC seam the tile-escape lint polices
// (docs/static-analysis.md). tick / next_event / quiescent are the same
// phases for drivers of a single-partition network.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/boundary.hpp"
#include "noc/channel.hpp"
#include "noc/router.hpp"
#include "sim/partition.hpp"

namespace tcmp::obs {
class Observer;
}

namespace tcmp::noc {

/// Interconnect topology. The 2D mesh is the paper's (and any tiled CMP's)
/// layout; the two-level tree is the organization for which Cheng et al. [6]
/// reported their heterogeneous-wire gains — few routers, long wires.
enum class Topology { kMesh2D, kTree2Level };

/// Mesh hops (tree: leaf links) are wire::kLinkLengthMm long; tree
/// cluster-to-root links are twice that.
struct NocConfig {
  unsigned width = 4;
  unsigned height = 4;
  Topology topology = Topology::kMesh2D;
  std::vector<ChannelSpec> channels;
  bool single_cycle_router = true;  ///< see Router::Config::single_cycle

  [[nodiscard]] unsigned nodes() const { return width * height; }
};

class Network final {
 public:
  using DeliverFn = std::function<void(NodeId, const protocol::CoherenceMsg&)>;

  /// Single-partition network (the seed's shape): one registry, no boundary
  /// channels, tick() drives everything.
  Network(const NocConfig& cfg, StatRegistry* stats);

  /// Partitioned network: routers, lanes and stat handles of node n live on
  /// shards[plan.part_of(n)]. Requires the 2D mesh topology and — the
  /// synchronization horizon — every channel's link_cycles >= 1.
  Network(const NocConfig& cfg, const sim::PartitionPlan& plan,
          const std::vector<StatRegistry*>& shards);

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Attach a message-lifecycle observer: assigns trace ids at injection,
  /// reports per-hop traversals (via the routers) and the latency breakdown
  /// at ejection. Null detaches.
  void set_observer(obs::Observer* obs);

  /// Queue `msg` for injection at its source tile on `channel`, occupying
  /// `wire_bytes` on the wire (after compression). Unbounded NI queue; the
  /// credit protocol applies from the local router inward.
  void inject(const protocol::CoherenceMsg& msg, unsigned channel,
              Bytes wire_bytes, Cycle now);

  /// One cycle of a single-partition network (standalone drivers).
  void tick(Cycle now) {
    TCMP_DCHECK(num_partitions() == 1);
    begin_cycle(now);
    tick_partition(0, now);
  }

  // --- Partition phases (see docs/partitioning.md) ------------------------
  /// Serial prologue: publish the cycle clock (the eject callbacks read it).
  void begin_cycle(Cycle now) { now_ = now; }
  /// Parallel, start of partition p's phase: apply the boundary events the
  /// last serial epilogue published for p.
  void drain_boundary(unsigned p) {
    for (BoundaryChannel* ch : inbound_[p]) ch->drain();
  }
  /// Parallel: tick partition p's active routers, then pump its busy
  /// injection lanes, each in ascending index order per plane.
  void tick_partition(unsigned p, Cycle now);
  /// Serial epilogue (between the cycle's barriers): publish every pending
  /// boundary event; returns the earliest published deadline (kNeverCycle
  /// when nothing crossed) — a wake bound no partition's next wake knows
  /// about.
  Cycle exchange_boundaries() {
    Cycle nxt = kNeverCycle;
    for (auto& ch : boundaries_) nxt = std::min(nxt, ch->exchange());
    return nxt;
  }
  [[nodiscard]] bool boundaries_empty() const {
    for (const auto& ch : boundaries_)
      if (!ch->empty()) return false;
    return true;
  }
  [[nodiscard]] Cycle next_event_partition(unsigned p) const;
  [[nodiscard]] bool quiescent_partition(unsigned p) const;
  [[nodiscard]] unsigned num_partitions() const { return plan_.num_partitions(); }

  /// Every partition quiescent (boundary channels aside).
  [[nodiscard]] bool quiescent() const;
  /// Work-set invariant (tests): every router outside its partition's
  /// active set is empty, every injection lane outside the busy set is
  /// empty, and no router's wake is later than one of its front flits'
  /// arrival.
  [[nodiscard]] bool work_sets_cover_work() const;
  /// Packet records allocated across every partition's slab: the packets
  /// being pumped, buffered or on a link (0 once the network drains).
  [[nodiscard]] std::size_t live_packets() const;
  /// Next event of a single-partition network: next cycle while any router
  /// has an arrived flit or any injection lane has a packet (both may act
  /// every cycle), otherwise the earliest flit arrival across every plane.
  /// Only the work sets are visited: an empty router or lane has no event.
  [[nodiscard]] Cycle next_event() const {
    TCMP_DCHECK(num_partitions() == 1);
    return next_event_partition(0);
  }
  [[nodiscard]] unsigned num_channels() const {
    return static_cast<unsigned>(cfg_.channels.size());
  }
  [[nodiscard]] const ChannelSpec& channel(unsigned c) const { return cfg_.channels[c]; }
  [[nodiscard]] const NocConfig& config() const { return cfg_; }
  /// Total directed wire length of one channel plane (energy accounting).
  [[nodiscard]] double total_directed_link_mm(unsigned c) const {  // tcmplint: allow-raw-unit
    return planes_[c].total_link_mm;
  }
  /// Routers in one channel plane (5 for the tree, nodes() for the mesh).
  [[nodiscard]] unsigned router_count(unsigned c) const {
    return static_cast<unsigned>(planes_[c].routers.size());
  }
  [[nodiscard]] const Router& router(unsigned c, unsigned i) const {
    return *planes_[c].routers[i];
  }

  /// Total flits a packet of `wire_bytes` occupies on channel `c`.
  [[nodiscard]] Flits flits_for(unsigned c, Bytes wire_bytes) const {
    return cfg_.channels[c].flits_for(wire_bytes);
  }

  /// Checkpoint serialization (common/snapshot.hpp): every partition's
  /// packet slab, every router and injection lane across every plane, plus
  /// the cycle clock. Boundary channels must be empty — a checkpoint happens
  /// between cycles, after exchange_boundaries() and the following drain
  /// have run. The work sets are derived from that state and rebuilt on
  /// load.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    TCMP_CHECK_MSG(boundaries_empty(),
                   "network snapshot with boundary events in flight");
    ar.section("noc");
    for (PacketSlab& slab : slabs_) ar.field(slab);  // in place: channels point at them
    for (ChannelPlane& plane : planes_) {
      for (auto& r : plane.routers) ar.field(*r);
      for (auto& node_lanes : plane.lanes)
        for (Lane& lane : node_lanes) ar.field(lane);
    }
    ar.field(now_);
    if constexpr (!Ar::kIsWriter) rebuild_work_sets();
  }

 private:
  struct Packet {
    protocol::CoherenceMsg msg;
    Bytes wire_bytes{0};
    Cycle queued_at{};

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(msg);
      ar.field(wire_bytes);
      ar.field(queued_at);
    }
  };

  /// One injection lane per (node, channel, vnet): serializes packets into
  /// flits, one flit per cycle, into the local router's VC for its vnet.
  struct Lane {
    std::deque<Packet> queue;
    unsigned flits_emitted = 0;
    unsigned total_flits = 0;
    /// Slab handle of the front packet, allocated when its head is pumped.
    std::uint32_t packet = 0;
    bool active = false;

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(queue);
      ar.field(flits_emitted);
      ar.field(total_flits);
      ar.field(packet);
      ar.field(active);
    }
  };

  /// Where a tile attaches to a plane: which router, which port.
  struct Attach {
    Router* router = nullptr;
    unsigned port = 0;
  };

  /// Per-plane stat handles, one set per partition shard (index 0 is the
  /// whole registry at K = 1). Every shard registers the same names, so the
  /// report-time merge sums them back into the seed's single counters.
  struct PlaneStats {
    CounterRef packets;
    CounterRef payload_bytes;
    CounterRef flits_injected;
    HistogramRef latency;
  };

  struct ChannelPlane {
    std::vector<std::unique_ptr<Router>> routers;
    std::vector<Attach> attach;            ///< [node]
    std::vector<std::vector<Lane>> lanes;  ///< [node][vnet]
    double total_link_mm = 0.0;  // tcmplint: allow-raw-unit (energy accounting, mm)
    std::vector<PlaneStats> pstats;        ///< [partition]
    /// Partition p owns routers [router_first[p], router_first[p + 1]).
    std::vector<unsigned> router_first;
    /// Work sets, one bitmask per partition (docs/performance.md "Router
    /// tick"). Bit i of active[p] is set while router router_first[p] + i
    /// is not idle; bit lane_index(p, n, v) of busy_lanes[p] while lane
    /// [n][v] holds a packet. Only partition p's thread writes them, except
    /// the serial epilogue's boundary credits.
    std::vector<std::vector<std::uint64_t>> active;      ///< [partition][word]
    std::vector<std::vector<std::uint64_t>> busy_lanes;  ///< [partition][word]

    [[nodiscard]] std::span<const std::unique_ptr<Router>> routers_of(
        unsigned p) const {
      return std::span(routers).subspan(
          router_first[p], router_first[p + 1] - router_first[p]);
    }
  };

  void build_mesh(unsigned ch);
  void build_tree(unsigned ch);

  void pump_lane(unsigned ch, NodeId node, unsigned vnet, Cycle now);
  /// Bit of lane [node][vnet] in its partition p's busy_lanes.
  [[nodiscard]] unsigned lane_index(unsigned p, unsigned node, unsigned vnet) const {
    return (node - plan_.first(p)) * protocol::kNumVnets + vnet;
  }
  /// The work sets partition p's routers and lanes call for on `plane`:
  /// exactly the non-empty routers and lanes.
  void collect_work(const ChannelPlane& plane, unsigned p,
                    std::vector<std::uint64_t>& active,
                    std::vector<std::uint64_t>& busy_lanes) const;
  /// Reset every work set to collect_work (checkpoint load).
  void rebuild_work_sets();
  void on_eject(unsigned ch, NodeId node, const Flit& flit, Cycle now);

  /// The boundary channel carrying events produced by partition `from` for
  /// partition `to`, created on first use during topology build.
  [[nodiscard]] BoundaryChannel* channel_between(unsigned from, unsigned to);

  // tcmplint: snapshot-exempt (construction parameter, never mutates)
  NocConfig cfg_;
  // tcmplint: snapshot-exempt (construction parameter, never mutates)
  sim::PartitionPlan plan_;
  // tcmplint: snapshot-exempt (registry attachments wired at construction)
  std::vector<StatRegistry*> shards_;   ///< [partition]
  // tcmplint: snapshot-exempt (derived from plan_ at construction)
  std::vector<unsigned> part_of_;       ///< [node] owning partition
  // tcmplint: snapshot-exempt (callback wired by the system constructor)
  DeliverFn deliver_;
  obs::Observer* obs_ = nullptr;
  /// [partition]. Sized once by the constructor: routers and boundary
  /// channels keep pointers into it.
  std::vector<PacketSlab> slabs_;
  std::vector<ChannelPlane> planes_;
  std::vector<HistogramRef> critical_latency_;  ///< [partition]
  /// Per-vnet end-to-end latency decomposition ("noc.lat.<class>.<part>"):
  /// total = queue (NI wait + serialization) + router (pipeline/contention)
  /// + wire (link flight).
  struct VnetLatency {
    HistogramRef total;
    HistogramRef queue;
    HistogramRef router;
    HistogramRef wire;
  };
  // tcmplint: snapshot-exempt (interned stat handles, re-interned at ctor)
  std::vector<std::array<VnetLatency, protocol::kNumVnets>> vnet_lat_;  ///< [partition]
  // save_checkpoint drains and CHECKs the boundary channels empty, so there
  // is no in-flight state to serialize.
  // tcmplint: snapshot-exempt (drained and CHECKed empty at every save)
  std::vector<std::unique_ptr<BoundaryChannel>> boundaries_;
  /// boundaries_ entry index for the (from, to) directed pair, dense K x K;
  /// ~0u where absent. Indexed from * K + to.
  // tcmplint: snapshot-exempt (derived from plan_ at construction)
  std::vector<unsigned> boundary_index_;
  // tcmplint: snapshot-exempt (derived from plan_ at construction)
  std::vector<std::vector<BoundaryChannel*>> inbound_;  ///< [partition] consumers
  Cycle now_{0};
};

}  // namespace tcmp::noc

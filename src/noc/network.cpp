#include "noc/network.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "obs/observer.hpp"

namespace tcmp::noc {

namespace {
// Latency histograms: 128 bins of 4 cycles resolve quantiles up to 512
// cycles; the overflow bin catches pathological outliers.
constexpr std::size_t kLatBins = 128;
constexpr std::uint64_t kLatBinWidth = 4;
constexpr const char* kVnetName[protocol::kNumVnets] = {"req", "fwd", "resp"};

// Work-set bitmasks (ChannelPlane::active / busy_lanes).
constexpr std::uint64_t bit_of(unsigned i) { return std::uint64_t{1} << (i % 64); }
void set_bit(std::vector<std::uint64_t>& words, unsigned i) { words[i / 64] |= bit_of(i); }
bool any_bit(const std::vector<std::uint64_t>& words) {
  return std::ranges::any_of(words, [](std::uint64_t w) { return w != 0; });
}
/// f(i) for every set bit i in ascending order. Each word is read once, so a
/// bit set in the current word during the walk is first seen next walk.
template <typename F>
void for_each_bit(const std::vector<std::uint64_t>& words, F&& f) {
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<unsigned>(w * 64 + std::countr_zero(bits)));
    }
  }
}
}  // namespace

Network::Network(const NocConfig& cfg, StatRegistry* stats)
    : Network(cfg, sim::PartitionPlan(cfg.width, cfg.height, 1), {stats}) {}

Network::Network(const NocConfig& cfg, const sim::PartitionPlan& plan,
                 const std::vector<StatRegistry*>& shards)
    : cfg_(cfg), plan_(plan), shards_(shards) {
  const unsigned k = plan_.num_partitions();
  TCMP_CHECK(shards_.size() == k);
  for (StatRegistry* s : shards_) TCMP_CHECK(s != nullptr);
  TCMP_CHECK(!cfg_.channels.empty());
  TCMP_CHECK(cfg_.width >= 2 && cfg_.height >= 1);
  // The synchronization horizon (docs/partitioning.md) needs every boundary
  // event deadline at least one cycle out: Router::connect checks that every
  // link takes >= 1 cycle.
  TCMP_CHECK_MSG(k == 1 || cfg_.topology == Topology::kMesh2D,
                 "only the 2D mesh can be partitioned");
  part_of_.resize(cfg_.nodes());
  for (unsigned n = 0; n < cfg_.nodes(); ++n) part_of_[n] = plan_.part_of(n);
  boundary_index_.assign(static_cast<std::size_t>(k) * k, ~0u);
  inbound_.resize(k);
  slabs_.resize(k);

  planes_.resize(cfg_.channels.size());
  for (unsigned c = 0; c < cfg_.channels.size(); ++c) {
    if (cfg_.topology == Topology::kMesh2D) {
      build_mesh(c);
    } else {
      build_tree(c);
    }
    ChannelPlane& plane = planes_[c];
    for (auto& a : plane.attach) {
      TCMP_CHECK_MSG(a.router != nullptr, "tile not attached to the plane");
    }
    // Mesh routers are indexed by node, so partition p owns the routers of
    // its row block; the tree (never partitioned) gives all of them to p = 0.
    plane.router_first.resize(k + 1);
    for (unsigned p = 0; p < k; ++p) plane.router_first[p] = plan_.first(p);
    plane.router_first[k] = static_cast<unsigned>(plane.routers.size());
    plane.lanes.assign(cfg_.nodes(), std::vector<Lane>(protocol::kNumVnets));
    plane.active.resize(k);
    plane.busy_lanes.resize(k);
    for (unsigned p = 0; p < k; ++p) {
      const unsigned first = plane.router_first[p];
      const unsigned routers = plane.router_first[p + 1] - first;
      plane.active[p].assign((routers + 63) / 64, 0);
      plane.busy_lanes[p].assign((plan_.count(p) * protocol::kNumVnets + 63) / 64, 0);
      for (unsigned i = 0; i < routers; ++i) {
        plane.routers[first + i]->set_work_bit(&plane.active[p][i / 64], bit_of(i));
      }
    }
    const std::string prefix = "noc." + cfg_.channels[c].name;
    plane.pstats.resize(k);
    for (unsigned p = 0; p < k; ++p) {
      PlaneStats& ps = plane.pstats[p];
      ps.packets = shards_[p]->counter_ref(prefix + ".packets");
      ps.payload_bytes = shards_[p]->counter_ref(prefix + ".payload_bytes");
      ps.flits_injected = shards_[p]->counter_ref(prefix + ".flits_injected");
      ps.latency =
          shards_[p]->histogram_ref(prefix + ".latency", kLatBins, kLatBinWidth);
    }
  }
  critical_latency_.resize(k);
  vnet_lat_.resize(k);
  for (unsigned p = 0; p < k; ++p) {
    critical_latency_[p] =
        shards_[p]->histogram_ref("noc.critical_latency", kLatBins, kLatBinWidth);
    for (unsigned v = 0; v < protocol::kNumVnets; ++v) {
      const std::string base = std::string("noc.lat.") + kVnetName[v];
      vnet_lat_[p][v].total =
          shards_[p]->histogram_ref(base + ".total", kLatBins, kLatBinWidth);
      vnet_lat_[p][v].queue =
          shards_[p]->histogram_ref(base + ".queue", kLatBins, kLatBinWidth);
      vnet_lat_[p][v].router =
          shards_[p]->histogram_ref(base + ".router", kLatBins, kLatBinWidth);
      vnet_lat_[p][v].wire =
          shards_[p]->histogram_ref(base + ".wire", kLatBins, kLatBinWidth);
    }
  }
}

BoundaryChannel* Network::channel_between(unsigned from, unsigned to) {
  const unsigned k = plan_.num_partitions();
  unsigned& idx = boundary_index_[static_cast<std::size_t>(from) * k + to];
  if (idx == ~0u) {
    idx = static_cast<unsigned>(boundaries_.size());
    boundaries_.push_back(std::make_unique<BoundaryChannel>(&slabs_[from], &slabs_[to]));
    inbound_[to].push_back(boundaries_.back().get());
  }
  return boundaries_[idx].get();
}

void Network::set_observer(obs::Observer* obs) {
  obs_ = obs;
  for (auto& plane : planes_) {
    for (unsigned p = 0; p < num_partitions(); ++p) {
      for (const auto& r : plane.routers_of(p)) r->set_observer(obs, &slabs_[p]);
    }
  }
}

void Network::build_mesh(unsigned ch) {
  ChannelPlane& plane = planes_[ch];
  const ChannelSpec& spec = cfg_.channels[ch];
  const Router::Config rcfg{cfg_.nodes(), cfg_.single_cycle_router};

  const std::string prefix = "noc." + spec.name;
  for (unsigned n = 0; n < cfg_.nodes(); ++n) {
    // Each router's stat handles live on its owning partition's shard.
    plane.routers.push_back(std::make_unique<Router>(
        static_cast<NodeId>(n), rcfg, shards_[part_of_[n]], prefix));
  }

  const unsigned w = cfg_.width;
  const unsigned link_cycles = spec.link_cycles;
  const double mm = wire::kLinkLengthMm;
  // Directed link `from` -> `to`; when it crosses a partition boundary, both
  // writes it makes (flit downstream, credit upstream) go via boundary
  // channels. Row-block partitions only ever cut vertical (N/S) links.
  const auto wire = [&](unsigned from, unsigned out_port, unsigned to,
                        unsigned in_port) {
    plane.routers[from]->connect(out_port, plane.routers[to].get(), in_port,
                                 link_cycles, mm);
    if (part_of_[from] != part_of_[to]) {
      plane.routers[from]->set_cross_downstream(
          out_port, channel_between(part_of_[from], part_of_[to]));
      plane.routers[to]->set_cross_upstream(
          in_port, channel_between(part_of_[to], part_of_[from]));
    }
  };
  for (unsigned n = 0; n < cfg_.nodes(); ++n) {
    const unsigned x = n % w, y = n / w;
    if (x + 1 < w) {
      wire(n, kPortE, n + 1, kPortW);
      wire(n + 1, kPortW, n, kPortE);
      plane.total_link_mm += 2 * mm;
    }
    if (y + 1 < cfg_.height) {
      wire(n, kPortS, n + w, kPortN);
      wire(n + w, kPortN, n, kPortS);
      plane.total_link_mm += 2 * mm;
    }
  }

  // XY routing tables and per-node attach/eject at the Local port.
  plane.attach.assign(cfg_.nodes(), Attach{});
  for (unsigned r = 0; r < cfg_.nodes(); ++r) {
    Router& router = *plane.routers[r];
    const unsigned x = r % w, y = r / w;
    for (unsigned d = 0; d < cfg_.nodes(); ++d) {
      const unsigned dx = d % w, dy = d / w;
      unsigned port = kPortLocal;
      if (dx > x) {
        port = kPortE;
      } else if (dx < x) {
        port = kPortW;
      } else if (dy > y) {
        port = kPortS;
      } else if (dy < y) {
        port = kPortN;
      }
      router.set_route(static_cast<NodeId>(d), port);
    }
    const auto node = static_cast<NodeId>(r);
    router.set_eject(kPortLocal, [this, ch, node](const Flit& flit) {
      on_eject(ch, node, flit, now_);
    });
    plane.attach[r] = Attach{&router, kPortLocal};
  }
}

void Network::build_tree(unsigned ch) {
  // Two-level tree: nodes/4 cluster routers (one port per leaf tile + one
  // uplink) under a single root. Few routers, long root links: the topology
  // for which [6] reported its gains.
  ChannelPlane& plane = planes_[ch];
  const ChannelSpec& spec = cfg_.channels[ch];
  const unsigned n_nodes = cfg_.nodes();
  TCMP_CHECK_MSG(n_nodes % 4 == 0 && n_nodes / 4 <= kNumPorts - 1,
                 "tree topology supports up to 4 clusters of 4 tiles");
  const unsigned n_clusters = n_nodes / 4;

  const Router::Config rcfg{n_nodes, cfg_.single_cycle_router};

  const std::string prefix = "noc." + spec.name;
  for (unsigned r = 0; r < n_clusters + 1; ++r) {
    plane.routers.push_back(
        std::make_unique<Router>(static_cast<NodeId>(r), rcfg, shards_[0], prefix));
  }
  Router& root = *plane.routers[n_clusters];

  // Cluster-to-root links are twice as long as the leaf links.
  const double root_mm = 2 * wire::kLinkLengthMm;
  const unsigned root_cycles = 2 * spec.link_cycles;
  constexpr unsigned kUpPort = kNumPorts - 1;

  plane.attach.assign(n_nodes, Attach{});
  for (unsigned c = 0; c < n_clusters; ++c) {
    Router& cluster = *plane.routers[c];
    cluster.connect(kUpPort, &root, /*in_port=*/c, root_cycles, root_mm);
    root.connect(c, &cluster, kUpPort, root_cycles, root_mm);
    plane.total_link_mm += 2 * root_mm;

    for (unsigned d = 0; d < n_nodes; ++d) {
      cluster.set_route(static_cast<NodeId>(d), d / 4 == c ? d % 4 : kUpPort);
      root.set_route(static_cast<NodeId>(d), d / 4);
    }
    for (unsigned i = 0; i < 4; ++i) {
      const auto node = static_cast<NodeId>(c * 4 + i);
      cluster.set_eject(i, [this, ch, node](const Flit& flit) {
        on_eject(ch, node, flit, now_);
      });
      plane.attach[node] = Attach{&cluster, i};
      // The tile-to-cluster stub is part of the plane's metal.
      plane.total_link_mm += 2 * wire::kLinkLengthMm;
    }
  }
}

void Network::inject(const protocol::CoherenceMsg& msg, unsigned channel,
                     Bytes wire_bytes, Cycle now) {
  TCMP_CHECK(channel < planes_.size());
  TCMP_CHECK(msg.src < cfg_.nodes() && msg.dst < cfg_.nodes());
  TCMP_CHECK_MSG(msg.src != msg.dst, "local messages must not enter the mesh");
  const unsigned vnet = protocol::vnet_of(msg.type);
  ChannelPlane& plane = planes_[channel];
  Lane& lane = plane.lanes[msg.src][vnet];
  lane.queue.push_back({msg, wire_bytes, now});
  if (obs_ != nullptr) [[unlikely]] {
    lane.queue.back().msg.trace_id =
        obs_->msg_injected(msg, cfg_.channels[channel].name, wire_bytes, now);
  }
  const unsigned part = part_of_[msg.src];
  set_bit(plane.busy_lanes[part], lane_index(part, msg.src, vnet));
  PlaneStats& ps = plane.pstats[part];
  ++ps.packets;
  ps.payload_bytes += wire_bytes;
}

void Network::pump_lane(unsigned ch, NodeId node, unsigned vnet, Cycle now) {
  Lane& lane = planes_[ch].lanes[node][vnet];
  if (!lane.active) {
    if (lane.queue.empty()) return;
    lane.active = true;
    lane.flits_emitted = 0;
    lane.total_flits = flits_for(ch, lane.queue.front().wire_bytes);
  }
  const Attach& at = planes_[ch].attach[node];
  if (!at.router->can_inject(at.port, vnet)) return;

  const Packet& pkt = lane.queue.front();
  const ChannelSpec& spec = cfg_.channels[ch];
  const unsigned part = part_of_[node];
  const unsigned i = lane.flits_emitted;
  const unsigned remaining = pkt.wire_bytes - i * spec.width_bytes;
  if (i == 0) lane.packet = slabs_[part].alloc(PacketRecord{pkt.msg, pkt.queued_at, 0});
  Flit flit;
  flit.packet = lane.packet;
  flit.dst = pkt.msg.dst;
  flit.vnet = static_cast<std::uint8_t>(vnet);
  flit.head = i == 0;
  flit.tail = i + 1 == lane.total_flits;
  flit.active_bits =
      static_cast<std::uint16_t>(8 * std::min(remaining, spec.width_bytes.value()));
  if (flit.tail) {
    slabs_[part][lane.packet].queue_cycles = static_cast<std::uint16_t>(
        std::min<std::uint64_t>((now - pkt.queued_at).value(), 0xFFFF));
  }

  const bool ok = at.router->try_inject(at.port, flit, now);
  TCMP_CHECK(ok);
  ++planes_[ch].pstats[part].flits_injected;
  if (++lane.flits_emitted == lane.total_flits) {
    lane.queue.pop_front();
    lane.active = false;
  }
}

void Network::on_eject(unsigned ch, NodeId node, const Flit& flit, Cycle now) {
  if (!flit.tail) return;  // only the tail completes the packet
  const unsigned part = part_of_[node];
  const PacketRecord pkt = slabs_[part].release(flit.packet);
  const Cycle total = now - pkt.injected_at;
  planes_[ch].pstats[part].latency.add(total.value());
  if (protocol::is_critical(pkt.msg.type)) {
    critical_latency_[part].add(total.value());
  }
  // Decompose: queue covers NI lane wait plus serialization (inject ->
  // tail leaves the NI); wire is accumulated link flight; the remainder is
  // router pipeline and contention time.
  const Cycle queue{pkt.queue_cycles};
  const Cycle wire{flit.wire_cycles};
  const Cycle router = total - queue - wire;
  VnetLatency& vl = vnet_lat_[part][flit.vnet];
  vl.total.add(total.value());
  vl.queue.add(queue.value());
  vl.router.add(router.value());
  vl.wire.add(wire.value());
  if (obs_ != nullptr) [[unlikely]] {
    obs_->msg_ejected(pkt.msg, now, total, queue, wire);
  }
  TCMP_CHECK(deliver_ != nullptr);
  deliver_(node, pkt.msg);
}

void Network::tick_partition(unsigned p, Cycle now) {
  for (ChannelPlane& plane : planes_) {
    const auto routers = plane.routers_of(p);
    for_each_bit(plane.active[p], [&](unsigned i) { routers[i]->tick(now); });
  }
  const unsigned lo = plan_.first(p);
  for (unsigned c = 0; c < planes_.size(); ++c) {
    std::vector<std::uint64_t>& busy = planes_[c].busy_lanes[p];
    for_each_bit(busy, [&](unsigned i) {
      // Inverse of lane_index.
      const unsigned n = lo + i / protocol::kNumVnets;
      const unsigned v = i % protocol::kNumVnets;
      pump_lane(c, static_cast<NodeId>(n), v, now);
      const Lane& lane = planes_[c].lanes[n][v];
      if (!lane.active && lane.queue.empty()) busy[i / 64] &= ~bit_of(i);
    });
  }
}

Cycle Network::next_event_partition(unsigned p) const {
  Cycle nxt = kNeverCycle;
  for (const ChannelPlane& plane : planes_) {
    if (any_bit(plane.busy_lanes[p])) return now_ + 1;
    const auto routers = plane.routers_of(p);
    for_each_bit(plane.active[p], [&](unsigned i) {
      nxt = std::min(nxt, routers[i]->next_event(now_));
    });
    if (nxt <= now_ + 1) return now_ + 1;
  }
  return nxt;
}

bool Network::quiescent_partition(unsigned p) const {
  for (const ChannelPlane& plane : planes_) {
    if (any_bit(plane.busy_lanes[p])) return false;
    const auto routers = plane.routers_of(p);
    bool quiet = true;
    for_each_bit(plane.active[p], [&](unsigned i) { quiet &= routers[i]->quiescent(); });
    if (!quiet) return false;
  }
  return true;
}

void Network::collect_work(const ChannelPlane& plane, unsigned p,
                           std::vector<std::uint64_t>& active,
                           std::vector<std::uint64_t>& busy_lanes) const {
  std::ranges::fill(active, 0);
  std::ranges::fill(busy_lanes, 0);
  const auto routers = plane.routers_of(p);
  for (unsigned i = 0; i < routers.size(); ++i) {
    if (!routers[i]->quiescent()) set_bit(active, i);
  }
  for (unsigned n = plan_.first(p); n < plan_.first(p + 1); ++n) {
    for (unsigned v = 0; v < protocol::kNumVnets; ++v) {
      const Lane& lane = plane.lanes[n][v];
      if (lane.active || !lane.queue.empty()) set_bit(busy_lanes, lane_index(p, n, v));
    }
  }
}

void Network::rebuild_work_sets() {
  for (ChannelPlane& plane : planes_) {
    for (unsigned p = 0; p < num_partitions(); ++p) {
      collect_work(plane, p, plane.active[p], plane.busy_lanes[p]);
    }
  }
}

bool Network::work_sets_cover_work() const {
  const auto covers = [](const std::vector<std::uint64_t>& set,
                         const std::vector<std::uint64_t>& need) {
    for (std::size_t w = 0; w < set.size(); ++w) {
      if ((need[w] & ~set[w]) != 0) return false;
    }
    return true;
  };
  for (const ChannelPlane& plane : planes_) {
    for (unsigned p = 0; p < num_partitions(); ++p) {
      std::vector<std::uint64_t> active = plane.active[p], busy = plane.busy_lanes[p];
      collect_work(plane, p, active, busy);
      if (!covers(plane.active[p], active) || !covers(plane.busy_lanes[p], busy)) {
        return false;
      }
    }
    for (const auto& r : plane.routers) {
      if (!r->wake_covers_fronts()) return false;
    }
  }
  return true;
}

std::size_t Network::live_packets() const {
  std::size_t live = 0;
  for (const PacketSlab& slab : slabs_) live += slab.live();
  return live;
}

bool Network::quiescent() const {
  for (unsigned p = 0; p < num_partitions(); ++p) {
    if (!quiescent_partition(p)) return false;
  }
  return true;
}

}  // namespace tcmp::noc

// NoC tests: XY routing, pipeline latency, serialization, credit
// backpressure, virtual-network isolation, heterogeneous channel planes and
// delivery guarantees under load.
#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>
#include <vector>
#include <cstdint>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "noc/channel.hpp"
#include "noc/network.hpp"
#include "sim/partition.hpp"
#include "wire/link_design.hpp"

namespace tcmp::noc {
namespace {

using protocol::CoherenceMsg;
using protocol::MsgType;

CoherenceMsg make_msg(unsigned src, unsigned dst, MsgType type = MsgType::kGetS,
                      std::uint64_t line = 0x100) {
  CoherenceMsg m;
  m.type = type;
  m.src = NodeId{src};
  m.dst = NodeId{dst};
  m.line = LineAddr{line};
  m.requester = NodeId{src};
  return m;
}

struct Harness {
  explicit Harness(const wire::LinkPartition& part = wire::baseline_link(),
                   unsigned width = 4, unsigned height = 4) {
    cfg.width = width;
    cfg.height = height;
    cfg.channels = make_channels(part);
    net = std::make_unique<Network>(cfg, &stats);
    net->set_deliver([this](NodeId node, const CoherenceMsg& msg) {
      delivered.push_back({node, msg});
    });
  }

  void run(Cycle cycles) {
    for (Cycle i{0}; i < cycles; ++i) net->tick(++now);
  }

  Cycle run_until_quiescent(Cycle limit = Cycle{100000}) {
    const Cycle start = now;
    while (!net->quiescent()) {
      net->tick(++now);
      TCMP_CHECK(now - start < limit);
    }
    return now - start;
  }

  NocConfig cfg;
  StatRegistry stats;
  std::unique_ptr<Network> net;
  std::vector<std::pair<NodeId, CoherenceMsg>> delivered;
  Cycle now{0};
};

TEST(Channels, BaselineIsSingle75BytePlane) {
  const auto chans = make_channels(wire::baseline_link());
  ASSERT_EQ(chans.size(), 1u);
  EXPECT_EQ(chans[0].width_bytes, 75u);
  EXPECT_EQ(chans[0].link_cycles, 3u);  // 130 ps/mm * 5 mm at 4 GHz
}

TEST(Channels, HeterogeneousAddsFastNarrowPlane) {
  for (unsigned vl : {3u, 4u, 5u}) {
    const auto chans = make_channels(wire::paper_het_link(vl));
    ASSERT_EQ(chans.size(), 2u);
    EXPECT_EQ(chans[kBChannel].width_bytes, 34u);
    EXPECT_EQ(chans[kVlChannel].width_bytes, vl);
    EXPECT_EQ(chans[kVlChannel].link_cycles, 1u);
    EXPECT_LT(chans[kVlChannel].link_cycles, chans[kBChannel].link_cycles);
  }
}

TEST(Channels, FlitSerialization) {
  const auto chans = make_channels(wire::paper_het_link(5));
  EXPECT_EQ(chans[kBChannel].flits_for(Bytes{67}), 2u);  // data reply on 34B plane
  EXPECT_EQ(chans[kBChannel].flits_for(Bytes{11}), 1u);
  EXPECT_EQ(chans[kVlChannel].flits_for(Bytes{5}), 1u);
  EXPECT_EQ(make_channels(wire::baseline_link())[0].flits_for(Bytes{67}), 1u);
}

TEST(Channels, Cheng3WayHasThreeSubnets) {
  const auto chans = make_channels(wire::cheng3way_link());
  ASSERT_EQ(chans.size(), 3u);
  EXPECT_EQ(chans[kBChannel].width_bytes, 17u);
  EXPECT_EQ(chans[kLChannel].width_bytes, 11u);
  EXPECT_EQ(chans[kPwChannel].width_bytes, 28u);
  // L is faster, PW slower than B (Table 2 latencies at 5 mm / 4 GHz).
  EXPECT_LT(chans[kLChannel].link_cycles, chans[kBChannel].link_cycles);
  EXPECT_GT(chans[kPwChannel].link_cycles, chans[kBChannel].link_cycles);
  // A data reply serializes heavily on the narrow B subnet.
  EXPECT_EQ(chans[kBChannel].flits_for(Bytes{67}), 4u);
  EXPECT_EQ(chans[kLChannel].flits_for(Bytes{11}), 1u);
}

TEST(Channels, Cheng3WayFitsTrackBudget) {
  const auto part = wire::cheng3way_link();
  EXPECT_EQ(part.style, wire::LinkStyle::kCheng3Way);
  EXPECT_LE(part.total_tracks, 600.0);
  EXPECT_GE(part.total_tracks, 580.0);  // no large waste either
  EXPECT_FALSE(part.heterogeneous());   // not the paper's VL style
}

TEST(Network, DeliversSingleMessage) {
  Harness h;
  h.net->inject(make_msg(0, 15), kBChannel, Bytes{11}, h.now);
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].first, 15);
  EXPECT_EQ(h.delivered[0].second.type, MsgType::kGetS);
}

TEST(Network, LatencyScalesWithHops) {
  // 0 -> 1 (1 hop) vs 0 -> 15 (6 hops) on the baseline plane.
  Harness near_h;
  near_h.net->inject(make_msg(0, 1), kBChannel, Bytes{11}, near_h.now);
  const Cycle t_near = near_h.run_until_quiescent();

  Harness far_h;
  far_h.net->inject(make_msg(0, 15), kBChannel, Bytes{11}, far_h.now);
  const Cycle t_far = far_h.run_until_quiescent();

  EXPECT_GT(t_far, t_near);
  // Each extra hop costs ~3 (pipeline) + 3 (B link) cycles; 5 extra hops.
  EXPECT_NEAR(static_cast<double>((t_far - t_near).value()), 5 * 6.0, 12.0);
}

TEST(Network, VlPlaneIsFasterThanBPlane) {
  Harness h(wire::paper_het_link(5));
  h.net->inject(make_msg(0, 15), kBChannel, Bytes{11}, h.now);
  const Cycle t_b = h.run_until_quiescent();
  h.delivered.clear();
  h.net->inject(make_msg(0, 15), kVlChannel, Bytes{5}, h.now);
  const Cycle t_vl = h.run_until_quiescent();
  EXPECT_LT(t_vl, t_b);
  // 6 hops saving 2 cycles of link latency each.
  EXPECT_GE((t_b - t_vl).value(), 10u);
}

TEST(Network, MultiFlitPacketArrivesIntact) {
  Harness h(wire::paper_het_link(4));
  h.net->inject(make_msg(2, 9, MsgType::kData, 0xBEEF), kBChannel, Bytes{67}, h.now);
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].second.line.value(), 0xBEEFu);
  EXPECT_EQ(h.stats.counter_value("noc.B.flits_injected"), 2u);
}

TEST(Network, ActiveBitsMatchPayload) {
  Harness h;  // 75-byte plane
  h.net->inject(make_msg(0, 1, MsgType::kData), kBChannel, Bytes{67}, h.now);
  h.run_until_quiescent();
  // One flit, one hop: 67 bytes of toggled wires.
  EXPECT_EQ(h.stats.counter_value("noc.B.bit_hops"), 67u * 8u);
}

TEST(Network, XYRoutingTakesMinimalHops) {
  Harness h;
  // 5 -> 10: (1,1) -> (2,2): 2 hops. flit_hops counts link crossings.
  h.net->inject(make_msg(5, 10), kBChannel, Bytes{11}, h.now);
  h.run_until_quiescent();
  EXPECT_EQ(h.stats.counter_value("noc.B.flit_hops"), 2u);
  // Router traversals = hops + 1 (ejection router).
  EXPECT_EQ(h.stats.counter_value("noc.B.router_traversals"), 3u);
}

TEST(Network, AllPairsDelivery) {
  Harness h;
  unsigned sent = 0;
  for (unsigned s = 0; s < 16; ++s) {
    for (unsigned d = 0; d < 16; ++d) {
      if (s == d) continue;
      h.net->inject(make_msg(static_cast<NodeId>(s), static_cast<NodeId>(d),
                             MsgType::kGetS, s * 100 + d),
                    kBChannel, Bytes{11}, h.now);
      ++sent;
    }
  }
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered.size(), sent);
  std::set<std::pair<NodeId, LineAddr>> seen;
  for (const auto& [node, msg] : h.delivered) seen.insert({node, msg.line});
  EXPECT_EQ(seen.size(), sent);  // no duplicates, all distinct
}

TEST(Network, PerSourceDestinationOrderPreservedWithinChannel) {
  Harness h;
  for (unsigned i = 0; i < 20; ++i) {
    h.net->inject(make_msg(3, 12, MsgType::kGetS, 1000 + i), kBChannel, Bytes{11}, h.now);
  }
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered.size(), 20u);
  for (unsigned i = 0; i < 20; ++i) EXPECT_EQ(h.delivered[i].second.line.value(), 1000 + i);
}

TEST(Network, ChannelsCanReorderBetweenThemselves) {
  // A long message on the slow B plane injected first can be overtaken by a
  // short VL message — the reordering the NI sequence numbers must handle.
  Harness h(wire::paper_het_link(4));
  h.net->inject(make_msg(0, 15, MsgType::kData, 1), kBChannel, Bytes{67}, h.now);
  h.net->inject(make_msg(0, 15, MsgType::kGetS, 2), kVlChannel, Bytes{4}, h.now);
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered.size(), 2u);
  EXPECT_EQ(h.delivered[0].second.line.value(), 2u);  // VL message wins
  EXPECT_EQ(h.delivered[1].second.line.value(), 1u);
}

TEST(Network, BackpressureDoesNotDropUnderBurst) {
  Harness h;
  // Everyone floods node 0 at once: far more flits than total buffering.
  unsigned sent = 0;
  for (unsigned s = 1; s < 16; ++s) {
    for (unsigned i = 0; i < 50; ++i) {
      h.net->inject(make_msg(static_cast<NodeId>(s), 0, MsgType::kData, s * 1000 + i),
                    kBChannel, Bytes{67}, h.now);
      ++sent;
    }
  }
  h.run_until_quiescent(Cycle{1000000});
  EXPECT_EQ(h.delivered.size(), sent);
}

TEST(Network, VnetsDoNotBlockEachOther) {
  Harness h;
  // Saturate vnet 0 toward node 0, then send one vnet-2 message along the
  // same path; it must not wait for the vnet-0 backlog to drain.
  for (unsigned i = 0; i < 200; ++i)
    h.net->inject(make_msg(3, 0, MsgType::kGetS, i), kBChannel, Bytes{11}, h.now);
  h.net->inject(make_msg(3, 0, MsgType::kInvAck, 9999), kBChannel, Bytes{3}, h.now);
  Cycle invack_at{0};
  h.net->set_deliver([&](NodeId, const CoherenceMsg& msg) {
    if (msg.type == MsgType::kInvAck) invack_at = h.now;
    h.delivered.push_back({NodeId{0}, msg});
  });
  h.run_until_quiescent();
  ASSERT_GT(invack_at.value(), 0u);
  // The InvAck (vnet 2) should arrive long before the 200-message backlog
  // drains (~200+ cycles at 1 flit/cycle ejection).
  EXPECT_LT(invack_at.value(), 80u);
}

TEST(Network, DeterministicAcrossRuns) {
  auto run_once = [] {
    Harness h;
    Rng rng(1234);
    for (unsigned i = 0; i < 300; ++i) {
      const auto s = static_cast<NodeId>(rng.next_below(16));
      auto d = static_cast<NodeId>(rng.next_below(16));
      if (d == s) d = static_cast<NodeId>((d + 1) % 16);
      h.net->inject(make_msg(s, d, MsgType::kGetS, i), kBChannel, Bytes{11}, h.now);
      h.net->tick(++h.now);
    }
    h.run_until_quiescent();
    std::vector<std::pair<NodeId, LineAddr>> order;
    order.reserve(h.delivered.size());
    for (const auto& [n, m] : h.delivered) order.emplace_back(n, m.line);
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

struct LoadPoint {
  double injection_rate;  ///< packets per node per cycle
  unsigned cycles;
};
// Test names print the point, not its bytes (padding included).
void PrintTo(const LoadPoint& p, std::ostream* os) {
  *os << "rate " << p.injection_rate << " for " << p.cycles << " cycles";
}

class NetworkLoad : public ::testing::TestWithParam<LoadPoint> {};

TEST_P(NetworkLoad, UniformRandomTrafficAllDelivered) {
  const auto [rate, cycles] = GetParam();
  Harness h;
  Rng rng(99);
  unsigned sent = 0;
  for (unsigned t = 0; t < cycles; ++t) {
    for (unsigned n = 0; n < 16; ++n) {
      if (rng.chance(rate)) {
        auto d = static_cast<NodeId>(rng.next_below(16));
        if (d == n) continue;
        h.net->inject(make_msg(static_cast<NodeId>(n), d, MsgType::kGetS, sent),
                      kBChannel, Bytes{11}, h.now);
        ++sent;
      }
    }
    h.net->tick(++h.now);
  }
  h.run_until_quiescent(Cycle{2000000});
  EXPECT_EQ(h.delivered.size(), sent);
  EXPECT_GT(h.stats.histogram("noc.B.latency").scalar().mean(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, NetworkLoad,
                         ::testing::Values(LoadPoint{0.02, 2000},
                                           LoadPoint{0.10, 1500},
                                           LoadPoint{0.30, 800},
                                           LoadPoint{0.60, 400}));

// --- two-level tree topology ---

struct TreeHarness {
  TreeHarness() {
    cfg.topology = Topology::kTree2Level;
    cfg.channels = make_channels(wire::baseline_link());
    net = std::make_unique<Network>(cfg, &stats);
    net->set_deliver([this](NodeId node, const CoherenceMsg& msg) {
      delivered.push_back({node, msg});
    });
  }
  Cycle run_until_quiescent(Cycle limit = Cycle{200000}) {
    const Cycle start = now;
    while (!net->quiescent()) {
      net->tick(++now);
      TCMP_CHECK(now - start < limit);
    }
    return now - start;
  }
  NocConfig cfg;
  StatRegistry stats;
  std::unique_ptr<Network> net;
  std::vector<std::pair<NodeId, CoherenceMsg>> delivered;
  Cycle now{0};
};

TEST(TreeTopology, FiveRoutersAndFullWiring) {
  TreeHarness h;
  EXPECT_EQ(h.net->router_count(0), 5u);  // 4 clusters + root
  // 8 directed root links x 10 mm + 32 directed leaf stubs x 5 mm = 240 mm,
  // the same metal budget as the 4x4 mesh.
  EXPECT_DOUBLE_EQ(h.net->total_directed_link_mm(0), 240.0);
}

TEST(TreeTopology, IntraClusterStaysLocal) {
  TreeHarness h;
  h.net->inject(make_msg(0, 3), kBChannel, Bytes{11}, h.now);  // same cluster
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].first, 3);
  EXPECT_EQ(h.stats.counter_value("noc.B.flit_hops"), 0u);  // no link crossed
}

TEST(TreeTopology, CrossClusterGoesThroughRoot) {
  TreeHarness h;
  h.net->inject(make_msg(0, 15), kBChannel, Bytes{11}, h.now);  // cluster 0 -> 3
  h.run_until_quiescent();
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].first, 15);
  EXPECT_EQ(h.stats.counter_value("noc.B.flit_hops"), 2u);  // up + down
}

TEST(TreeTopology, AllPairsDeliver) {
  TreeHarness h;
  unsigned sent = 0;
  for (unsigned s = 0; s < 16; ++s) {
    for (unsigned d = 0; d < 16; ++d) {
      if (s == d) continue;
      h.net->inject(make_msg(static_cast<NodeId>(s), static_cast<NodeId>(d),
                             MsgType::kGetS, s * 100 + d),
                    kBChannel, Bytes{11}, h.now);
      ++sent;
    }
  }
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered.size(), sent);
}

TEST(TreeTopology, RootLinksAreLonger) {
  // Cross-cluster latency must exceed intra-cluster latency by the two long
  // root-link traversals.
  TreeHarness near_h;
  near_h.net->inject(make_msg(0, 1), kBChannel, Bytes{11}, near_h.now);
  const Cycle t_near = near_h.run_until_quiescent();
  TreeHarness far_h;
  far_h.net->inject(make_msg(0, 15), kBChannel, Bytes{11}, far_h.now);
  const Cycle t_far = far_h.run_until_quiescent();
  EXPECT_GE(t_far, t_near + 10);  // 2 x (1 + 6-cycle root link)
}

TEST(Network, LatencyGrowsWithLoad) {
  auto mean_latency = [](double rate) {
    Harness h;
    Rng rng(7);
    for (unsigned t = 0; t < 1500; ++t) {
      for (unsigned n = 0; n < 16; ++n) {
        if (rng.chance(rate)) {
          auto d = static_cast<NodeId>(rng.next_below(16));
          if (d == n) continue;
          h.net->inject(make_msg(static_cast<NodeId>(n), d), kBChannel, Bytes{11}, h.now);
        }
      }
      h.net->tick(++h.now);
    }
    h.run_until_quiescent(Cycle{2000000});
    return h.stats.histogram("noc.B.latency").scalar().mean();
  };
  const double low = mean_latency(0.01);
  const double high = mean_latency(0.4);
  EXPECT_GT(high, low * 1.3);
}

// --- work sets (docs/performance.md "Router tick") ---

struct WorkSetCase {
  const char* name;
  wire::LinkPartition link;
  Topology topology;
  bool single_cycle;
  unsigned partitions;
};

// Random multi-flit traffic on every channel and vnet, driven through the
// partition lockstep the system driver uses. After every cycle no router
// outside its partition's active set may hold a flit, no injection lane
// outside the busy set may hold a packet, and no router's wake may be later
// than a front flit's arrival: a missed wake site would leave work that is
// never ticked. Once drained, every packet slab is empty.
void check_work_sets(const WorkSetCase& c) {
  SCOPED_TRACE(c.name);
  NocConfig cfg;
  cfg.topology = c.topology;
  cfg.channels = make_channels(c.link);
  cfg.single_cycle_router = c.single_cycle;
  const sim::PartitionPlan plan(cfg.width, cfg.height, c.partitions);
  std::vector<StatRegistry> shards(c.partitions);
  std::vector<StatRegistry*> shard_ptrs;
  for (StatRegistry& s : shards) shard_ptrs.push_back(&s);
  Network net(cfg, plan, shard_ptrs);
  unsigned delivered = 0;
  net.set_deliver([&](NodeId, const CoherenceMsg&) { ++delivered; });

  const MsgType types[] = {MsgType::kGetS, MsgType::kFwdGetS, MsgType::kData};
  Rng rng(42);
  unsigned sent = 0;
  Cycle now{0};
  for (unsigned t = 0; t < 3000 || !net.quiescent() || !net.boundaries_empty(); ++t) {
    ASSERT_LT(t, 200000u) << "network did not drain";
    if (t < 3000) {
      for (unsigned n = 0; n < cfg.nodes(); ++n) {
        if (!rng.chance(0.08)) continue;
        auto d = static_cast<unsigned>(rng.next_below(cfg.nodes()));
        if (d == n) continue;
        const auto ch = static_cast<unsigned>(rng.next_below(net.num_channels()));
        const Bytes bytes{1 + static_cast<unsigned>(rng.next_below(80))};
        net.inject(make_msg(n, d, types[rng.next_below(3)], sent), ch, bytes, now);
        ++sent;
      }
    }
    ++now;
    net.begin_cycle(now);
    for (unsigned p = 0; p < net.num_partitions(); ++p) {
      net.drain_boundary(p);
      net.tick_partition(p, now);
    }
    net.exchange_boundaries();
    ASSERT_TRUE(net.work_sets_cover_work()) << "cycle " << now.value();
  }
  EXPECT_EQ(delivered, sent);
  EXPECT_GT(sent, 1000u);
  EXPECT_EQ(net.live_packets(), 0u);
}

TEST(WorkSets, EveryWakeSiteIsCovered) {
  const WorkSetCase cases[] = {
      {"het mesh, single-cycle", wire::paper_het_link(4), Topology::kMesh2D, true, 1},
      {"het mesh, 3-stage", wire::paper_het_link(4), Topology::kMesh2D, false, 1},
      {"cheng3way mesh, single-cycle", wire::cheng3way_link(), Topology::kMesh2D, true, 1},
      {"cheng3way mesh, 3-stage", wire::cheng3way_link(), Topology::kMesh2D, false, 1},
      {"tree", wire::paper_het_link(4), Topology::kTree2Level, true, 1},
      {"het mesh, 2 partitions", wire::paper_het_link(4), Topology::kMesh2D, true, 2},
  };
  for (const WorkSetCase& c : cases) check_work_sets(c);
}

TEST(RouterDeathTest, ZeroCycleLinkIsRejected) {
  // The fused tick relies on every link taking at least one cycle.
  StatRegistry stats;
  Router a(NodeId{0}, Router::Config{}, &stats, "a");
  Router b(NodeId{1}, Router::Config{}, &stats, "b");
  EXPECT_DEATH(a.connect(kPortE, &b, kPortW, 0, 1.0), "at least one cycle");
}

}  // namespace
}  // namespace tcmp::noc

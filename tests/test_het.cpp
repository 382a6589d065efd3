// Tests for the paper's core contribution: message classification (Fig. 4),
// the VL/B wire-mapping policy (Sec. 4.3) and the NIC's sequence-ordered
// decompression under channel reordering.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "het/nic.hpp"
#include "het/wire_policy.hpp"
#include "noc/channel.hpp"
#include "noc/network.hpp"
#include "wire/link_design.hpp"

namespace tcmp::het {
namespace {

using compression::SchemeConfig;
using protocol::CoherenceMsg;
using protocol::MsgType;

// --- Fig. 4 classification ---

TEST(Classification, CriticalityMatchesFig4) {
  using protocol::is_critical;
  // Critical: requests, responses, commands, inv-acks.
  for (MsgType t : {MsgType::kGetS, MsgType::kGetX, MsgType::kUpgrade, MsgType::kData,
                    MsgType::kDataExcl, MsgType::kUpgradeAck, MsgType::kInv,
                    MsgType::kFwdGetS, MsgType::kFwdGetX, MsgType::kInvAck}) {
    EXPECT_TRUE(is_critical(t)) << protocol::to_string(t);
  }
  // Non-critical: replacements and revision messages (the "3b" leg).
  for (MsgType t : {MsgType::kPutE, MsgType::kPutM, MsgType::kRevision,
                    MsgType::kAckRevision, MsgType::kPutAck}) {
    EXPECT_FALSE(is_critical(t)) << protocol::to_string(t);
  }
}

TEST(Classification, SizesMatchSection51) {
  using protocol::uncompressed_bytes;
  EXPECT_EQ(uncompressed_bytes(MsgType::kGetS), 11u);     // 3 ctrl + 8 addr
  EXPECT_EQ(uncompressed_bytes(MsgType::kInv), 11u);
  EXPECT_EQ(uncompressed_bytes(MsgType::kUpgradeAck), 11u);
  EXPECT_EQ(uncompressed_bytes(MsgType::kInvAck), 3u);    // control only
  EXPECT_EQ(uncompressed_bytes(MsgType::kPutE), 3u);      // hint without data
  EXPECT_EQ(uncompressed_bytes(MsgType::kData), 67u);     // 3 ctrl + 64 line
  EXPECT_EQ(uncompressed_bytes(MsgType::kPutM), 67u);
  EXPECT_EQ(uncompressed_bytes(MsgType::kRevision), 67u);
}

TEST(Classification, CompressionClassesSeparateRequestsFromCommands) {
  using protocol::compression_class;
  using compression::MsgClass;
  EXPECT_EQ(compression_class(MsgType::kGetS), MsgClass::kRequest);
  EXPECT_EQ(compression_class(MsgType::kGetX), MsgClass::kRequest);
  EXPECT_EQ(compression_class(MsgType::kUpgrade), MsgClass::kRequest);
  EXPECT_EQ(compression_class(MsgType::kInv), MsgClass::kCommand);
  EXPECT_EQ(compression_class(MsgType::kFwdGetS), MsgClass::kCommand);
  EXPECT_EQ(compression_class(MsgType::kUpgradeAck), MsgClass::kCommand);
}

// --- mapping policy ---

TEST(WirePolicy, BaselineMapsEverythingToBWires) {
  const SchemeConfig scheme = SchemeConfig::dbrc(4, 2);
  for (unsigned i = 0; i < protocol::kNumMsgTypes; ++i) {
    const auto t = static_cast<MsgType>(i);
    const MappingDecision d = map_message(t, true, scheme, wire::LinkStyle::kBaseline);
    EXPECT_EQ(d.channel, noc::kBChannel);
    EXPECT_EQ(d.wire_bytes, protocol::uncompressed_bytes(t));
  }
}

TEST(WirePolicy, Cheng3WayMapsByCriticalityAndSize) {
  const SchemeConfig scheme = SchemeConfig::none();
  const auto style = wire::LinkStyle::kCheng3Way;
  // Short critical -> L subnet, uncompressed.
  EXPECT_EQ(map_message(MsgType::kGetS, false, scheme, style).channel, noc::kLChannel);
  EXPECT_EQ(map_message(MsgType::kGetS, false, scheme, style).wire_bytes, 11u);
  EXPECT_EQ(map_message(MsgType::kInvAck, false, scheme, style).channel, noc::kLChannel);
  // Non-critical -> PW subnet.
  EXPECT_EQ(map_message(MsgType::kPutM, false, scheme, style).channel, noc::kPwChannel);
  EXPECT_EQ(map_message(MsgType::kRevision, false, scheme, style).channel,
            noc::kPwChannel);
  EXPECT_EQ(map_message(MsgType::kPutAck, false, scheme, style).channel,
            noc::kPwChannel);
  // Critical data -> B subnet.
  EXPECT_EQ(map_message(MsgType::kData, false, scheme, style).channel, noc::kBChannel);
  // Never compresses.
  EXPECT_FALSE(wants_compression(MsgType::kGetS, SchemeConfig::dbrc(4, 2), style));
}

TEST(WirePolicy, CompressedCriticalShortsRideVl) {
  const SchemeConfig scheme = SchemeConfig::dbrc(4, 2);  // 5-byte VL
  const MappingDecision d = map_message(MsgType::kGetS, true, scheme, wire::LinkStyle::kVlHet);
  EXPECT_EQ(d.channel, noc::kVlChannel);
  EXPECT_TRUE(d.compressed);
  EXPECT_EQ(d.wire_bytes, 5u);  // 3 ctrl + 2 compressed
}

TEST(WirePolicy, UncompressedCriticalShortsFallBackToB) {
  const SchemeConfig scheme = SchemeConfig::dbrc(4, 2);
  const MappingDecision d = map_message(MsgType::kGetS, false, scheme, wire::LinkStyle::kVlHet);
  EXPECT_EQ(d.channel, noc::kBChannel);
  EXPECT_EQ(d.wire_bytes, 11u);
}

TEST(WirePolicy, AddressFreeCoherenceRepliesRideVl) {
  const SchemeConfig scheme = SchemeConfig::dbrc(4, 2);
  const MappingDecision d = map_message(MsgType::kInvAck, false, scheme, wire::LinkStyle::kVlHet);
  EXPECT_EQ(d.channel, noc::kVlChannel);
  EXPECT_EQ(d.wire_bytes, 3u);
}

TEST(WirePolicy, DataAndNonCriticalStayOnB) {
  const SchemeConfig scheme = SchemeConfig::dbrc(4, 2);
  for (MsgType t : {MsgType::kData, MsgType::kDataExcl, MsgType::kPutM,
                    MsgType::kRevision, MsgType::kPutE, MsgType::kPutAck,
                    MsgType::kAckRevision}) {
    const MappingDecision d = map_message(t, true, scheme, wire::LinkStyle::kVlHet);
    EXPECT_EQ(d.channel, noc::kBChannel) << protocol::to_string(t);
    EXPECT_FALSE(d.compressed);
  }
}

TEST(WirePolicy, WantsCompressionOnlyForCriticalAddressCarriers) {
  const SchemeConfig scheme = SchemeConfig::dbrc(4, 2);
  const auto het = wire::LinkStyle::kVlHet;
  EXPECT_TRUE(wants_compression(MsgType::kGetS, scheme, het));
  EXPECT_TRUE(wants_compression(MsgType::kInv, scheme, het));
  EXPECT_FALSE(wants_compression(MsgType::kData, scheme, het));
  EXPECT_FALSE(wants_compression(MsgType::kPutE, scheme, het));  // non-critical
  EXPECT_FALSE(wants_compression(MsgType::kGetS, scheme, wire::LinkStyle::kBaseline));
  EXPECT_FALSE(wants_compression(MsgType::kGetS, SchemeConfig::none(), het));
}

// --- NIC over a real heterogeneous network ---

struct NicHarness {
  explicit NicHarness(const SchemeConfig& scheme) {
    cfg.channels = noc::make_channels(wire::paper_het_link(scheme.vl_width_bytes()));
    net = std::make_unique<noc::Network>(cfg, &stats);
    for (unsigned n = 0; n < 16; ++n) {
      nics.push_back(std::make_unique<TileNic>(static_cast<NodeId>(n), scheme,
                                               wire::LinkStyle::kVlHet, 16,
                                               net.get(), &stats));
    }
    net->set_deliver([this](NodeId node, const CoherenceMsg& msg) {
      nics[node]->receive(msg, now, [this](const CoherenceMsg& m) {
        delivered.push_back(m);
      });
    });
  }

  void run_until_quiescent() {
    while (!net->quiescent()) net->tick(++now);
  }

  noc::NocConfig cfg;
  StatRegistry stats;
  std::unique_ptr<noc::Network> net;
  std::vector<std::unique_ptr<TileNic>> nics;
  std::vector<CoherenceMsg> delivered;
  Cycle now{0};
};

CoherenceMsg request(unsigned src, unsigned dst, std::uint64_t line) {
  CoherenceMsg m;
  m.type = MsgType::kGetS;
  m.src = NodeId{src};
  m.dst = NodeId{dst};
  m.line = LineAddr{line};
  m.requester = NodeId{src};
  return m;
}

TEST(TileNic, CompressedTrafficUsesVlChannel) {
  NicHarness h(SchemeConfig::dbrc(4, 2));
  // Warm the region, then send compressible requests.
  for (int i = 0; i < 10; ++i) h.nics[0]->send(request(0, 5, 0x1000 + i), h.now);
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered.size(), 10u);
  EXPECT_GE(h.stats.counter_value("het.vl_messages"), 9u);  // all but the install
  EXPECT_GE(h.stats.counter_value("compression.compressed"), 9u);
}

TEST(TileNic, ReorderingIsResolvedInSequenceOrder) {
  // Stride compression is order-sensitive: an uncompressed install followed
  // by compressed deltas must decode correctly even though the install rides
  // the slow B plane and the deltas ride the fast VL plane.
  NicHarness h(SchemeConfig::stride(2));
  h.nics[3]->send(request(3, 12, 0x555000), h.now);      // install: B plane
  h.nics[3]->send(request(3, 12, 0x555001), h.now);      // delta: VL plane
  h.nics[3]->send(request(3, 12, 0x555002), h.now);
  // One cycle at a time: while a delta that overtook the install is parked
  // in the reorder window, the receiving NIC holds work, and the install it
  // waits for is still in the network.
  unsigned parked_cycles = 0;
  while (!h.net->quiescent()) {
    h.net->tick(++h.now);
    if (h.nics[12]->quiescent()) continue;
    ++parked_cycles;
    EXPECT_TRUE(h.delivered.empty());
    EXPECT_FALSE(h.net->quiescent());
  }
  EXPECT_GT(parked_cycles, 0u);
  EXPECT_TRUE(h.nics[12]->quiescent());
  ASSERT_EQ(h.delivered.size(), 3u);
  // Reordering happened (VL overtook B) but decode applied in seq order.
  EXPECT_GE(h.stats.counter_value("het.reordered_messages"), 1u);
  std::set<LineAddr> lines;
  for (const auto& m : h.delivered) lines.insert(m.line);
  EXPECT_EQ(lines, (std::set<LineAddr>{LineAddr{0x555000}, LineAddr{0x555001},
                                       LineAddr{0x555002}}));
}

TEST(TileNic, RandomizedStreamsDecodeExactly) {
  // The TCMP_CHECK inside the NIC aborts on any sender/receiver divergence,
  // so surviving this soak IS the assertion.
  NicHarness h(SchemeConfig::dbrc(16, 1));
  Rng rng(77);
  unsigned sent = 0;
  for (int round = 0; round < 400; ++round) {
    const auto src = static_cast<NodeId>(rng.next_below(16));
    auto dst = static_cast<NodeId>(rng.next_below(16));
    if (dst == src) dst = static_cast<NodeId>((dst + 1) % 16);
    h.nics[src]->send(request(src, dst, 0x2000 + rng.next_below(4096)), h.now);
    ++sent;
    h.net->tick(++h.now);
  }
  h.run_until_quiescent();
  EXPECT_EQ(h.delivered.size(), sent);
}

TEST(TileNic, CompressionAccessesAreCounted) {
  NicHarness h(SchemeConfig::dbrc(4, 2));
  for (int i = 0; i < 5; ++i) h.nics[1]->send(request(1, 9, 0x3000 + i), h.now);
  h.run_until_quiescent();
  EXPECT_GE(h.nics[1]->compression_accesses(), 5u);  // sender lookups
  EXPECT_GE(h.nics[9]->compression_accesses(), 5u);  // receiver reads
}

}  // namespace
}  // namespace tcmp::het

// Slack/criticality telemetry: the classification table and the
// destination-unstall predicate as pure functions, the park/resolve
// bookkeeping of SlackTelemetry in isolation, and end-to-end realized-slack
// distributions on live runs of two workloads (acceptance: at least two
// class x wire cells populated, and nothing registered while the telemetry
// is off — golden runs stay byte-identical).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "cmp/system.hpp"
#include "obs/observer.hpp"
#include "obs/slack.hpp"
#include "workloads/synthetic_app.hpp"

using namespace tcmp;

namespace {

std::shared_ptr<core::Workload> small_app(const std::string& name,
                                          unsigned tiles, double scale) {
  return std::make_shared<workloads::SyntheticApp>(
      workloads::app(name).scaled(scale), tiles);
}

// --- classification table ---------------------------------------------------

TEST(SlackClassify, CriticalMessagesSplitOnCoreState) {
  using protocol::MsgType;
  EXPECT_EQ(obs::classify(MsgType::kGetS, true),
            obs::CritClass::kBlockingDemand);
  EXPECT_EQ(obs::classify(MsgType::kData, true),
            obs::CritClass::kBlockingDemand);
  EXPECT_EQ(obs::classify(MsgType::kGetS, false),
            obs::CritClass::kOverlapTolerant);
  EXPECT_EQ(obs::classify(MsgType::kInvAck, false),
            obs::CritClass::kOverlapTolerant);
}

TEST(SlackClassify, ReplacementTrafficIgnoresCoreState) {
  // Fig. 4 non-critical types are kAckWriteback even if the core happens to
  // be stalled (the stall is not on them).
  using protocol::MsgType;
  for (const auto t : {MsgType::kPutE, MsgType::kPutM, MsgType::kPutAck,
                       MsgType::kRevision, MsgType::kAckRevision}) {
    EXPECT_EQ(obs::classify(t, true), obs::CritClass::kAckWriteback);
    EXPECT_EQ(obs::classify(t, false), obs::CritClass::kAckWriteback);
  }
}

TEST(SlackClassify, UnstallPredicateMatchesDeliveryTargets) {
  using protocol::MsgType;
  using protocol::Unit;
  // Replies into an L1 can end a data stall.
  EXPECT_TRUE(obs::can_unstall_dst(MsgType::kData, Unit::kL1));
  EXPECT_TRUE(obs::can_unstall_dst(MsgType::kDataExcl, Unit::kL1));
  EXPECT_TRUE(obs::can_unstall_dst(MsgType::kUpgradeAck, Unit::kL1));
  EXPECT_TRUE(obs::can_unstall_dst(MsgType::kPartialReply, Unit::kL1));
  EXPECT_TRUE(obs::can_unstall_dst(MsgType::kInvAck, Unit::kL1));
  // The ifetch reply into an L1I can end an ifetch stall.
  EXPECT_TRUE(obs::can_unstall_dst(MsgType::kData, Unit::kL1I));
  // Directory-bound traffic and commands into an L1 never end a stall at
  // their destination.
  EXPECT_FALSE(obs::can_unstall_dst(MsgType::kGetS, Unit::kDir));
  EXPECT_FALSE(obs::can_unstall_dst(MsgType::kInvAck, Unit::kDir));
  EXPECT_FALSE(obs::can_unstall_dst(MsgType::kInv, Unit::kL1));
  EXPECT_FALSE(obs::can_unstall_dst(MsgType::kFwdGetS, Unit::kL1));
  EXPECT_FALSE(obs::can_unstall_dst(MsgType::kPutAck, Unit::kL1));
}

// --- SlackTelemetry bookkeeping in isolation --------------------------------

protocol::CoherenceMsg data_reply(LineAddr line, std::uint8_t cls,
                                  std::uint8_t wire) {
  protocol::CoherenceMsg msg;
  msg.type = protocol::MsgType::kData;
  msg.dst_unit = protocol::Unit::kL1;
  msg.line = line;
  msg.slack_class = cls;
  msg.wire_class = wire;
  return msg;
}

TEST(SlackTelemetry, ParkedDeliveryResolvesAtUnstall) {
  StatRegistry stats;
  obs::SlackTelemetry slack;
  slack.init(&stats, {"VL", "B", "local"});
  ASSERT_TRUE(slack.enabled());
  EXPECT_EQ(slack.num_wire_classes(), 3u);

  const auto msg = data_reply(LineAddr{0x40}, /*cls=*/0, /*wire=*/1);
  slack.on_delivered(NodeId{3}, msg, /*parked=*/true, Cycle{100});
  EXPECT_EQ(slack.resolved(obs::CritClass::kBlockingDemand, 1), 0u);

  slack.on_unstall(NodeId{3}, LineAddr{0x40}, Cycle{112});
  EXPECT_EQ(slack.resolved(obs::CritClass::kBlockingDemand, 1), 1u);
  EXPECT_EQ(slack.nonblocking(obs::CritClass::kBlockingDemand, 1), 0u);
}

TEST(SlackTelemetry, UnparkedDeliveryCountsNonblocking) {
  StatRegistry stats;
  obs::SlackTelemetry slack;
  slack.init(&stats, {"VL", "B"});
  const auto msg = data_reply(LineAddr{0x80}, /*cls=*/2, /*wire=*/0);
  slack.on_delivered(NodeId{0}, msg, /*parked=*/false, Cycle{5});
  EXPECT_EQ(slack.nonblocking(obs::CritClass::kAckWriteback, 0), 1u);
  EXPECT_EQ(slack.resolved(obs::CritClass::kAckWriteback, 0), 0u);
}

TEST(SlackTelemetry, FinalizeFlushesStillParkedDeliveries) {
  // A run that ends before the core unstalls must still account every
  // delivery exactly once: finalize() moves parked entries to nonblocking.
  StatRegistry stats;
  obs::SlackTelemetry slack;
  slack.init(&stats, {"VL", "B"});
  slack.on_delivered(NodeId{1}, data_reply(LineAddr{0xC0}, 1, 1),
                     /*parked=*/true, Cycle{50});
  EXPECT_EQ(slack.nonblocking(obs::CritClass::kOverlapTolerant, 1), 0u);
  slack.finalize();
  EXPECT_EQ(slack.nonblocking(obs::CritClass::kOverlapTolerant, 1), 1u);
  EXPECT_EQ(slack.resolved(obs::CritClass::kOverlapTolerant, 1), 0u);
}

TEST(SlackTelemetry, MultipleConstituentsOfOneMissAllResolve) {
  // A write miss can park several in-flight constituents under the same
  // (tile, line) key — DataExcl plus early InvAcks; one unstall resolves all.
  StatRegistry stats;
  obs::SlackTelemetry slack;
  slack.init(&stats, {"VL", "B"});
  slack.on_delivered(NodeId{2}, data_reply(LineAddr{0x100}, 0, 0),
                     /*parked=*/true, Cycle{10});
  auto ack = data_reply(LineAddr{0x100}, 1, 1);
  ack.type = protocol::MsgType::kInvAck;
  slack.on_delivered(NodeId{2}, ack, /*parked=*/true, Cycle{14});
  slack.on_unstall(NodeId{2}, LineAddr{0x100}, Cycle{20});
  EXPECT_EQ(slack.resolved(obs::CritClass::kBlockingDemand, 0), 1u);
  EXPECT_EQ(slack.resolved(obs::CritClass::kOverlapTolerant, 1), 1u);
}

// --- end-to-end on live runs ------------------------------------------------

void expect_slack_populated(const std::string& app) {
  const auto cfg =
      cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  obs::ObsConfig ocfg;
  ocfg.level = obs::Level::kTimeseries;
  cmp::CmpSystem system(cfg, small_app(app, cfg.n_tiles, 0.05));
  obs::Observer observer(ocfg, &system.stats());
  system.attach_observer(&observer);
  ASSERT_TRUE(system.run(Cycle{50'000'000}));
  observer.finalize(system.total_cycles());

  // The report table names the populated cells (and finalizes the
  // telemetry first).
  std::ostringstream table;
  system.write_slack_table(table);
  EXPECT_NE(table.str().find("blocking"), std::string::npos);

  // The distributions landed in the StatRegistry under the "slack." prefix
  // (and are therefore exported by the canonical metrics plane): per class x
  // wire cell, realized-slack samples in the "slack.<cell>" histogram and
  // nonblocking deliveries in its ".nonblocking" counter.
  const StatRegistry& stats = system.merged_stats();
  unsigned cells = 0;
  unsigned populated = 0;
  std::uint64_t resolved = 0;
  std::uint64_t nonblocking = 0;
  for (const auto& [name, hist] : stats.histograms()) {
    if (name.rfind("slack.", 0) != 0) continue;
    ++cells;
    const std::uint64_t nb = stats.counter_value(name + ".nonblocking");
    resolved += hist.scalar().count();
    nonblocking += nb;
    if (hist.scalar().count() + nb > 0) ++populated;
  }
  // Heterogeneous mesh channels plus the "local" pseudo-wire.
  EXPECT_EQ(cells, obs::kNumCritClasses * (system.network().num_channels() + 1));
  // Distributions span multiple class x wire cells, with both realized-slack
  // samples and nonblocking deliveries present.
  EXPECT_GE(populated, 2u) << app;
  EXPECT_GT(resolved, 0u) << app;
  EXPECT_GT(nonblocking, 0u) << app;
}

TEST(SlackEndToEnd, Mp3dDistributionsPopulated) {
  expect_slack_populated("MP3D");
}

TEST(SlackEndToEnd, BarnesDistributionsPopulated) {
  expect_slack_populated("Barnes");
}

TEST(SlackEndToEnd, NoObserverRegistersNoSlackStats) {
  // Golden byte-identity depends on unobserved runs never touching the
  // slack plane: no stats registered, telemetry never enabled.
  const auto cfg =
      cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  cmp::CmpSystem system(cfg, small_app("MP3D", cfg.n_tiles, 0.02));
  ASSERT_TRUE(system.run(Cycle{50'000'000}));
  for (const auto& [name, hist] : system.stats().histograms()) {
    EXPECT_NE(name.rfind("slack.", 0), 0u) << name;
  }
}

}  // namespace

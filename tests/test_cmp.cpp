// Full-system integration tests: 16-tile CMP end to end, baseline vs
// heterogeneous configurations, warmup semantics, result extraction and the
// headline directional properties the paper's evaluation rests on.
#include <gtest/gtest.h>

#include "cmp/report.hpp"
#include "cmp/system.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp::cmp {
namespace {

workloads::AppParams small_app(const char* name, double scale = 0.1) {
  return workloads::app(name).scaled(scale);
}

RunResult run_one(const CmpConfig& cfg, const workloads::AppParams& params) {
  CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(params, cfg.n_tiles));
  const bool finished = system.run(Cycle{200'000'000});
  EXPECT_TRUE(finished);
  return make_result(system);
}

TEST(CmpConfig, NamedConfigurations) {
  EXPECT_FALSE(CmpConfig::baseline().heterogeneous());
  const auto het = CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  EXPECT_TRUE(het.heterogeneous());
  EXPECT_EQ(het.link.vl_bytes, 5u);
  EXPECT_EQ(het.link.b_bytes, 34u);
  EXPECT_EQ(CmpConfig::baseline().link.b_bytes, 75u);
}

TEST(CmpSystem, BaselineRunsToCompletion) {
  CmpSystem system(CmpConfig::baseline(),
                   std::make_shared<workloads::SyntheticApp>(small_app("FFT"), 16));
  EXPECT_TRUE(system.run(Cycle{200'000'000}));
  EXPECT_TRUE(system.finished());
  EXPECT_GT(system.cycles().value(), 0u);
  EXPECT_GT(system.total_instructions(), 0u);
}

TEST(CmpSystem, WarmupBoundaryResetsMeasurement) {
  CmpSystem system(CmpConfig::baseline(),
                   std::make_shared<workloads::SyntheticApp>(small_app("LU-cont"), 16));
  EXPECT_FALSE(system.warmup_done());
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  EXPECT_TRUE(system.warmup_done());
  EXPECT_LT(system.cycles(), system.total_cycles());
  EXPECT_LT(system.measured_instructions(), system.total_instructions());
}

TEST(CmpSystem, DeterministicAcrossRuns) {
  auto once = [] {
    CmpSystem system(CmpConfig::heterogeneous(compression::SchemeConfig::stride(2)),
                     std::make_shared<workloads::SyntheticApp>(small_app("MP3D"), 16));
    EXPECT_TRUE(system.run(Cycle{200'000'000}));
    return system.cycles();
  };
  EXPECT_EQ(once(), once());
}

TEST(CmpSystem, LocalMessagesBypassTheMesh) {
  const auto r = run_one(CmpConfig::baseline(), small_app("Ocean-cont"));
  EXPECT_GT(r.local_messages, 0u);
  EXPECT_GT(r.remote_messages, 10 * r.local_messages / 16);  // 15/16 remote homes
}

TEST(RunResult, EnergyBreakdownIsPopulated) {
  const auto r = run_one(CmpConfig::baseline(), small_app("FFT"));
  EXPECT_GT(r.energy.get(power::EnergyAccount::kLinkDynamic).value(), 0.0);
  EXPECT_GT(r.energy.get(power::EnergyAccount::kLinkStatic).value(), 0.0);
  EXPECT_GT(r.energy.get(power::EnergyAccount::kRouterBuffer).value(), 0.0);
  EXPECT_GT(r.energy.get(power::EnergyAccount::kCoreDynamic).value(), 0.0);
  EXPECT_GT(r.total_energy().value(), r.interconnect_energy().value());
  EXPECT_GT(r.interconnect_energy().value(), r.link_energy().value() * 0.99);
  EXPECT_GT(r.seconds.value(), 0.0);
  // Baseline has no compression hardware.
  EXPECT_EQ(r.energy.get(power::EnergyAccount::kCompressionDynamic).value(), 0.0);
  EXPECT_EQ(r.compression_coverage, 0.0);
}

TEST(RunResult, InterconnectShareIsPlausible) {
  // Calibration target: interconnect ~= 30-50% of chip energy (Wang'02 /
  // Magen'04 as cited by the paper).
  const auto r = run_one(CmpConfig::baseline(), small_app("MP3D"));
  const double share = r.interconnect_energy() / r.total_energy();
  EXPECT_GT(share, 0.25);
  EXPECT_LT(share, 0.55);
}

TEST(RunResult, MessageCountsCoverProtocolTypes) {
  const auto r = run_one(CmpConfig::baseline(), small_app("MP3D"));
  EXPECT_GT(r.msg_counts.at("GetS"), 0u);
  EXPECT_GT(r.msg_counts.at("Data"), 0u);
  EXPECT_GT(r.msg_counts.at("Inv"), 0u);
  EXPECT_GT(r.msg_counts.at("PutM"), 0u);
}

// --- the paper's directional claims, end to end (scaled down) ---

struct HetCase {
  const char* app;
  compression::SchemeConfig scheme;
};

// Test names embed the printed parameter; print the app and scheme rather
// than the raw bytes, which would include the address of `app`.
void PrintTo(const HetCase& c, std::ostream* os) { *os << c.app << ' ' << c.scheme.name(); }

class HetEndToEnd : public ::testing::TestWithParam<HetCase> {};

TEST_P(HetEndToEnd, HetImprovesExecutionAndLinkEd2p) {
  const auto& [app_name, scheme] = GetParam();
  const auto params = workloads::app(app_name).scaled(0.25);
  const auto base = run_one(CmpConfig::baseline(), params);
  const auto het = run_one(CmpConfig::heterogeneous(scheme), params);
  // Execution must not regress (and generally improves).
  EXPECT_LE(het.cycles.value(), base.cycles.value() * 101 / 100);
  // Link ED2P improves substantially (the headline result).
  EXPECT_LT(het.link_ed2p(), 0.8 * base.link_ed2p());
  // Full-chip ED2P improves too.
  EXPECT_LT(het.full_cmp_ed2p(), base.full_cmp_ed2p());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HetEndToEnd,
    ::testing::Values(HetCase{"MP3D", compression::SchemeConfig::dbrc(4, 2)},
                      HetCase{"MP3D", compression::SchemeConfig::stride(2)},
                      HetCase{"Unstructured", compression::SchemeConfig::dbrc(16, 2)},
                      HetCase{"FFT", compression::SchemeConfig::dbrc(16, 1)},
                      HetCase{"Water-nsq", compression::SchemeConfig::dbrc(4, 2)},
                      HetCase{"Ocean-cont", compression::SchemeConfig::perfect(3)}));

TEST(HetEndToEnd, CoherenceBoundAppsGainMoreThanComputeBound) {
  const auto mp3d = workloads::app("MP3D").scaled(0.25);
  const auto water = workloads::app("Water-nsq").scaled(0.25);
  const auto scheme = compression::SchemeConfig::dbrc(4, 2);

  const double mp3d_gain =
      static_cast<double>(run_one(CmpConfig::baseline(), mp3d).cycles.value()) /
      static_cast<double>(run_one(CmpConfig::heterogeneous(scheme), mp3d).cycles.value());
  const double water_gain =
      static_cast<double>(run_one(CmpConfig::baseline(), water).cycles.value()) /
      static_cast<double>(run_one(CmpConfig::heterogeneous(scheme), water).cycles.value());
  EXPECT_GT(mp3d_gain, water_gain);
  EXPECT_GT(mp3d_gain, 1.08);  // the paper's high-variability end
}

TEST(HetEndToEnd, HighCoverageSchemesTrackPerfect) {
  const auto params = workloads::app("MP3D").scaled(0.25);
  const auto dbrc = run_one(
      CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2)), params);
  const auto perfect = run_one(
      CmpConfig::heterogeneous(compression::SchemeConfig::perfect(5)), params);
  EXPECT_GT(dbrc.compression_coverage, 0.9);
  // With >90% coverage the realized time is within ~3% of the oracle.
  EXPECT_LT(static_cast<double>(dbrc.cycles.value()),
            static_cast<double>(perfect.cycles.value()) * 1.03);
}

TEST(HetEndToEnd, LargerDbrcWorsensFullChipEd2p) {
  // The Fig. 7 observation: the 64-entry cache's extra power is not paid
  // back once coverage has saturated.
  const auto params = workloads::app("Ocean-cont").scaled(0.25);
  const auto base = run_one(CmpConfig::baseline(), params);
  const auto small = run_one(
      CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2)), params);
  const auto big = run_one(
      CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(64, 2)), params);
  const double small_ratio = small.full_cmp_ed2p() / base.full_cmp_ed2p();
  const double big_ratio = big.full_cmp_ed2p() / base.full_cmp_ed2p();
  EXPECT_GT(big_ratio, small_ratio);
}

TEST(HetEndToEnd, ReplyPartitioningImprovesReadBoundApps) {
  const auto params = workloads::app("Raytrace").scaled(0.25);  // read-heavy
  cmp::CmpConfig het_cfg =
      cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  const auto het = run_one(het_cfg, params);
  het_cfg.reply_partitioning = true;
  const auto rp = run_one(het_cfg, params);
  // Partial replies must appear on the network and not regress performance.
  EXPECT_GT(rp.msg_counts.at("PartialReply"), 0u);
  EXPECT_EQ(het.msg_counts.count("PartialReply"), 0u);
  EXPECT_LE(rp.cycles.value(), het.cycles.value());
}

TEST(HetEndToEnd, ReplyPartitioningIsCoherent) {
  // The stress here is the retry path: cores resume early on partials and
  // immediately re-touch in-flight lines (dwell), exercising kRetry.
  const auto params = workloads::app("MP3D").scaled(0.2);
  cmp::CmpConfig cfg =
      cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  cfg.reply_partitioning = true;
  cmp::CmpSystem system(cfg,
                        std::make_shared<workloads::SyntheticApp>(params, 16));
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  EXPECT_GT(system.stats().counter_value("l1.partial_resumes"), 0u);
  EXPECT_GT(system.stats().counter_value("l1.retried_accesses"), 0u);
}

TEST(HetEndToEnd, Cheng3WayRunsAndUsesAllThreeSubnets) {
  const auto params = workloads::app("MP3D").scaled(0.2);
  CmpSystem system(CmpConfig::cheng3way(),
                   std::make_shared<workloads::SyntheticApp>(params, 16));
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  const auto& st = system.stats();
  EXPECT_GT(st.counter_value("noc.L.packets"), 0u);   // short critical
  EXPECT_GT(st.counter_value("noc.B.packets"), 0u);   // data replies
  EXPECT_GT(st.counter_value("noc.PW.packets"), 0u);  // writebacks/acks
  // No compression hardware in [6]'s design.
  EXPECT_EQ(st.counter_value("compression.compressed"), 0u);
  EXPECT_EQ(system.compression_accesses(), 0u);
}

TEST(HetEndToEnd, ChengGainsLessThanProposalOnTheMesh) {
  // The paper's motivating comparison, end to end.
  const auto params = workloads::app("MP3D").scaled(0.2);
  const auto base = run_one(CmpConfig::baseline(), params);
  const auto cheng = run_one(CmpConfig::cheng3way(), params);
  const auto ours = run_one(
      CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2)), params);
  EXPECT_LT(ours.cycles.value(), cheng.cycles.value());
  // [6] on the mesh: within a few percent of baseline either way.
  EXPECT_NEAR(static_cast<double>(cheng.cycles.value()) / static_cast<double>(base.cycles.value()),
              1.0, 0.06);
}

TEST(HetEndToEnd, TreeTopologyRunsCoherently) {
  const auto params = workloads::app("FFT").scaled(0.15);
  CmpConfig cfg = CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  cfg.topology = noc::Topology::kTree2Level;
  CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(params, 16));
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  EXPECT_GT(system.cycles().value(), 0u);
  // Deterministic too.
  CmpSystem again(cfg, std::make_shared<workloads::SyntheticApp>(params, 16));
  ASSERT_TRUE(again.run(Cycle{200'000'000}));
  EXPECT_EQ(system.cycles(), again.cycles());
}

TEST(HetEndToEnd, ThirtyTwoTileSystemRuns) {
  const auto params = workloads::app("FFT").scaled(0.1);
  CmpConfig cfg = CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  cfg.n_tiles = 32;
  cfg.mesh_width = 8;
  cfg.mesh_height = 4;
  CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(params, 32));
  ASSERT_TRUE(system.run(Cycle{400'000'000}));
  EXPECT_GT(system.measured_instructions(), 0u);
}

TEST(HetEndToEnd, ConservativeMirrorsStillCorrectJustSlower) {
  auto scheme = compression::SchemeConfig::dbrc(4, 2);
  scheme.idealized_mirrors = false;
  const auto params = workloads::app("FFT").scaled(0.2);
  const auto r = run_one(CmpConfig::heterogeneous(scheme), params);
  EXPECT_GT(r.compression_coverage, 0.2);
  EXPECT_LT(r.compression_coverage, 1.0);
}

}  // namespace
}  // namespace tcmp::cmp

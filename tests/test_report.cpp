// Energy-accounting tests: the report layer's formulas checked against
// independently recomputed values from raw counters and network geometry.
#include <gtest/gtest.h>

#include <sstream>

#include "cmp/report.hpp"
#include "cmp/system.hpp"
#include "power/chip_power.hpp"
#include "wire/technology.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp::cmp {
namespace {

RunResult run_cfg(CmpConfig cfg, const char* app = "FFT", double scale = 0.1) {
  CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                            workloads::app(app).scaled(scale), cfg.n_tiles));
  EXPECT_TRUE(system.run(Cycle{200'000'000}));
  return make_result(system);
}

TEST(Report, LinkStaticMatchesGeometryFormula) {
  const CmpConfig cfg = CmpConfig::baseline();
  CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                            workloads::app("FFT").scaled(0.05), 16));
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  const RunResult r = make_result(system);

  // Recompute by hand: 600 B-wires x 1.0246 W/m x 240 mm of directed links.
  const double expected = 600.0 * 1.0246 * 0.240 * r.seconds.value();
  EXPECT_NEAR(r.energy.get(power::EnergyAccount::kLinkStatic).value(), expected,
              expected * 1e-9);
  EXPECT_DOUBLE_EQ(system.network().total_directed_link_mm(0), 240.0);
}

TEST(Report, LinkDynamicMatchesBitLengthCounter) {
  const CmpConfig cfg = CmpConfig::baseline();
  CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                            workloads::app("FFT").scaled(0.05), 16));
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  const RunResult r = make_result(system);

  const double bit_dmm =
      static_cast<double>(system.stats().counter_value("noc.B.bit_dmm_hops"));
  const double expected =
      bit_dmm * 1e-4 * 2.65 / wire::TechParams::itrs65().freq.value() * 0.5;
  EXPECT_NEAR(r.energy.get(power::EnergyAccount::kLinkDynamic).value(), expected,
              expected * 1e-9);
  // On the uniform-length mesh, bit_dmm is exactly bit_hops x 50 dmm.
  EXPECT_EQ(system.stats().counter_value("noc.B.bit_dmm_hops"),
            system.stats().counter_value("noc.B.bit_hops") * 50);
}

TEST(Report, TreeAndMeshHaveEqualMetalBudget) {
  // The two-level tree spends the same 240 mm of directed wire per plane as
  // the 4x4 mesh, so its static link power is identical by construction.
  CmpConfig mesh = CmpConfig::baseline();
  CmpConfig tree = CmpConfig::baseline();
  tree.topology = noc::Topology::kTree2Level;
  const RunResult rm = run_cfg(mesh);
  const RunResult rt = run_cfg(tree);
  const double pm =
      (rm.energy.get(power::EnergyAccount::kLinkStatic) / rm.seconds).value();
  const double pt =
      (rt.energy.get(power::EnergyAccount::kLinkStatic) / rt.seconds).value();
  EXPECT_NEAR(pm, pt, pm * 1e-9);
}

TEST(Report, TreeUsesFiveRoutersPerPlane) {
  CmpConfig tree = CmpConfig::baseline();
  tree.topology = noc::Topology::kTree2Level;
  CmpSystem system(tree, std::make_shared<workloads::SyntheticApp>(
                             workloads::app("FFT").scaled(0.05), 16));
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  EXPECT_EQ(system.network().router_count(0), 5u);
}

TEST(Report, HetLinkLeaksLessThanBaseline) {
  // 272 B-wires + 40 VL-wires (PW-like leakage) vs 600 B-wires.
  const RunResult base = run_cfg(CmpConfig::baseline());
  const RunResult het =
      run_cfg(CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2)));
  const double pb =
      (base.energy.get(power::EnergyAccount::kLinkStatic) / base.seconds).value();
  const double ph =
      (het.energy.get(power::EnergyAccount::kLinkStatic) / het.seconds).value();
  EXPECT_NEAR(ph / pb, (272.0 * 1.0246 + 40.0 * 0.4395) / (600.0 * 1.0246), 1e-6);
}

TEST(Report, CompressionHardwareChargedOnlyWhenPresent) {
  const RunResult base = run_cfg(CmpConfig::baseline());
  EXPECT_EQ(base.energy.get(power::EnergyAccount::kCompressionDynamic).value(), 0.0);
  EXPECT_EQ(base.energy.get(power::EnergyAccount::kCompressionStatic).value(), 0.0);
  const RunResult het =
      run_cfg(CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(16, 2)));
  EXPECT_GT(het.energy.get(power::EnergyAccount::kCompressionDynamic).value(), 0.0);
  EXPECT_GT(het.energy.get(power::EnergyAccount::kCompressionStatic).value(), 0.0);
  // 16-entry leaks more than 4-entry.
  const RunResult small =
      run_cfg(CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2)));
  EXPECT_GT(
      (het.energy.get(power::EnergyAccount::kCompressionStatic) / het.seconds).value(),
      (small.energy.get(power::EnergyAccount::kCompressionStatic) / small.seconds)
          .value());
}

TEST(Report, DumpStateIsInformative) {
  CmpConfig cfg = CmpConfig::baseline();
  CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                            workloads::app("FFT").scaled(0.05), 16));
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  std::ostringstream out;
  system.dump_state(out);
  const std::string dump = out.str();
  EXPECT_NE(dump.find("CmpSystem @ cycle"), std::string::npos);
  EXPECT_NE(dump.find("tile 15"), std::string::npos);
  EXPECT_NE(dump.find("done"), std::string::npos);
}

TEST(Report, MemoryEnergyTracksMemoryEvents) {
  const CmpConfig cfg = CmpConfig::baseline();
  CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                            workloads::app("Radix").scaled(0.05), 16));
  ASSERT_TRUE(system.run(Cycle{200'000'000}));
  const RunResult r = make_result(system);
  const double events =
      static_cast<double>(system.stats().counter_value("mem.reads") +
                          system.stats().counter_value("mem.writebacks"));
  EXPECT_NEAR(r.energy.get(power::EnergyAccount::kMemoryDynamic).value(),
              events * power::ChipPowerModel{}.mem_access.value(), 1e-15);
}

}  // namespace
}  // namespace tcmp::cmp

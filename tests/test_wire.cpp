// Tests for the wire model: RC/repeater physics invariants, Table 2/3
// reproduction tolerances, and link partitioning.
#include <gtest/gtest.h>

#include <cstdint>

#include "wire/link_design.hpp"
#include "wire/rc_model.hpp"
#include "wire/wire_spec.hpp"

namespace tcmp::wire {
namespace {

const TechParams& tech() { return TechParams::itrs65(); }

TEST(RcModel, WiderWireHasLowerResistance) {
  WireGeometry narrow{MetalPlane::k8X, 1.0, 1.0};
  WireGeometry wide{MetalPlane::k8X, 4.0, 1.0};
  EXPECT_GT(r_wire_per_m(tech(), narrow), r_wire_per_m(tech(), wide));
  EXPECT_NEAR(r_wire_per_m(tech(), narrow) / r_wire_per_m(tech(), wide), 4.0, 1e-9);
}

TEST(RcModel, FourXPlaneIsMoreResistive) {
  WireGeometry w8{MetalPlane::k8X, 1.0, 1.0};
  WireGeometry w4{MetalPlane::k4X, 1.0, 1.0};
  EXPECT_GT(r_wire_per_m(tech(), w4), 2.0 * r_wire_per_m(tech(), w8));
}

TEST(RcModel, SpacingReducesCoupling) {
  WireGeometry tight{MetalPlane::k8X, 1.0, 1.0};
  WireGeometry sparse{MetalPlane::k8X, 1.0, 8.0};
  EXPECT_GT(c_wire_per_m(tech(), tight), c_wire_per_m(tech(), sparse));
}

TEST(RcModel, DelayOptimalBeatsPerturbations) {
  const WireGeometry g{MetalPlane::k8X, 1.0, 1.0};
  const RepeaterDesign opt = delay_optimal_design(tech(), g);
  const double best = (segment_delay(tech(), g, opt) / opt.spacing).value();
  for (double fs : {0.5, 0.7, 1.5, 2.0}) {
    RepeaterDesign cand{opt.size * fs, opt.spacing};
    EXPECT_GE((segment_delay(tech(), g, cand) / cand.spacing).value(), best * 0.999);
  }
  for (double fl : {0.5, 0.7, 1.5, 2.0}) {
    RepeaterDesign cand{opt.size, opt.spacing * fl};
    EXPECT_GE((segment_delay(tech(), g, cand) / cand.spacing).value(), best * 0.999);
  }
}

TEST(RcModel, BaselineWireNearAnchorLatency) {
  const WireGeometry g{MetalPlane::k8X, 1.0, 1.0};
  const RepeaterDesign opt = delay_optimal_design(tech(), g);
  const double ps_per_mm = delay_per_m(tech(), g, opt).value() * 1e12 * 1e-3;
  // The technology calibration targets ~130 ps/mm for the 8X baseline.
  EXPECT_NEAR(ps_per_mm, kBWirePsPerMm, kBWirePsPerMm * 0.25);
}

TEST(RcModel, PowerOptimalRespectsDelayBudgetAndSavesPower) {
  const WireGeometry g{MetalPlane::k4X, 1.0, 1.0};
  const RepeaterDesign opt = delay_optimal_design(tech(), g);
  const RepeaterDesign pw = power_optimal_design(tech(), g, 2.0);
  const double d_opt = (segment_delay(tech(), g, opt) / opt.spacing).value();
  const double d_pw = (segment_delay(tech(), g, pw) / pw.spacing).value();
  EXPECT_LE(d_pw, 2.0 * d_opt * 1.0001);
  const units::WattsPerMeter p_opt =
      switching_power_per_m(tech(), g, opt) + leakage_power_per_m(tech(), opt);
  const units::WattsPerMeter p_pw =
      switching_power_per_m(tech(), g, pw) + leakage_power_per_m(tech(), pw);
  EXPECT_LT(p_pw.value(), 0.75 * p_opt.value());  // Banerjee: >~40% savings at 2x delay
}

TEST(RcModel, LeakageScalesWithRepeaterSize) {
  RepeaterDesign small{10.0, units::Meters{1e-3}};
  RepeaterDesign big{100.0, units::Meters{1e-3}};
  EXPECT_NEAR(leakage_power_per_m(tech(), big) / leakage_power_per_m(tech(), small),
              10.0, 1e-9);
}

// --- Table 2 reproduction: model vs published values ---

struct Table2Case {
  WireClass cls;
  // Test names embed the parameter's raw bytes; an explicit zero field in
  // place of padding keeps them free of uninitialised memory.
  std::uint32_t reserved = 0;
  double tolerance;  // relative tolerance on latency
};

class Table2Repro : public ::testing::TestWithParam<Table2Case> {};

TEST_P(Table2Repro, RelativeLatencyWithinTolerance) {
  const WireClass cls = GetParam().cls;
  const double tol = GetParam().tolerance;
  const WireSpec paper = paper_spec(cls);
  const WireSpec model = model_spec(cls);
  EXPECT_NEAR(model.rel_latency, paper.rel_latency, paper.rel_latency * tol)
      << to_string(cls);
}

INSTANTIATE_TEST_SUITE_P(WireClasses, Table2Repro,
                         ::testing::Values(Table2Case{.cls = WireClass::kB8X, .tolerance = 0.01},
                                           Table2Case{.cls = WireClass::kB4X, .tolerance = 0.25},
                                           Table2Case{.cls = WireClass::kL8X, .tolerance = 0.25},
                                           Table2Case{.cls = WireClass::kPW4X, .tolerance = 0.25}));

TEST(WireSpec, PaperTable2Values) {
  const WireSpec b8 = paper_spec(WireClass::kB8X);
  EXPECT_DOUBLE_EQ(b8.rel_latency, 1.0);
  EXPECT_DOUBLE_EQ(b8.dyn_power.value(), 2.65);
  EXPECT_DOUBLE_EQ(b8.static_power.value(), 1.0246);
  const WireSpec l = paper_spec(WireClass::kL8X);
  EXPECT_DOUBLE_EQ(l.rel_latency, 0.5);
  EXPECT_DOUBLE_EQ(l.rel_area, 4.0);
  const WireSpec pw = paper_spec(WireClass::kPW4X);
  EXPECT_DOUBLE_EQ(pw.rel_latency, 3.2);
  EXPECT_DOUBLE_EQ(pw.dyn_power.value(), 0.87);
}

TEST(WireSpec, PaperTable3Values) {
  const WireSpec vl3 = paper_spec(WireClass::kVL, 3);
  const WireSpec vl4 = paper_spec(WireClass::kVL, 4);
  const WireSpec vl5 = paper_spec(WireClass::kVL, 5);
  EXPECT_DOUBLE_EQ(vl3.rel_latency, 0.27);
  EXPECT_DOUBLE_EQ(vl4.rel_latency, 0.31);
  EXPECT_DOUBLE_EQ(vl5.rel_latency, 0.35);
  EXPECT_DOUBLE_EQ(vl3.rel_area, 14.0);
  EXPECT_DOUBLE_EQ(vl4.rel_area, 10.0);
  EXPECT_DOUBLE_EQ(vl5.rel_area, 8.0);
  // Wider VL bundles are slower and burn more power per wire.
  EXPECT_LT(vl3.rel_latency, vl4.rel_latency);
  EXPECT_LT(vl4.rel_latency, vl5.rel_latency);
  EXPECT_LT(vl3.dyn_power.value(), vl5.dyn_power.value());
}

TEST(WireSpec, LinkCycleQuantization) {
  // 5 mm at 4 GHz: B-wire 130 ps/mm -> 650 ps -> 2.6 cycles -> 3.
  EXPECT_EQ(paper_spec(WireClass::kB8X).link_cycles(5.0, units::hertz(4e9)), 3u);
  // VL 3B: 35.1 ps/mm -> 175 ps -> 0.7 cycles -> 1.
  EXPECT_EQ(paper_spec(WireClass::kVL, 3).link_cycles(5.0, units::hertz(4e9)), 1u);
  EXPECT_EQ(paper_spec(WireClass::kVL, 5).link_cycles(5.0, units::hertz(4e9)), 1u);
  // L-wire: 65 ps/mm -> 325 ps -> 1.3 cycles -> 2.
  EXPECT_EQ(paper_spec(WireClass::kL8X).link_cycles(5.0, units::hertz(4e9)), 2u);
  // PW-wire: 416 ps/mm -> 2080 ps -> 8.3 -> 9.
  EXPECT_EQ(paper_spec(WireClass::kPW4X).link_cycles(5.0, units::hertz(4e9)), 9u);
}

class VlModelRepro : public ::testing::TestWithParam<unsigned> {};

TEST_P(VlModelRepro, LatencyWithinTolerance) {
  const unsigned bytes = GetParam();
  const WireSpec paper = paper_spec(WireClass::kVL, bytes);
  const WireSpec model = model_spec(WireClass::kVL, bytes);
  EXPECT_NEAR(model.rel_latency, paper.rel_latency, paper.rel_latency * 0.25);
  EXPECT_DOUBLE_EQ(model.rel_area, paper.rel_area);
}

INSTANTIATE_TEST_SUITE_P(Widths, VlModelRepro, ::testing::Values(3u, 4u, 5u));

TEST(WireSpec, ModelVlLatencyMonotoneInWidth) {
  // Narrower VL bundles get more area per wire and must be faster, matching
  // the Table 3 ordering.
  EXPECT_LT(model_spec(WireClass::kVL, 3).rel_latency,
            model_spec(WireClass::kVL, 4).rel_latency);
  EXPECT_LT(model_spec(WireClass::kVL, 4).rel_latency,
            model_spec(WireClass::kVL, 5).rel_latency);
}

// --- Link partitioning ---

TEST(LinkDesign, BaselineIs75ByteBWires) {
  const LinkPartition p = baseline_link();
  EXPECT_FALSE(p.heterogeneous());
  EXPECT_EQ(p.b_bytes, 75u);
  EXPECT_EQ(p.b_wires, 600u);
  EXPECT_DOUBLE_EQ(p.total_tracks, 600.0);
}

class PaperLink : public ::testing::TestWithParam<unsigned> {};

TEST_P(PaperLink, AreaMatchedWithinTwoPercent) {
  const LinkPartition p = paper_het_link(GetParam());
  EXPECT_TRUE(p.heterogeneous());
  EXPECT_EQ(p.b_bytes, 34u);
  EXPECT_EQ(p.b_wires, 272u);
  EXPECT_EQ(p.vl_wires, GetParam() * 8);
  EXPECT_LT(std::abs(p.area_overshoot()), 0.02);
}

INSTANTIATE_TEST_SUITE_P(VlWidths, PaperLink, ::testing::Values(3u, 4u, 5u));

TEST(LinkDesign, PaperTrackCounts) {
  EXPECT_DOUBLE_EQ(paper_het_link(3).vl_tracks, 24 * 14.0);  // 336
  EXPECT_DOUBLE_EQ(paper_het_link(4).vl_tracks, 32 * 10.0);  // 320
  EXPECT_DOUBLE_EQ(paper_het_link(5).vl_tracks, 40 * 8.0);   // 320
}

TEST(LinkDesign, ComputedPartitionStaysWithinBudget) {
  for (unsigned vl : {3u, 4u, 5u}) {
    const LinkPartition p = computed_het_link(vl);
    EXPECT_LE(p.total_tracks, 600.0 + 1e-9);
    EXPECT_GE(p.b_bytes, 30u);
    EXPECT_LE(p.b_bytes, 35u);
  }
}

// --- property sweeps over the geometry space ---

class GeometrySweep : public ::testing::TestWithParam<double> {};

TEST_P(GeometrySweep, WiderWiresAreNeverSlower) {
  // At fixed spacing, widening a wire can only reduce the delay-optimal
  // repeated delay (R falls linearly, C grows sub-linearly).
  const double spacing = GetParam();
  double prev = 1e9;
  for (double width : {1.0, 2.0, 4.0, 8.0, 14.0}) {
    const WireGeometry g{MetalPlane::k8X, width, spacing};
    const RepeaterDesign d = delay_optimal_design(tech(), g);
    const double delay = delay_per_m(tech(), g, d).value();
    EXPECT_LE(delay, prev * 1.0001) << "width " << width;
    prev = delay;
  }
}

TEST_P(GeometrySweep, SparserWiresAreNeverSlower) {
  const double width = GetParam();
  double prev = 1e9;
  for (double spacing : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const WireGeometry g{MetalPlane::k8X, width, spacing};
    const RepeaterDesign d = delay_optimal_design(tech(), g);
    const double delay = delay_per_m(tech(), g, d).value();
    EXPECT_LE(delay, prev * 1.0001) << "spacing " << spacing;
    prev = delay;
  }
}

TEST_P(GeometrySweep, PowerOptimalNeverBeatsDelayOptimalOnDelay) {
  const double width = GetParam();
  const WireGeometry g{MetalPlane::k8X, width, 2.0};
  const RepeaterDesign opt = delay_optimal_design(tech(), g);
  const RepeaterDesign pw = power_optimal_design(tech(), g, 1.5);
  EXPECT_GE((segment_delay(tech(), g, pw) / pw.spacing).value(),
            0.999 * (segment_delay(tech(), g, opt) / opt.spacing).value());
  // ...and never loses on power.
  const units::WattsPerMeter p_opt =
      switching_power_per_m(tech(), g, opt) + leakage_power_per_m(tech(), opt);
  const units::WattsPerMeter p_pw =
      switching_power_per_m(tech(), g, pw) + leakage_power_per_m(tech(), pw);
  EXPECT_LE(p_pw.value(), p_opt.value() * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Factors, GeometrySweep,
                         ::testing::Values(1.0, 2.0, 3.0, 6.0));

TEST(RcModel, LcFloorBoundsAllDesigns) {
  for (double w : {1.0, 4.0, 14.0}) {
    for (double sp : {1.0, 8.0}) {
      const WireGeometry g{MetalPlane::k8X, w, sp};
      const RepeaterDesign d = delay_optimal_design(tech(), g);
      EXPECT_GE(delay_per_m(tech(), g, d).value(), tech().lc_floor.value() * 0.9999);
    }
  }
}

TEST(LinkDesign, ChengPartitionComposition) {
  const LinkPartition p = cheng3way_link();
  EXPECT_EQ(p.l_bytes, 11u);
  EXPECT_EQ(p.pw_bytes, 28u);
  EXPECT_EQ(p.b_bytes, 17u);
  // L at 4x tracks per wire, PW at 0.5x (4X plane), B at 1x.
  EXPECT_DOUBLE_EQ(p.l_tracks, 88 * 4.0);
  EXPECT_DOUBLE_EQ(p.pw_tracks, 224 * 0.5);
  EXPECT_DOUBLE_EQ(p.total_tracks, 352 + 112 + 136);
}

}  // namespace
}  // namespace tcmp::wire

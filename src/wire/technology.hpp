// 65 nm process/interconnect parameters used by the analytical wire model.
//
// The paper (Sec. 3.2) models a wire as a first-order RC circuit driven by a
// repeater (Eq. 1) and computes repeater power from Eq. 2-4. The constants
// below describe the two global metal planes the paper considers (4X and 8X,
// after [14]) plus the repeater device parameters. They are calibrated so the
// model lands near the published Table 2/3 characteristics; the calibration is
// validated by the `paper table2` and `paper table3` tables
// (bench/paper.cpp).
//
// All quantities are dimension-checked units::Quantity values (SI).
#pragma once

#include "common/units.hpp"

namespace tcmp::wire {

/// Metal plane for global routing. 8X wires are wide/thick (fast); 4X wires
/// are half-pitch (dense, slower).
enum class MetalPlane { k4X, k8X };

struct PlaneParams {
  units::Meters min_width;    ///< minimum (1x) wire width for this plane
  units::Meters min_spacing;  ///< minimum (1x) spacing for this plane
  units::Meters thickness;    ///< metal thickness
  /// Capacitance-per-meter decomposition at 1x width / 1x spacing.
  /// c_ground scales with width; c_coupling scales with 1/spacing;
  /// c_fringe is constant. Global fat wires are coupling-dominated.
  units::FaradsPerMeter c_ground;
  units::FaradsPerMeter c_coupling;
  units::FaradsPerMeter c_fringe;
};

struct TechParams {
  units::OhmMeters resistivity;  ///< copper, incl. barrier/scattering derating

  // Repeater (minimum-sized inverter) characteristics.
  units::Ohms r_gate_min;    ///< effective driver resistance of a 1x inverter
  units::Farads c_gate_min;  ///< input capacitance of a 1x inverter
  units::Farads c_diff_min;  ///< diffusion (output) capacitance of a 1x inverter
  units::AmperesPerMeter i_off_n;  ///< NMOS leakage current per transistor width
  units::AmperesPerMeter i_off_p;  ///< PMOS leakage current per transistor width
  units::Meters w_nmos_min;        ///< NMOS width in a 1x inverter
  units::Meters w_pmos_min;        ///< PMOS width in a 1x inverter

  units::Volts vdd;
  units::Hertz freq;

  /// Multiplies the raw Elmore delay: lumps the 0.69 ln(2) step-response
  /// factor, input-slope degradation, via/jog resistance and process
  /// guard-banding. Calibrated so a delay-optimal 8X B-wire comes out near
  /// 130 ps/mm at 65 nm.
  double delay_derating = 1.0;

  /// Multiplies Eq. (3) switching power to account for repeater
  /// short-circuit current and clock distribution overheads. Calibrated so a
  /// B-Wire dissipates ~2.65 W/m at alpha = 1 (Table 2).
  double short_circuit_factor = 1.0;

  /// Signal propagation floor for very wide wires (LC / transmission-line
  /// regime): below this nothing helps. Includes driver overhead. Very wide
  /// VL-wires operate near this floor.
  units::SecondsPerMeter lc_floor;

  PlaneParams plane_4x;
  PlaneParams plane_8x;

  [[nodiscard]] const PlaneParams& plane(MetalPlane p) const {
    return p == MetalPlane::k8X ? plane_8x : plane_4x;
  }

  /// The 65 nm technology point used throughout the paper.
  static const TechParams& itrs65();
};

}  // namespace tcmp::wire

// Wire catalogs: the canonical per-wire characteristics of each wire class.
//
// Two sources are provided:
//  * paper_spec() — the published Table 2 / Table 3 constants. The simulator
//    uses these so that energy/latency accounting reproduces the paper.
//  * model_spec() — the same quantities derived from the first-order RC +
//    repeater model (rc_model.hpp). `paper table2` and `paper table3`
//    (bench/paper.cpp) print both side by side; EXPERIMENTS.md records the
//    deviations.
//
// Absolute anchor: a delay-optimal 8X B-Wire is taken as 130 ps/mm, which at
// 4 GHz makes a 5 mm inter-router link 2.6 cycles (quantized to 3), and puts
// VL-Wires (0.27x-0.35x) at 1 cycle per link.
#pragma once

#include <string>

#include "common/units.hpp"
#include "wire/rc_model.hpp"

namespace tcmp::wire {

/// Wire classes from the paper. B = baseline, L = low-latency (4x area),
/// PW = power-optimized, VL = very-low-latency (Table 3; parameterized by the
/// byte-width of the VL bundle: 3, 4 or 5 bytes).
enum class WireClass { kB8X, kB4X, kL8X, kPW4X, kVL };

[[nodiscard]] const char* to_string(WireClass w);

struct WireSpec {
  std::string name;
  double rel_latency = 1.0;  ///< delay per meter relative to B-8X
  double rel_area = 1.0;     ///< track pitch per wire relative to B-8X
  units::WattsPerMeter dyn_power;     ///< per wire, at switching factor alpha = 1
  units::WattsPerMeter static_power;  ///< per wire
  /// Absolute latency in the paper's ps/mm units. Kept as a raw double on
  /// purpose: it anchors the ceil-quantized link_cycles() computation, whose
  /// bit-exact value is part of the published calibration.
  double ps_per_mm = 0.0;  // tcmplint: allow-raw-unit

  /// Absolute latency as a dimension-checked quantity.
  [[nodiscard]] units::SecondsPerMeter latency_per_m() const {
    return units::SecondsPerMeter{ps_per_mm * 1e-9};
  }

  /// Link traversal latency in whole clock cycles for a link of
  /// `link_length_mm` (paper units, config boundary) at `freq` (at least 1).
  [[nodiscard]] unsigned link_cycles(double link_length_mm,  // tcmplint: allow-raw-unit
                                     units::Hertz freq) const;
};

inline constexpr double kBWirePsPerMm = 130.0;

/// Published Table 2 / Table 3 values. For kVL, vl_bytes selects the 3/4/5
/// byte row of Table 3; it is ignored for other classes.
[[nodiscard]] WireSpec paper_spec(WireClass w, unsigned vl_bytes = 4);

/// Same quantities from the analytical model (geometry + repeater design).
[[nodiscard]] WireSpec model_spec(WireClass w, unsigned vl_bytes = 4);

/// The geometry the model assumes for each class (exposed for tests/benches).
[[nodiscard]] WireGeometry geometry_of(WireClass w, unsigned vl_bytes = 4);

}  // namespace tcmp::wire

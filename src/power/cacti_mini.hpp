// Analytical area/energy/leakage model for the small storage structures the
// compression schemes add (paper Table 1, measured there with CACTI 4.1 at
// 65 nm).
//
// Two array kinds are modelled:
//  * kCam — the DBRC compression cache / receiver register files. Lookup is
//    content-addressed on the high-order address bits, so cells are CAM-like
//    (large cells, matchline drivers) with periphery scaling ~sqrt(bits).
//  * kRegister — the Stride base registers (flip-flop rows, trivial
//    periphery).
//
// The coefficients are calibrated against the four Table 1 rows; endpoints
// match by construction and mid-sized arrays land within ~±30% (printed by
// `paper table1`, bench/paper.cpp, and recorded in EXPERIMENTS.md).
#pragma once

#include "common/units.hpp"

namespace tcmp::power {

enum class ArrayKind { kCam, kRegister };

struct ArrayParams {
  ArrayKind kind = ArrayKind::kCam;
  unsigned entries = 4;
  unsigned bits_per_entry = 64;

  [[nodiscard]] unsigned bits() const { return entries * bits_per_entry; }
};

struct ArrayCosts {
  units::SquareMeters area;
  units::Joules access_energy;  ///< one lookup or one update
  units::Watts leakage;

  ArrayCosts& operator+=(const ArrayCosts& o) {
    area += o.area;
    access_energy += o.access_energy;
    leakage += o.leakage;
    return *this;
  }
};

/// Cost of a single array instance at 65 nm.
[[nodiscard]] ArrayCosts array_costs(const ArrayParams& p);

/// Reference area of one tile/core (25 mm^2, Table 4) used for the
/// percentage columns of Table 1.
inline constexpr units::SquareMeters kCoreArea = units::mm2(25.0);

/// Reference per-core max dynamic power and static power used for the
/// percentage columns of Table 1 (derived from the paper's 0.48% == 0.1065 W
/// and 0.29% == 10.78 mW anchors).
inline constexpr units::Watts kCoreMaxDynPower = units::watts(22.2);
inline constexpr units::Watts kCoreStaticPower = units::watts(3.72);

}  // namespace tcmp::power

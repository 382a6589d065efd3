// Per-event chip power model for the non-interconnect parts of the CMP
// (cores, L1/L2 caches, memory accesses). Sim-PowerCMP used Wattch + CACTI +
// HotLeakage for this; we use per-event energies of the same granularity,
// calibrated so the interconnect carries ~25-35% of total chip power on the
// evaluated workloads (consistent with the Raw/Magen observations the paper
// cites: 36% / 50% of chip power in the interconnect).
#pragma once

#include "common/units.hpp"

namespace tcmp::power {

struct ChipPowerModel {
  // Dynamic event energies (65 nm HP, 4 GHz, in-order 2-way core). The
  // absolute scale is deliberately matched to the same worst-case 65 nm HP
  // leakage assumptions as the paper's Table 2 wire numbers, so that the
  // interconnect's share of full-chip energy lands in the ~35-40% range the
  // paper's Fig. 6/7 relationship implies (and Wang'02/Magen'04 report).
  units::Joules core_energy_per_instr = units::joules(1.2e-9);  ///< pipeline + RF
  units::Joules l1_access = units::joules(0.1e-9);   ///< 32 KB 4-way read/write
  units::Joules l2_access = units::joules(0.5e-9);   ///< 256 KB bank access
  units::Joules mem_access = units::joules(10e-9);   ///< off-chip DRAM (per line)

  // Leakage per tile (core + L1 + L2 slice), drawn every cycle.
  units::Watts core_leakage = units::watts(8.0);
  units::Watts cache_leakage = units::watts(4.0);

  [[nodiscard]] units::Watts tile_leakage() const {
    return core_leakage + cache_leakage;
  }
};

}  // namespace tcmp::power

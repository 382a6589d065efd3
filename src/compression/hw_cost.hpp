// Hardware cost aggregation for a compression scheme in an n-core CMP —
// the quantities of Table 1 (per-core totals) plus the per-access energies
// the simulator charges at run time.
#pragma once

#include "common/units.hpp"
#include "compression/scheme.hpp"
#include "power/cacti_mini.hpp"

namespace tcmp::compression {

struct SchemeHwCost {
  unsigned structures_per_core = 0;  ///< arrays counted per core (all classes)
  unsigned storage_bytes_per_core = 0;
  units::SquareMeters area_per_core;
  units::Watts leakage_per_core;
  /// Energy of one table access (lookup or update) of one structure.
  units::Joules access_energy;
  /// "Max. Dyn. Power" in the Table 1 sense: every structure of every core...
  /// accessed each cycle at f — reported per core.
  units::Watts max_dyn_power_per_core;
};

/// Cost using the paper's hardware inventory: per message class, 1 sending
/// structure + n_nodes receiving structures per core, each of
/// `entries * 8 bytes` (DBRC) or one 8-byte register (Stride), clocked at
/// wire::TechParams::itrs65().freq.
[[nodiscard]] SchemeHwCost scheme_hw_cost(const SchemeConfig& cfg, unsigned n_nodes);

}  // namespace tcmp::compression

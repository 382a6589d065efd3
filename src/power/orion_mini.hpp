// Orion-style router energy model [22]. The NoC charges one buffer write on
// flit arrival, one buffer read + crossbar traversal + arbitration on flit
// departure, and per-cycle leakage proportional to router storage/datapath
// width. Constants are representative 65 nm values at 4 GHz of the level of
// abstraction Orion provides to architecture simulators.
#pragma once

#include "common/units.hpp"

namespace tcmp::power {

struct RouterEnergyModel {
  // Per-flit event energies, linear in flit width.
  units::Joules buffer_write_per_bit = units::joules(0.020e-12);  ///< 20 fJ/bit
  units::Joules buffer_read_per_bit = units::joules(0.016e-12);
  units::Joules crossbar_per_bit = units::joules(0.030e-12);
  units::Joules arbitration_per_flit = units::joules(0.20e-12);  ///< per traversal

  // Leakage: per bit of buffer storage plus a fixed per-port datapath term.
  units::Watts leakage_per_buffer_bit = units::watts(18e-9);
  units::Watts leakage_per_port = units::watts(0.4e-3);

  [[nodiscard]] units::Joules buffer_write_energy(unsigned flit_bits) const {
    return buffer_write_per_bit * flit_bits;
  }
  [[nodiscard]] units::Joules buffer_read_energy(unsigned flit_bits) const {
    return buffer_read_per_bit * flit_bits;
  }
  [[nodiscard]] units::Joules crossbar_energy(unsigned flit_bits) const {
    return crossbar_per_bit * flit_bits;
  }
  [[nodiscard]] units::Joules traversal_energy(unsigned flit_bits) const {
    return buffer_read_energy(flit_bits) + crossbar_energy(flit_bits) +
           arbitration_per_flit;
  }

  /// Static power of one router: `ports` in/out port pairs, `vcs` virtual
  /// channels per port of `buffer_flits` flits of `flit_bits` each.
  [[nodiscard]] units::Watts router_leakage(unsigned ports, unsigned vcs,
                                            unsigned buffer_flits,
                                            unsigned flit_bits) const {
    const double storage_bits =
        static_cast<double>(ports) * vcs * buffer_flits * flit_bits;
    return leakage_per_buffer_bit * storage_bits + leakage_per_port * ports;
  }

  friend bool operator==(const RouterEnergyModel&, const RouterEnergyModel&) = default;
};

}  // namespace tcmp::power

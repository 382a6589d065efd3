#include "compression/hw_cost.hpp"

#include "common/check.hpp"
#include "wire/technology.hpp"

namespace tcmp::compression {

SchemeHwCost scheme_hw_cost(const SchemeConfig& cfg, unsigned n_nodes) {
  SchemeHwCost cost;
  if (cfg.kind == SchemeKind::kNone || cfg.kind == SchemeKind::kPerfect) {
    return cost;  // no hardware (Perfect is an oracle bound)
  }

  power::ArrayParams params;
  switch (cfg.kind) {
    case SchemeKind::kDbrc:
      params = {power::ArrayKind::kCam, cfg.entries, 64};
      break;
    case SchemeKind::kStride:
      params = {power::ArrayKind::kRegister, 1, 64};
      break;
    default:
      TCMP_CHECK(false);
  }

  const power::ArrayCosts one = power::array_costs(params);
  // Per core: (1 sender + n receivers) per message class.
  cost.structures_per_core = kNumMsgClasses * (1 + n_nodes);
  cost.storage_bytes_per_core = cost.structures_per_core * params.bits() / 8;
  cost.area_per_core = cost.structures_per_core * one.area;
  cost.leakage_per_core = cost.structures_per_core * one.leakage;
  cost.access_energy = one.access_energy;
  cost.max_dyn_power_per_core =
      cost.structures_per_core * one.access_energy * wire::TechParams::itrs65().freq;
  return cost;
}

}  // namespace tcmp::compression

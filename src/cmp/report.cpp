#include "cmp/report.hpp"

#include "compression/hw_cost.hpp"
#include "power/chip_power.hpp"
#include "power/metrics.hpp"
#include "power/orion_mini.hpp"
#include "protocol/coherence_msg.hpp"
#include "wire/technology.hpp"

namespace tcmp::cmp {

using power::EnergyAccount;

units::Joules RunResult::link_energy() const {
  return energy.get(EnergyAccount::kLinkDynamic) + energy.get(EnergyAccount::kLinkStatic);
}

double RunResult::link_ed2p() const { return power::ed2p(link_energy(), seconds); }

double RunResult::interconnect_ed2p() const {
  return power::ed2p(interconnect_energy(), seconds);
}

double RunResult::full_cmp_ed2p() const { return power::ed2p(total_energy(), seconds); }

RunResult make_result(const CmpSystem& system) {
  return make_result(system, system.merged_stats(), system.cycles(),
                     system.measured_instructions(),
                     system.measured_compression_accesses());
}

RunResult make_result(const CmpSystem& system, const StatRegistry& stats,
                      Cycle cycles, std::uint64_t instructions,
                      std::uint64_t compression_accesses) {
  const CmpConfig& cfg = system.config();
  const units::Hertz freq = wire::TechParams::itrs65().freq;
  RunResult r;
  r.configuration = cfg.name();
  r.cycles = cycles;
  r.seconds = static_cast<double>(r.cycles.value()) / freq;
  r.instructions = instructions;

  // --- links: dynamic from toggled wire-length, static from geometry x time.
  // Channels, wire lengths and router counts come from the network itself so
  // both the mesh and tree topologies account correctly.
  const noc::Network& net = system.network();
  for (unsigned c = 0; c < net.num_channels(); ++c) {
    const noc::ChannelSpec& ch = net.channel(c);
    // bit_dmm_hops: toggled bits x traversed link length, in 0.1 mm units.
    const auto bit_dmm = static_cast<double>(
        stats.counter_value("noc." + ch.name + ".bit_dmm_hops"));
    const units::Meters toggled{bit_dmm * 1e-4 /*m per dmm*/};
    const units::Joules e_dyn =
        toggled * ch.wires.dyn_power / freq * cfg.switching_activity;
    r.energy.add(EnergyAccount::kLinkDynamic, e_dyn);

    const double wires = static_cast<double>(ch.width_bits());
    const units::Meters plane_m{net.total_directed_link_mm(c) * 1e-3};
    r.energy.add(EnergyAccount::kLinkStatic,
                 wires * ch.wires.static_power * plane_m * r.seconds);
  }

  // --- routers: Orion-mini per-traversal events + leakage ---
  const power::RouterEnergyModel router_energy{};
  for (unsigned c = 0; c < net.num_channels(); ++c) {
    const noc::ChannelSpec& ch = net.channel(c);
    const auto traversals = static_cast<double>(
        stats.counter_value("noc." + ch.name + ".router_traversals"));
    const unsigned bits = ch.width_bits();
    r.energy.add(EnergyAccount::kRouterBuffer,
                 traversals * (router_energy.buffer_write_energy(bits) +
                               router_energy.buffer_read_energy(bits)));
    r.energy.add(EnergyAccount::kRouterCrossbar,
                 traversals * router_energy.crossbar_energy(bits));
    r.energy.add(EnergyAccount::kRouterArbiter,
                 traversals * router_energy.arbitration_per_flit);
    const units::Watts leak = router_energy.router_leakage(
        noc::kNumPorts, noc::kVcsPerPort, noc::kVcDepth, bits);
    r.energy.add(EnergyAccount::kRouterStatic,
                 leak * net.router_count(c) * r.seconds);
  }

  // --- compression hardware ---
  const auto hw = compression::scheme_hw_cost(cfg.scheme, cfg.n_tiles);
  r.energy.add(EnergyAccount::kCompressionDynamic,
               static_cast<double>(compression_accesses) * hw.access_energy);
  r.energy.add(EnergyAccount::kCompressionStatic,
               hw.leakage_per_core * cfg.n_tiles * r.seconds);

  // --- cores, caches, memory (Fig. 7 denominator) ---
  const power::ChipPowerModel cp{};
  r.energy.add(EnergyAccount::kCoreDynamic,
               static_cast<double>(r.instructions) * cp.core_energy_per_instr);
  r.energy.add(EnergyAccount::kCoreStatic,
               cp.core_leakage * cfg.n_tiles * r.seconds);
  r.energy.add(EnergyAccount::kL1Dynamic,
               static_cast<double>(stats.counter_value("l1.accesses")) * cp.l1_access);
  r.energy.add(EnergyAccount::kL2Dynamic,
               static_cast<double>(stats.counter_value("l2.accesses")) * cp.l2_access);
  r.energy.add(EnergyAccount::kCacheStatic,
               cp.cache_leakage * cfg.n_tiles * r.seconds);
  const double mem_events = static_cast<double>(stats.counter_value("mem.reads") +
                                                stats.counter_value("mem.writebacks"));
  r.energy.add(EnergyAccount::kMemoryDynamic, mem_events * cp.mem_access);

  // --- coverage, message mix, latency ---
  const auto compressed = stats.counter_value("compression.compressed");
  const auto attempts = compressed + stats.counter_value("compression.uncompressed");
  r.compression_coverage =
      attempts != 0 ? static_cast<double>(compressed) / static_cast<double>(attempts)
                    : 0.0;

  r.remote_messages = stats.counter_value("msg_remote.count");
  r.local_messages = stats.counter_value("msg_local.count");
  for (unsigned i = 0; i < protocol::kNumMsgTypes; ++i) {
    const auto type = static_cast<protocol::MsgType>(i);
    const std::string key = "msg." + std::string(protocol::to_string(type));
    const auto count = stats.counter_value(key);
    if (count != 0) r.msg_counts[protocol::to_string(type)] = count;
  }
  if (const Histogram* h = stats.find_histogram("noc.critical_latency")) {
    r.avg_critical_latency = h->scalar().mean();
  }
  for (const auto& [name, hist] : stats.histograms()) {
    if (name.rfind("noc.", 0) != 0 || hist.scalar().count() == 0) continue;
    RunResult::Quantiles q;
    q.mean = hist.scalar().mean();
    q.p50 = hist.quantile(0.50);
    q.p95 = hist.quantile(0.95);
    q.p99 = hist.quantile(0.99);
    q.count = hist.scalar().count();
    r.latency.emplace(name.substr(4), q);
  }
  return r;
}

}  // namespace tcmp::cmp

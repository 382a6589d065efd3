#include "layers.hpp"

#include <algorithm>
#include <array>
#include <string_view>

namespace tcmpbench {

namespace {

/// Measured-window counters the per-layer metrics read, besides the folded
/// per-channel NoC counters.
constexpr std::array<std::string_view, 21> kCounters = {
    "het.b_messages",     "het.vl_messages",     "het.reordered_messages",
    "compression.compressed", "compression.uncompressed",
    "l1.accesses",        "l1.read_misses",      "l1.write_misses",
    "l1.upgrade_misses",  "l1.retried_accesses", "l1i.fetches",
    "l1i.misses",         "l2.accesses",         "mem.reads",
    "dir.queued_on_busy", "dir.cache_to_cache",  "core.blocked_cycles",
    "core.miss_stalls",   "core.ifetch_stalls",  "msg_remote.count",
    "msg_local.count"};
constexpr std::array<std::string_view, 3> kChannelCounters = {
    ".flits_injected", ".flit_hops", ".router_traversals"};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void LayerTotals::add_run(const tcmp::cmp::CmpSystem& sys,
                          const tcmp::sim::SelfProfiler& prof) {
  for (const auto& row : prof.rows()) {
    scope_nanos[row.name] += row.nanos;
    scope_laps[row.name] += row.laps;
  }
  attribution_min = std::min(attribution_min, prof.attribution_fraction());

  const tcmp::StatRegistry& stats = sys.merged_stats();
  const tcmp::noc::Network& net = sys.network();
  const std::uint64_t cycles = sys.cycles().value();
  total_cycles += sys.total_cycles().value();
  measured_cycles += cycles;
  core_cycles += cycles * sys.config().n_tiles;
  for (unsigned c = 0; c < net.num_channels(); ++c) {
    router_cycles += cycles * net.router_count(c);
    const std::string prefix = "noc." + net.channel(c).name;
    for (std::string_view stat : kChannelCounters) {
      counters["noc" + std::string(stat)] +=
          stats.counter_value(prefix + std::string(stat));
    }
    if (const tcmp::Histogram* h = stats.find_histogram(prefix + ".latency")) {
      latency_sum += h->scalar().sum();
      latency_count += h->scalar().count();
    }
  }
  for (const char* cls : {"req", "fwd", "resp"}) {
    if (const tcmp::Histogram* h =
            stats.find_histogram(std::string("noc.lat.") + cls + ".queue")) {
      queue_sum += h->scalar().sum();
      queue_count += h->scalar().count();
    }
  }
  for (std::string_view name : kCounters) {
    counters[std::string(name)] += stats.counter_value(std::string(name));
  }
  instructions += sys.measured_instructions();
  compression_accesses += sys.measured_compression_accesses();
}

void LayerTotals::add_replays(const NocReplay& noc, const CompressionReplay& comp) {
  nic_send += noc.send;
  net_tick += noc.tick;
  nic_receive += noc.receive;
  replay_flits += noc.flits;
  compress += comp.msgs;
}

std::vector<std::pair<std::string, double>> layer_metrics(const LayerTotals& t,
                                                          const ReferenceTimes& ref) {
  auto count = [&t](const std::string& name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto scope = [&t](const std::string& name) {
    const auto it = t.scope_nanos.find(name);
    return it == t.scope_nanos.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto laps = [&t](const std::string& name) {
    const auto it = t.scope_laps.find(name);
    return it == t.scope_laps.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto per_call = [](const CallStats& c) {
    return ratio(static_cast<double>(c.nanos), static_cast<double>(c.calls));
  };
  // One "network" lap per live (stepped) cycle.
  const double live = laps("network");
  const double total = static_cast<double>(t.total_cycles);
  const double tick_self =
      static_cast<double>(t.net_tick.nanos) - static_cast<double>(t.nic_receive.nanos);
  const double core_cycles = static_cast<double>(t.core_cycles);
  const double compressed = count("compression.compressed");

  return {
      {"sim.live_cycles", live},
      {"sim.skip_frac", ratio(total - live, total)},
      {"sim.scan_ns", ratio(scope("kernel.scan"), live)},
      {"sim.idle_skip_ns", ratio(scope("idle.skip"), laps("idle.skip"))},
      {"noc.tick_ns", ratio(scope("network"), live)},
      {"noc.replay_tick_ns", ratio(tick_self, static_cast<double>(t.net_tick.calls))},
      {"noc.replay_ns_per_flit", ratio(tick_self, static_cast<double>(t.replay_flits))},
      {"noc.flits", count("noc.flits_injected")},
      {"noc.flit_hops", count("noc.flit_hops")},
      {"noc.router_util",
       ratio(count("noc.router_traversals"), static_cast<double>(t.router_cycles))},
      {"noc.lat_mean", ratio(t.latency_sum, static_cast<double>(t.latency_count))},
      {"noc.queue_mean", ratio(t.queue_sum, static_cast<double>(t.queue_count))},
      {"het.send_ns", per_call(t.nic_send)},
      {"het.receive_ns", per_call(t.nic_receive)},
      {"het.vl_frac", ratio(count("het.vl_messages"),
                            count("het.vl_messages") + count("het.b_messages"))},
      {"het.reordered", count("het.reordered_messages")},
      {"compression.coverage",
       ratio(compressed, compressed + count("compression.uncompressed"))},
      {"compression.table_accesses", static_cast<double>(t.compression_accesses)},
      {"compression.ns_per_msg", per_call(t.compress)},
      {"protocol.dir_ns", ratio(scope("directories"), live)},
      {"protocol.l1_miss_ratio",
       ratio(count("l1.read_misses") + count("l1.write_misses") +
                 count("l1.upgrade_misses"),
             count("l1.accesses"))},
      {"protocol.l1i_miss_ratio", ratio(count("l1i.misses"), count("l1i.fetches"))},
      {"protocol.l2_accesses", count("l2.accesses")},
      {"protocol.mem_reads", count("mem.reads")},
      {"protocol.queued_on_busy", count("dir.queued_on_busy")},
      {"protocol.retried_accesses", count("l1.retried_accesses")},
      {"protocol.cache_to_cache", count("dir.cache_to_cache")},
      {"core.tick_ns", ratio(scope("cores"), live)},
      {"core.ipc", ratio(static_cast<double>(t.instructions), core_cycles)},
      {"core.blocked_frac", ratio(count("core.blocked_cycles"), core_cycles)},
      {"core.miss_stalls", count("core.miss_stalls")},
      {"core.ifetch_stalls", count("core.ifetch_stalls")},
      {"workloads.build_s", t.workload_build_s},
      {"workloads.ns_per_op", per_call(t.workload_next)},
      {"cmp.build_s", t.cmp_build_s},
      {"cmp.report_s", t.report_s},
      {"cmp.loopback_ns", ratio(scope("loopback"), live)},
      {"cmp.barrier_ns", ratio(scope("barrier"), live)},
      {"cmp.drain_ns", ratio(scope("drain.check"), live)},
      {"cmp.remote_msgs", count("msg_remote.count")},
      {"cmp.local_msgs", count("msg_local.count")},
      {"cmp.par_speedup", ref.par_speedup},
      {"cmp.par_efficiency", ratio(ref.par_speedup, ref.par_workers)},
      {"sweep.task_s_p50", ref.task_s_p50},
      {"sweep.task_s_p90", ref.task_s_p90},
      {"sweep.task_s_max", ref.task_s_max},
      {"sweep.idle_frac", ref.idle_frac},
      {"bench.trace_overhead", ref.trace_overhead},
      {"bench.attribution", t.attribution_min},
  };
}

}  // namespace tcmpbench

// Per-layer accounting for the traced pass: host time per layer (the
// SelfProfiler's laps, which sit at the simulation loop's layer boundaries, plus the
// standalone replays), and exact simulated counts read through
// merged_stats(). A workload of several runs (the sweep) sums the raw
// totals over its runs; the metrics are ratios of those sums.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cmp/system.hpp"
#include "replay.hpp"
#include "sim/profiler.hpp"

namespace tcmpbench {

struct LayerTotals {
  std::map<std::string, std::uint64_t> scope_nanos;  ///< profiler scope -> ns
  std::map<std::string, std::uint64_t> scope_laps;
  double attribution_min = 1.0;  ///< worst profiler attribution over runs

  std::uint64_t total_cycles = 0;     ///< including warmup
  std::uint64_t measured_cycles = 0;
  std::uint64_t core_cycles = 0;      ///< measured cycles x tiles
  std::uint64_t router_cycles = 0;    ///< measured cycles x routers (all planes)
  std::uint64_t instructions = 0;     ///< measured
  std::uint64_t compression_accesses = 0;  ///< measured
  /// Measured-window counters; per-channel "noc.<ch>.<x>" fold into "noc.<x>".
  std::map<std::string, std::uint64_t> counters;
  double latency_sum = 0.0;  ///< network latency, all channels
  std::uint64_t latency_count = 0;
  double queue_sum = 0.0;    ///< NI queueing share of it, all classes
  std::uint64_t queue_count = 0;

  CallStats nic_send, net_tick, nic_receive, compress, workload_next;
  std::uint64_t replay_flits = 0;

  double workload_build_s = 0.0;
  double cmp_build_s = 0.0;
  double report_s = 0.0;

  /// Fold in one finished traced run (profiler attached for the whole run).
  void add_run(const tcmp::cmp::CmpSystem& sys, const tcmp::sim::SelfProfiler& prof);
  void add_replays(const NocReplay& noc, const CompressionReplay& comp);
};

/// Host-time figures that come from the untraced reference runs.
struct ReferenceTimes {
  double par_speedup = 1.0;     ///< serial-equivalent wall / actual wall
  double par_workers = 1.0;     ///< partitions (K) or sweep jobs
  double task_s_p50 = 0.0;      ///< per-simulation host seconds
  double task_s_p90 = 0.0;      ///< nearest rank
  double task_s_max = 0.0;
  double idle_frac = 0.0;       ///< 1 - sum(task_s) / (jobs * sweep wall); 0 for one run
  double trace_overhead = 0.0;  ///< traced wall / untraced wall - 1
};

/// Every per-layer metric, by name, in a fixed order.
[[nodiscard]] std::vector<std::pair<std::string, double>> layer_metrics(
    const LayerTotals& t, const ReferenceTimes& ref);

}  // namespace tcmpbench

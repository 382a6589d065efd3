// Partitioned-driver microbenchmark: simulated cycles per wall second on a
// saturated 256-tile (16x16) mesh at --threads 8 versus --threads 1
// (docs/partitioning.md). Saturated means every core is runnable virtually
// every cycle, so nothing can be dead-cycle-skipped and the measurement is
// pure per-cycle throughput — the regime where partitioning the mesh across
// host threads is supposed to pay.
//
// Both runs execute the identical workload and must produce identical cycle
// and instruction counts (checked on every run — the bench doubles as a
// determinism cross-check of the partition seam).
//
// The recorded metric is the SPEEDUP (threads-8 cycles/sec divided by
// threads-1 cycles/sec, same process, same machine) plus the host's core
// count, because the ratio is only meaningful relative to available
// parallelism: cycle-lockstep threading cannot speed anything up on a host
// that runs the 8 partitions on fewer than 8 cores — there it measures
// barrier/boundary overhead instead. The committed baseline
// (bench/BENCH_partition.json) is that ratio's observed floor on the host it
// records; on a host with >= 8 cores the bench itself also enforces the
// 2x target (tolerance-scaled to 1.6x), which no baseline compare can do
// because only the bench sees the host.
//
// Usage:
//   micro_partition [--json out.json]
// --json writes a tcmp-metrics bench document (bench.partition.speedup plus
// informational cycles/sec); the perf gate is
//   tcmpstat --compare bench/BENCH_partition.json out.json --tolerance 0.2
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "cmp/system.hpp"
#include "common/check.hpp"
#include "common/table.hpp"
#include "workloads/synthetic_app.hpp"

using namespace tcmp;

namespace {

constexpr unsigned kTiles = 256;
constexpr unsigned kThreads = 8;
/// The >= 2x acceptance bar on >= 8-core hosts, less the gate's 20%.
constexpr double kSpeedupFloor = 1.6;

cmp::CmpConfig mesh_config(unsigned threads) {
  auto cfg = cmp::CmpConfig::baseline();
  cfg.with_tiles(kTiles);
  cfg.threads = threads;
  return cfg;
}

/// Saturated phase: L1-resident working set, compute between accesses —
/// cores runnable virtually every cycle (same shape as micro_kernel's
/// "saturated" phase, scaled to keep the 256-tile run CI-sized).
workloads::AppParams saturated_params() {
  workloads::AppParams p;
  p.name = "saturated-256";
  p.ops_per_core = 3000;
  p.warmup_frac = 0.0;
  p.spatial_locality = 0.98;
  p.line_dwell = 1.0;
  p.private_lines = 256;
  p.shared_frac = 0.05;
  p.compute_per_mem = 4.0;
  return p;
}

struct RunSample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double cps = 0.0;  ///< simulated cycles per wall second
};

RunSample run_once(unsigned threads) {
  const auto cfg = mesh_config(threads);
  cmp::CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                                 saturated_params(), cfg.n_tiles));
  const auto t0 = std::chrono::steady_clock::now();
  const bool finished = system.run();
  const auto t1 = std::chrono::steady_clock::now();
  TCMP_CHECK_MSG(finished, "micro_partition run did not finish");
  RunSample s;
  s.cycles = system.total_cycles().value();
  s.instructions = system.total_instructions();
  s.cps = static_cast<double>(s.cycles) /
          std::chrono::duration<double>(t1 - t0).count();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_out(argc, argv);

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("=== micro_partition: saturated %u-tile mesh, --threads %u vs 1 "
              "(host cores: %u) ===\n\n",
              kTiles, kThreads, host_cores);

  std::fprintf(stderr, "  running --threads 1...\n");
  const RunSample one = run_once(1);
  std::fprintf(stderr, "  running --threads %u...\n", kThreads);
  const RunSample eight = run_once(kThreads);

  TCMP_CHECK_MSG(
      one.cycles == eight.cycles && one.instructions == eight.instructions,
      "partitioned run diverged from the single-threaded run");
  const double speedup = eight.cps / one.cps;

  TextTable t({"threads", "sim cycles", "cycles/sec"});
  t.add_row({"1", std::to_string(one.cycles), TextTable::fmt(one.cps, 0)});
  t.add_row({std::to_string(kThreads), std::to_string(eight.cycles),
             TextTable::fmt(eight.cps, 0)});
  std::printf("%s\nspeedup: %.3fx (identical cycle/instruction counts "
              "verified)\n",
              t.str().c_str(), speedup);

  bench::write_bench_json(json_path, "partition",
                          {{"speedup", speedup},
                           {"tiles", kTiles},
                           {"threads", kThreads},
                           {"cycles", static_cast<double>(one.cycles)},
                           {"threads1_cps", one.cps},
                           {"threads8_cps", eight.cps}});
  TCMP_CHECK_MSG(host_cores < kThreads || speedup >= kSpeedupFloor,
                 "partitioned speedup below 1.6x on a host with >= 8 cores");
  return 0;
}

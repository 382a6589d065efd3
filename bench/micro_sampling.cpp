// Interval-sampling throughput/accuracy microbenchmark (docs/checkpointing.md):
// one long synthetic workload run twice on the same machine — full detail,
// then SMARTS-sampled (functional fast-forward between short detailed
// windows) — comparing wall time and the extrapolated cycle estimate.
//
// Two gated metrics:
//   * speedup: the sampled run's wall-clock speedup over full detail. Both
//     runs execute in the same process on the same host, so the ratio
//     normalizes out runner speed and the committed baseline (the 10x
//     target) is portable.
//   * cycle_error: the extrapolated cycle estimate's relative error against
//     the full-detail truth. The simulator is deterministic, so at the
//     default scale this error is a fixed property of the tree, and the
//     committed value only moves when sampling quality does.
//
// The instruction-stream conservation law (sampled total == full measured
// instructions) is CHECKed on every run — the bench doubles as an end-to-end
// cross-check of the functional/detailed handoff.
//
// Usage:
//   micro_sampling [--json out.json]
// --json writes a tcmp-metrics bench document (bench.sampling.speedup and
// bench.sampling.cycle_error plus informational times and cycle counts); the
// perf gate is
//   tcmpstat --compare bench/BENCH_sampling.json out.json --tolerance 0.2
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "cmp/sampling.hpp"
#include "cmp/system.hpp"
#include "common/check.hpp"
#include "common/table.hpp"
#include "workloads/synthetic_app.hpp"

using namespace tcmp;

namespace {

/// Long-workload stand-in, CI-sized: a large per-core op budget with mild
/// sharing, the regime interval sampling exists for. TCMP_SCALE scales it
/// like every other bench workload.
workloads::AppParams long_params() {
  workloads::AppParams p;
  p.name = "sampling-long";
  p.ops_per_core = static_cast<std::uint64_t>(120'000 * bench::workload_scale());
  p.warmup_frac = 0.02;
  p.spatial_locality = 0.9;
  p.line_dwell = 2.0;
  p.private_lines = 512;
  p.shared_frac = 0.15;
  p.compute_per_mem = 2.0;
  return p;
}

cmp::SamplingConfig sampling_spec() {
  // ~5% of the stream in detailed windows (detail is instructions per core).
  // Short windows at a high count beat long sparse ones here: the workload's
  // phase structure makes per-window CPI variance grow with window length
  // (CI95 is the tuning signal), while the per-window handoff bias is held
  // symmetric by measuring at the fence point. warmup=1000 covers the
  // post-fast-forward transient (I-cache refill + MSHR/network re-train).
  cmp::SamplingConfig s;
  s.warmup = Cycle{1'000};
  s.detail = 1'000;
  s.period = 19'000;
  return s;
}

struct Outcome {
  double full_seconds = 0.0;
  double sampled_seconds = 0.0;
  double speedup = 0.0;
  std::uint64_t full_cycles = 0;
  std::uint64_t estimated_cycles = 0;
  double cycle_error = 0.0;  ///< |estimate - truth| / truth
  std::uint64_t windows = 0;
  double cpi_ci95 = 0.0;
};

Outcome run_pair() {
  const auto cfg = cmp::CmpConfig::cheng3way();
  const auto params = long_params();
  Outcome o;

  std::fprintf(stderr, "  running full detail...\n");
  std::uint64_t full_instructions = 0;
  {
    cmp::CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                                   params, cfg.n_tiles));
    const auto t0 = std::chrono::steady_clock::now();
    const bool finished = system.run();
    const auto t1 = std::chrono::steady_clock::now();
    TCMP_CHECK_MSG(finished, "micro_sampling full run did not finish");
    o.full_seconds = std::chrono::duration<double>(t1 - t0).count();
    o.full_cycles = system.cycles().value();
    full_instructions = system.measured_instructions();
  }

  std::fprintf(stderr, "  running sampled...\n");
  {
    cmp::CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                                   params, cfg.n_tiles));
    cmp::SampledRun sampled(system, sampling_spec());
    const auto t0 = std::chrono::steady_clock::now();
    const bool finished = sampled.run();
    const auto t1 = std::chrono::steady_clock::now();
    TCMP_CHECK_MSG(finished, "micro_sampling sampled run did not finish");
    o.sampled_seconds = std::chrono::duration<double>(t1 - t0).count();
    const cmp::SamplingResult& r = sampled.result();
    TCMP_CHECK_MSG(r.total_instructions == full_instructions,
                   "sampled run lost instructions against the full run "
                   "(functional/detailed handoff bug)");
    o.estimated_cycles = r.estimated_cycles.value();
    o.windows = r.windows;
    o.cpi_ci95 = r.cpi_ci95;
  }

  o.speedup = o.full_seconds / o.sampled_seconds;
  o.cycle_error = std::abs(static_cast<double>(o.estimated_cycles) -
                           static_cast<double>(o.full_cycles)) /
                  static_cast<double>(o.full_cycles);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_out(argc, argv);

  const unsigned host_cores = std::thread::hardware_concurrency();
  std::printf("=== micro_sampling: full detail vs SMARTS interval sampling "
              "(host cores: %u, workload scale %.2f) ===\n\n",
              host_cores, bench::workload_scale());

  const Outcome o = run_pair();

  TextTable t({"mode", "wall sec", "cycles"});
  t.add_row({"full detail", TextTable::fmt(o.full_seconds, 2),
             std::to_string(o.full_cycles)});
  t.add_row({"sampled", TextTable::fmt(o.sampled_seconds, 2),
             std::to_string(o.estimated_cycles) + " (est)"});
  std::printf("%s\nspeedup: %.2fx   cycle error: %.2f%%   windows: %llu   "
              "CPI CI95: %.4f\n(instruction-stream conservation verified)\n",
              t.str().c_str(), o.speedup, o.cycle_error * 100.0,
              static_cast<unsigned long long>(o.windows), o.cpi_ci95);

  bench::write_bench_json(
      json_path, "sampling",
      {{"speedup", o.speedup},
       {"cycle_error", o.cycle_error},
       {"full_seconds", o.full_seconds},
       {"sampled_seconds", o.sampled_seconds},
       {"full_cycles", static_cast<double>(o.full_cycles)},
       {"estimated_cycles", static_cast<double>(o.estimated_cycles)},
       {"windows", static_cast<double>(o.windows)},
       {"cpi_ci95", o.cpi_ci95}});
  return 0;
}

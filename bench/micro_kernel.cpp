// Simulation-kernel microbenchmark: simulated cycles per wall-clock second
// for the event-scheduled kernel (dead-cycle skipping) versus the plain
// per-cycle loop, over three machine phases:
//
//   idle         — cores block on very long memory latency; almost every
//                  cycle is globally dead (the kernel's best case).
//   memory-bound — 400-cycle memory, blocking in-order cores (MLP 1): the
//                  paper-relevant regime, most cycles dead.
//   saturated    — L1-resident compute-heavy phase: every cycle live, so
//                  this bounds the kernel's bookkeeping overhead (~1x).
//
// Both modes run the identical workload and must produce identical cycle
// and instruction counts (checked here — the bench doubles as a determinism
// cross-check). The recorded regression metric is the per-phase SPEEDUP
// (event-kernel cycles/sec divided by per-cycle-loop cycles/sec, measured in
// the same process on the same machine): absolute cycles/sec depends on the
// host, but the ratio normalizes that out, so a committed baseline
// (bench/BENCH_kernel.json) is portable across CI runners.
//
// Usage:
//   micro_kernel [--json out.json]
// --json writes a tcmp-metrics bench document (bench.kernel.<phase>.speedup
// plus informational cycles and cycles/sec); the perf gate is
//   tcmpstat --compare bench/BENCH_kernel.json out.json --tolerance 0.2
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cmp/system.hpp"
#include "common/check.hpp"
#include "common/table.hpp"
#include "workloads/synthetic_app.hpp"

using namespace tcmp;

namespace {

struct PhaseSpec {
  std::string name;
  workloads::AppParams params;
  cmp::CmpConfig cfg;
  unsigned active_cores = 0;  ///< 0 = all
};

/// Restricts a workload to its first `n_active` cores (the rest finish
/// immediately). This is how the idle and memory-bound phases pin the
/// chip-level MLP: a blocking in-order core has MLP 1, so `n_active` bounds
/// the number of concurrent misses in the whole machine.
class ActiveSubsetWorkload final : public core::Workload {
 public:
  ActiveSubsetWorkload(std::shared_ptr<core::Workload> inner, unsigned n_active)
      : inner_(std::move(inner)), n_active_(n_active) {}

  core::Op next(unsigned core) override {
    return core < n_active_ ? inner_->next(core) : core::Op::done();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool has_warmup() const override { return inner_->has_warmup(); }
  [[nodiscard]] std::uint64_t code_lines() const override {
    return inner_->code_lines();
  }

 private:
  std::shared_ptr<core::Workload> inner_;
  unsigned n_active_;
};

struct PhaseResult {
  std::string name;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double event_cps = 0.0;  ///< simulated cycles / wall second, event kernel
  double loop_cps = 0.0;   ///< same workload, per-cycle loop
  double speedup = 0.0;    ///< event_cps / loop_cps
};

workloads::AppParams phase_params(const char* name, std::uint64_t ops,
                                  double locality, std::uint64_t footprint,
                                  double compute) {
  workloads::AppParams p;
  p.name = name;
  p.ops_per_core = ops;
  p.warmup_frac = 0.0;  // no functional warmup: measure one steady phase
  p.spatial_locality = locality;
  p.line_dwell = 1.0;
  p.private_lines = footprint;
  p.shared_frac = 0.05;
  p.compute_per_mem = compute;
  return p;
}

std::vector<PhaseSpec> phases() {
  std::vector<PhaseSpec> out;
  // idle: a single active core missing into a 2000-cycle memory — the
  // machine spends >99% of its cycles with nothing to do at all.
  {
    PhaseSpec s{"idle", phase_params("idle", 2000, 0.1, 1 << 16, 0.0),
                cmp::CmpConfig::baseline(), /*active_cores=*/1};
    s.cfg.l2.memory_latency = Cycle{2000};
    out.push_back(std::move(s));
  }
  // memory-bound: Table-4 400-cycle memory, cache-busting footprint, two
  // active blocking cores (chip MLP 2) — the sync-heavy straggler regime
  // the paper's barrier-dense applications spend much of their time in.
  {
    PhaseSpec s{"memory-bound",
                phase_params("memory-bound", 4000, 0.1, 1 << 16, 0.0),
                cmp::CmpConfig::baseline(), /*active_cores=*/2};
    s.cfg.l2.memory_latency = Cycle{400};
    out.push_back(std::move(s));
  }
  // saturated: all 16 cores on an L1-resident working set with compute
  // between accesses; cores are runnable virtually every cycle, so nothing
  // can be skipped — this bounds the kernel's bookkeeping overhead.
  {
    PhaseSpec s{"saturated", phase_params("saturated", 20000, 0.98, 256, 4.0),
                cmp::CmpConfig::baseline(), /*active_cores=*/0};
    out.push_back(std::move(s));
  }
  return out;
}

/// One timed run; returns (total cycles, instructions, wall seconds).
void run_once(const PhaseSpec& spec, bool dead_cycle_skipping,
              std::uint64_t* cycles, std::uint64_t* instructions,
              double* seconds) {
  std::shared_ptr<core::Workload> workload =
      std::make_shared<workloads::SyntheticApp>(spec.params, spec.cfg.n_tiles);
  if (spec.active_cores != 0) {
    workload = std::make_shared<ActiveSubsetWorkload>(std::move(workload),
                                                      spec.active_cores);
  }
  cmp::CmpSystem system(spec.cfg, workload);
  system.set_dead_cycle_skipping(dead_cycle_skipping);
  const auto t0 = std::chrono::steady_clock::now();
  const bool finished = system.run();
  const auto t1 = std::chrono::steady_clock::now();
  TCMP_CHECK_MSG(finished, "micro_kernel phase did not finish");
  *cycles = system.total_cycles().value();
  *instructions = system.total_instructions();
  *seconds = std::chrono::duration<double>(t1 - t0).count();
}

PhaseResult run_phase(const PhaseSpec& spec) {
  PhaseResult r;
  r.name = spec.name;
  std::uint64_t loop_cycles = 0, loop_instr = 0;
  double event_s = 0.0, loop_s = 0.0;
  run_once(spec, /*dead_cycle_skipping=*/true, &r.cycles, &r.instructions,
           &event_s);
  run_once(spec, /*dead_cycle_skipping=*/false, &loop_cycles, &loop_instr,
           &loop_s);
  TCMP_CHECK_MSG(loop_cycles == r.cycles && loop_instr == r.instructions,
                 "event kernel diverged from the per-cycle loop");
  r.event_cps = static_cast<double>(r.cycles) / event_s;
  r.loop_cps = static_cast<double>(loop_cycles) / loop_s;
  r.speedup = r.event_cps / r.loop_cps;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_out(argc, argv);

  std::printf("=== micro_kernel: simulated cycles per wall second ===\n\n");
  std::vector<PhaseResult> results;
  for (const PhaseSpec& spec : phases()) {
    std::fprintf(stderr, "  running %s...\n", spec.name.c_str());
    results.push_back(run_phase(spec));
  }

  TextTable t({"phase", "sim cycles", "event kernel c/s", "per-cycle loop c/s",
               "speedup"});
  std::vector<cmp::BenchMetric> metrics;
  for (const PhaseResult& r : results) {
    t.add_row({r.name, std::to_string(r.cycles), TextTable::fmt(r.event_cps, 0),
               TextTable::fmt(r.loop_cps, 0), TextTable::fmt(r.speedup, 2)});
    metrics.push_back({r.name + ".speedup", r.speedup});
    metrics.push_back({r.name + ".cycles", static_cast<double>(r.cycles)});
    metrics.push_back({r.name + ".event_cps", r.event_cps});
    metrics.push_back({r.name + ".loop_cps", r.loop_cps});
  }
  std::printf("%s\n", t.str().c_str());
  bench::write_bench_json(json_path, "kernel", metrics);
  return 0;
}

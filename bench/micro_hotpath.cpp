// Hot-path data-plane microbenchmark: guards the cost of the structures
// every *live* cycle touches (interned stat handles, fixed-capacity router
// rings, the flat NIC reorder window, the directory's pooled pending queues
// and FIFO latency pipes — see docs/performance.md).
//
// Two phases:
//
//   stat-bump         — per-event counter bumps through the string-keyed
//                       StatRegistry::counter(name) path versus interned
//                       CounterRef handles, over the simulator's real hot
//                       counter names. Metric: handle/string speedup (a
//                       same-process ratio, portable across hosts).
//   saturated-traffic — a heterogeneous-link configuration driven by a
//                       low-locality, high-sharing workload: every cycle is
//                       live and NoC/NIC/directory-bound, so simulated
//                       cycles per wall second is dominated by the hot-path
//                       data structures, not the kernel. Metric: kcycles per
//                       wall second per Mops of a host-calibration loop
//                       (xorshift walk + ALU mix over an L2-resident array)
//                       measured in the same process, which removes most of
//                       the runner-speed dependence from the committed
//                       baseline.
//
// Usage:
//   micro_hotpath [--json out.json]
// --json writes a tcmp-metrics bench document (bench.hotpath.stat-bump.speedup
// and bench.hotpath.saturated-traffic.kcps_per_mops, plus the informational
// rates they are made of); the perf gate is
//   tcmpstat --compare bench/BENCH_hotpath.json out.json --tolerance 0.2
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cmp/system.hpp"
#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "workloads/synthetic_app.hpp"

using namespace tcmp;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- host calibration ------------------------------------------------------

/// Fixed-work host-speed proxy: a xorshift-indexed walk over an array with
/// an ALU-heavy accumulate, returning millions of steps per second. The
/// simulator's live-cycle work is a similar mix of dependent loads and
/// integer ops, so cps/calib_mops is far more host-invariant than raw cps.
/// The array is L2-resident: a 4 MB walk measures the DRAM bandwidth other
/// tenants leave over, which on a shared 4-vCPU VM read 107-232 Mops
/// across 32 processes, twice the relative spread of the simulator's cps.
double calibrate_mops() {
  constexpr std::size_t kWords = 1u << 15;  // 256 KB of uint64
  std::vector<std::uint64_t> mem(kWords);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& w : mem) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    w = x;
  }
  constexpr std::uint64_t kSteps = 30'000'000;
  std::uint64_t acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += mem[x & (kWords - 1)] * 0x2545F4914F6CDD1Dull + (acc >> 3);
  }
  const double s = seconds_since(t0);
  // Keep the accumulator observable so the loop cannot be elided.
  if (acc == 0xDEADBEEF) std::fprintf(stderr, "calibration anchor\n");
  return static_cast<double>(kSteps) / s / 1e6;
}

// --- stat-bump -------------------------------------------------------------

/// The simulator's real per-event counters (the L1/directory/NIC bump set).
const char* const kHotCounters[] = {
    "l1.accesses",        "l1.read_misses",      "l1.write_misses",
    "l2.accesses",        "dir.queued_on_busy",  "dir.cache_to_cache",
    "mem.reads",          "l2.evictions",        "msg_remote.count",
    "msg_local.count",    "compression.compressed",
    "het.b_messages",     "het.vl_messages",     "het.reordered_messages",
    "core.miss_stalls",   "sync.barrier_arrivals",
};
constexpr std::size_t kNumHot = sizeof(kHotCounters) / sizeof(kHotCounters[0]);

std::vector<cmp::BenchMetric> run_stat_bump() {
  constexpr std::uint64_t kRounds = 400'000;  // x16 counters per round

  StatRegistry by_string;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (const char* name : kHotCounters) ++by_string.counter(name);
  }
  const double string_s = seconds_since(t0);

  StatRegistry by_handle;
  CounterRef refs[kNumHot];
  for (std::size_t i = 0; i < kNumHot; ++i) {
    refs[i] = by_handle.counter_ref(kHotCounters[i]);
  }
  const auto t1 = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (auto& ref : refs) ++ref;
  }
  const double handle_s = seconds_since(t1);

  // The two paths must land in the identical counter map (the bench doubles
  // as an equality smoke; tests/test_common.cpp holds the full test).
  TCMP_CHECK_MSG(by_string.counters() == by_handle.counters(),
                 "handle and string bump paths diverged");

  const double bumps = static_cast<double>(kRounds) * kNumHot;
  const double string_mops = bumps / string_s / 1e6;
  const double handle_mops = bumps / handle_s / 1e6;
  return {{"stat-bump.speedup", handle_mops / string_mops},
          {"stat-bump.string_mops", string_mops},
          {"stat-bump.handle_mops", handle_mops}};
}

// --- saturated-traffic -----------------------------------------------------

std::vector<cmp::BenchMetric> run_saturated_traffic(double calib_mops) {
  workloads::AppParams p;
  p.name = "hotpath-saturated";
  p.ops_per_core = 6000;
  p.warmup_frac = 0.0;
  p.spatial_locality = 0.2;   // mostly misses: every access talks to a home
  p.line_dwell = 1.0;
  p.private_lines = 1 << 14;  // L1-busting, L2-resident footprint
  p.shared_frac = 0.4;        // heavy cross-tile sharing: forwards + invs
  p.compute_per_mem = 0.0;

  compression::SchemeConfig scheme;
  scheme.kind = compression::SchemeKind::kDbrc;
  scheme.entries = 16;
  cmp::CmpConfig cfg = cmp::CmpConfig::heterogeneous(scheme);
  cfg.l2.memory_latency = Cycle{100};  // keep the machine traffic-bound

  cmp::CmpSystem system(cfg,
                        std::make_shared<workloads::SyntheticApp>(p, cfg.n_tiles));
  const auto t0 = std::chrono::steady_clock::now();
  const bool finished = system.run();
  const double s = seconds_since(t0);
  TCMP_CHECK_MSG(finished, "saturated-traffic phase did not finish");

  const double cycles = static_cast<double>(system.total_cycles().value());
  const double cps = cycles / s;
  return {{"saturated-traffic.kcps_per_mops", cps / calib_mops / 1e3},
          {"saturated-traffic.cycles", cycles},
          {"saturated-traffic.cps", cps},
          {"saturated-traffic.calib_mops", calib_mops}};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::parse_json_out(argc, argv);

  std::printf("=== micro_hotpath: hot-path data-plane throughput ===\n\n");
  std::fprintf(stderr, "  calibrating host...\n");
  const double calib = calibrate_mops();
  std::fprintf(stderr, "  running stat-bump...\n");
  std::vector<cmp::BenchMetric> metrics = run_stat_bump();
  std::fprintf(stderr, "  running saturated-traffic...\n");
  for (cmp::BenchMetric& m : run_saturated_traffic(calib)) metrics.push_back(m);

  TextTable t({"metric", "value"});
  for (const cmp::BenchMetric& m : metrics) {
    t.add_row({m.name, TextTable::fmt(m.value, 3)});
  }
  std::printf("%s\n", t.str().c_str());
  bench::write_bench_json(json_path, "hotpath", metrics);
  return 0;
}

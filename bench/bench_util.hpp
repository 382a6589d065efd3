// Shared helpers for the table/figure reproduction benches: the application
// sweep, scheme lists, consistent normalized printing, and the deterministic
// parallel sweep driver (--jobs N). TCMP_SCALE scales every workload's
// operation count (1.0 = the calibrated default used in EXPERIMENTS.md;
// smaller values give quick smoke runs). The perf microbenches share their
// one option, `--json FILE`, and its metrics-document writer.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cmp/metrics_export.hpp"
#include "cmp/report.hpp"
#include "cmp/system.hpp"
#include "common/env.hpp"
#include "common/parallel.hpp"
#include "common/table.hpp"
#include "compression/scheme.hpp"
#include "workloads/app_params.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp::bench {

[[nodiscard]] inline double workload_scale() {
  return env_double("TCMP_SCALE", 1.0);
}

/// Worker threads for parallel_sweep: `--jobs N` / `--jobs=N` on the
/// command line, else TCMP_JOBS, else 1 (serial).
[[nodiscard]] inline unsigned parse_jobs(int argc, char** argv) {
  long jobs = env_long("TCMP_JOBS", 1);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::strtol(argv[i + 1], nullptr, 10);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::strtol(argv[i] + 7, nullptr, 10);
    }
  }
  return jobs < 1 ? 1u : static_cast<unsigned>(jobs);
}

/// Deterministic parallel sweep driver (common/parallel.hpp): runs `task(i)`
/// for every i in [0, n) across `jobs` worker threads and returns the
/// results indexed by task, so callers print a merged table whose content is
/// identical at any job count. Each task must be self-contained — build its
/// own CmpSystem (one StatRegistry per run, nothing shared) — which is what
/// makes every interleaving safe without a single lock. Worker progress goes
/// to stderr; nothing is written to stdout here.
template <typename Task>
[[nodiscard]] auto parallel_sweep(std::size_t n, unsigned jobs, Task task)
    -> std::vector<decltype(task(std::size_t{0}))> {
  return tcmp::parallel_sweep(n, jobs, std::move(task), /*progress=*/true);
}

/// Run one application under one configuration to completion.
inline cmp::RunResult run_app(const workloads::AppParams& params,
                              const cmp::CmpConfig& cfg) {
  auto workload = std::make_shared<workloads::SyntheticApp>(
      params.scaled(workload_scale()), cfg.n_tiles);
  cmp::CmpSystem system(cfg, workload);
  const bool finished = system.run();
  TCMP_CHECK_MSG(finished, "simulation did not finish");
  cmp::RunResult r = cmp::make_result(system);
  r.workload = params.name;
  return r;
}

/// The compression configurations whose coverage Fig. 2 reports.
[[nodiscard]] inline std::vector<compression::SchemeConfig> fig2_schemes() {
  using compression::SchemeConfig;
  return {SchemeConfig::stride(1),  SchemeConfig::stride(2),
          SchemeConfig::dbrc(4, 1), SchemeConfig::dbrc(4, 2),
          SchemeConfig::dbrc(16, 1), SchemeConfig::dbrc(16, 2),
          SchemeConfig::dbrc(64, 1), SchemeConfig::dbrc(64, 2)};
}

/// The configurations evaluated in Fig. 6/7 (coverage over ~80% in Fig. 2).
[[nodiscard]] inline std::vector<compression::SchemeConfig> fig6_schemes() {
  using compression::SchemeConfig;
  return {SchemeConfig::stride(2),   SchemeConfig::dbrc(4, 2),
          SchemeConfig::dbrc(16, 1), SchemeConfig::dbrc(16, 2),
          SchemeConfig::dbrc(64, 1), SchemeConfig::dbrc(64, 2)};
}

/// The perfect-compression potential lines of Fig. 6 (3/4/5-byte VL).
[[nodiscard]] inline std::vector<compression::SchemeConfig> potential_schemes() {
  using compression::SchemeConfig;
  return {SchemeConfig::perfect(3), SchemeConfig::perfect(4), SchemeConfig::perfect(5)};
}

/// A perf microbench's one option, `--json FILE`: returns FILE ("" when
/// absent). Any other argument prints the usage line and exits 2.
[[nodiscard]] inline std::string parse_json_out(int argc, char** argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json out.json]\n", argv[0]);
      std::exit(2);
    }
  }
  return path;
}

/// Write a microbench's results to `path` (nothing when empty) as the
/// tcmp-metrics bench document that `tcmpstat --compare
/// bench/BENCH_<group>.json path` gates.
inline void write_bench_json(const std::string& path, const char* group,
                             const std::vector<cmp::BenchMetric>& metrics) {
  if (path.empty()) return;
  std::ofstream out(path);
  cmp::write_bench_metrics_json(out, group, metrics);
  TCMP_CHECK_MSG(out.good(), "could not write --json output");
  std::printf("wrote %s\n", path.c_str());
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("(workload scale %.2f; set TCMP_SCALE to change)\n\n", workload_scale());
}

}  // namespace tcmp::bench

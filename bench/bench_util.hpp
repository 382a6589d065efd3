// Shared helpers for the benches: the workload scale, one simulation run
// and the table header (paper, mesh_smoke), and the gated benches' one
// option, `--json FILE`, with its metrics-document writer and the peak
// resident set (mesh_smoke's footprint gate). TCMP_SCALE scales
// every workload's operation count (1.0 = the calibrated default used in
// EXPERIMENTS.md; smaller values give quick smoke runs); a value that is not
// entirely a number exits 2 naming it.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cmp/metrics_export.hpp"
#include "cmp/report.hpp"
#include "cmp/system.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "workloads/app_params.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp::bench {

[[nodiscard]] inline double workload_scale() {
  const std::optional<double> scale = env_double("TCMP_SCALE", 1.0);
  if (!scale) {
    std::fprintf(stderr, "TCMP_SCALE: '%s' is not entirely a number, or is out of range\n",
                 std::getenv("TCMP_SCALE"));
    std::exit(2);
  }
  return *scale;
}

/// Run one application under one configuration to completion; `hook`, when
/// set, observes every remote message as it is injected.
inline cmp::RunResult run_app(const workloads::AppParams& params,
                              const cmp::CmpConfig& cfg,
                              cmp::CmpSystem::MsgHook hook = {}) {
  auto workload = std::make_shared<workloads::SyntheticApp>(
      params.scaled(workload_scale()), cfg.n_tiles);
  cmp::CmpSystem system(cfg, workload);
  system.set_remote_msg_hook(std::move(hook));
  const bool finished = system.run();
  TCMP_CHECK_MSG(finished, "simulation did not finish");
  cmp::RunResult r = cmp::make_result(system);
  r.workload = params.name;
  return r;
}

/// A gated bench's one option, `--json FILE`: returns FILE ("" when
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

/// The process's peak resident set so far (VmHWM), in MiB; 0 where
/// /proc/self/status is unavailable.
[[nodiscard]] inline double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

inline void print_header(const char* title) {
  std::printf("\n=== %s ===\n", title);
  std::printf("(workload scale %.2f; set TCMP_SCALE to change)\n\n", workload_scale());
}

}  // namespace tcmp::bench

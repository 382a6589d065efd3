// Mesh-scaling smoke (the partitioned driver lifted the 16-tile assumption,
// docs/partitioning.md): one app per mesh size, baseline config, logging
// simulated cycles per wall second per size. The perf-smoke CI job runs this
// at small TCMP_SCALE so 64- and 256-tile assembly, routing and reporting are
// exercised on every PR. The cycles/sec column is host timing, so this is a
// smoke, not a paper table.
//
// `--json FILE` writes the process's peak resident set after the 256-tile
// run (`peak_rss_mib`, VmHWM): the footprint gate, which
// `tcmpstat --compare bench/BENCH_mesh.json FILE` fails when per-tile state
// grows back (docs/performance.md, "Directory footprint").
#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hpp"

using namespace tcmp;

namespace {

cmp::CmpConfig sized(cmp::CmpConfig cfg, unsigned tiles) {
  cfg.with_tiles(tiles);
  return cfg;
}

int run_scaling_smoke(const std::string& json_path) {
  bench::print_header("Mesh-scaling smoke: 64-tile (8x8) and 256-tile (16x16)");
  TextTable t({"tiles", "mesh", "sim cycles", "instructions", "cycles/sec"});
  for (unsigned tiles : {64u, 256u}) {
    const auto cfg = sized(cmp::CmpConfig::baseline(), tiles);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = bench::run_app(workloads::app("FFT"), cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    char mesh[16];
    std::snprintf(mesh, sizeof mesh, "%ux%u", cfg.mesh_width, cfg.mesh_height);
    t.add_row({std::to_string(tiles), mesh, std::to_string(r.cycles.value()),
               std::to_string(r.instructions),
               TextTable::fmt(static_cast<double>(r.cycles.value()) / secs, 0)});
  }
  std::printf("%s\n", t.str().c_str());
  const double peak = bench::peak_rss_mib();
  std::printf("peak RSS: %.1f MiB\n", peak);
  bench::write_bench_json(json_path, "mesh", {{"peak_rss_mib", peak}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_scaling_smoke(bench::parse_json_out(argc, argv));
}

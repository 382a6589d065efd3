// Mesh-scaling smoke (the partitioned driver lifted the 16-tile assumption,
// docs/partitioning.md): one app per mesh size, baseline config, logging
// simulated cycles per wall second per size. The perf-smoke CI job runs this
// at small TCMP_SCALE so 64- and 256-tile assembly, routing and reporting are
// exercised on every PR. The cycles/sec column is host timing, so this is a
// smoke, not a paper table.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"

using namespace tcmp;

namespace {

cmp::CmpConfig sized(cmp::CmpConfig cfg, unsigned tiles) {
  cfg.with_tiles(tiles);
  return cfg;
}

int run_scaling_smoke() {
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
  return 0;
}

}  // namespace

int main() { return run_scaling_smoke(); }

// Canonical metrics export: ONE versioned JSON document per run that unifies
// everything the simulator can report — the paper-level RunResult metrics,
// every StatRegistry counter/scalar/histogram (slack telemetry included),
// and, when attached, the kernel self-profile. `tcmpsim --metrics-out` writes
// it; tools/tcmpstat reads, summarizes and diffs it (CI trend gating).
//
// Schema contract (docs/observability.md has the worked example):
//   { "schema": "tcmp-metrics", "version": kMetricsSchemaVersion,
//     "run": {...}, "counters": {...}, "scalars": {...},
//     "histograms": {...}, "slack": {...}, "sampling": {...}?,
//     "self_profile": {...}? }
// A perf microbench writes the same header with one "bench" section instead
// (write_bench_metrics_json):
//   { "schema": "tcmp-metrics", "version": kMetricsSchemaVersion,
//     "bench": { "host_cores": N, "<group>": { "<metric>": value, ... } } }
// where <group> is kernel, hotpath, partition or sampling; the committed
// bench/BENCH_<group>.json baselines have this shape.
// The version bumps on any breaking change (renamed/removed keys or meaning
// changes); adding keys is non-breaking. Consumers must reject documents
// whose schema/version they do not understand (tcmpstat does).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cmp/report.hpp"

namespace tcmp::sim {
class SelfProfiler;
}

namespace tcmp::cmp {

struct SamplingResult;

inline constexpr int kMetricsSchemaVersion = 1;

/// Write the canonical metrics JSON for a finished run. `prof` (optional)
/// adds the "self_profile" section; `sampling` (optional) adds the
/// "sampling" section, with `stats` overriding the registry the counter /
/// scalar / histogram sections are harvested from (a sampled run exports
/// its extrapolated registry instead of the live one). Deterministic: key
/// order is fixed and registry sections iterate in map (name) order.
void write_metrics_json(std::ostream& out, const RunResult& result,
                        const CmpSystem& system,
                        const sim::SelfProfiler* prof = nullptr,
                        const SamplingResult* sampling = nullptr,
                        const StatRegistry* stats = nullptr);

/// One microbench result: `bench.<group>.<name>` in the document.
struct BenchMetric {
  std::string name;
  double value = 0.0;
};

/// Write a microbench's results as a metrics document whose one section is
/// "bench": the host's core count plus `metrics`, in order, under `group`.
/// `tcmpstat --compare` gates it against a committed baseline of the same
/// shape.
void write_bench_metrics_json(std::ostream& out, const std::string& group,
                              const std::vector<BenchMetric>& metrics);

}  // namespace tcmp::cmp

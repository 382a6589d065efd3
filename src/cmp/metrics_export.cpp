#include "cmp/metrics_export.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <thread>

#include "cmp/sampling.hpp"
#include "common/json.hpp"
#include "sim/profiler.hpp"

namespace tcmp::cmp {

namespace {

// Shortest round-trippable-enough representation; JSON has no NaN/Inf, so
// non-finite values (e.g. ED2P of a zero-cycle run) degrade to 0.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string quoted(const std::string& s) { return '"' + json::escape(s) + '"'; }

void write_quantiles(std::ostream& out, const Histogram& h) {
  const ScalarStat& s = h.scalar();
  out << "{\"count\":" << s.count() << ",\"mean\":" << num(s.mean())
      << ",\"p50\":" << num(h.quantile(0.50))
      << ",\"p95\":" << num(h.quantile(0.95))
      << ",\"p99\":" << num(h.quantile(0.99)) << "}";
}

void write_run(std::ostream& out, const RunResult& r) {
  out << "\"run\":{"
      << "\"workload\":" << quoted(r.workload)
      << ",\"configuration\":" << quoted(r.configuration)
      << ",\"cycles\":" << r.cycles.value()
      << ",\"seconds\":" << num(r.seconds.value())
      << ",\"instructions\":" << r.instructions
      << ",\"remote_messages\":" << r.remote_messages
      << ",\"local_messages\":" << r.local_messages
      << ",\"coverage\":" << num(r.compression_coverage)
      << ",\"critical_latency\":" << num(r.avg_critical_latency)
      << ",\"link_energy_j\":" << num(r.link_energy().value())
      << ",\"interconnect_energy_j\":" << num(r.interconnect_energy().value())
      << ",\"total_energy_j\":" << num(r.total_energy().value())
      << ",\"link_ed2p\":" << num(r.link_ed2p())
      << ",\"interconnect_ed2p\":" << num(r.interconnect_ed2p())
      << ",\"full_ed2p\":" << num(r.full_cmp_ed2p()) << "}";
}

void write_self_profile(std::ostream& out, const sim::SelfProfiler& prof,
                        const CmpSystem& system) {
  out << "\"self_profile\":{\"total_nanos\":" << prof.total_nanos()
      << ",\"attribution\":" << num(prof.attribution_fraction())
      << ",\"scopes\":[";
  bool first = true;
  for (const auto& row : prof.rows()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":" << quoted(row.name) << ",\"nanos\":" << row.nanos
        << ",\"laps\":" << row.laps << ",\"share\":" << num(row.share) << "}";
  }
  out << "],\"kernel_scan\":[";
  first = true;
  for (const auto& s : system.scan_stats()) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":" << quoted(s.name) << ",\"polls\":" << s.polls
        << ",\"hot_exits\":" << s.hot_exits << "}";
  }
  out << "]}";
}

}  // namespace

void write_metrics_json(std::ostream& out, const RunResult& result,
                        const CmpSystem& system, const sim::SelfProfiler* prof,
                        const SamplingResult* sampling,
                        const StatRegistry* stats) {
  const StatRegistry& reg = stats != nullptr ? *stats : system.merged_stats();
  out << "{\"schema\":\"tcmp-metrics\",\"version\":" << kMetricsSchemaVersion
      << ",";
  write_run(out, result);

  out << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : reg.counters()) {
    if (!first) out << ",";
    first = false;
    out << quoted(name) << ":" << v;
  }
  out << "},\"scalars\":{";
  first = true;
  for (const auto& [name, s] : reg.scalars()) {
    if (!first) out << ",";
    first = false;
    out << quoted(name) << ":{\"count\":" << s.count()
        << ",\"mean\":" << num(s.mean()) << ",\"min\":" << num(s.min())
        << ",\"max\":" << num(s.max()) << "}";
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    if (!first) out << ",";
    first = false;
    out << quoted(name) << ":";
    write_quantiles(out, h);
  }

  // The slack telemetry plane, re-grouped from its registry stats: each
  // "slack.<class>.<wire>" histogram joined with its ".nonblocking" counter.
  out << "},\"slack\":{";
  first = true;
  for (const auto& [name, h] : reg.histograms()) {
    if (name.rfind("slack.", 0) != 0) continue;
    if (!first) out << ",";
    first = false;
    out << quoted(name.substr(6)) << ":";
    const ScalarStat& s = h.scalar();
    out << "{\"count\":" << s.count() << ",\"mean\":" << num(s.mean())
        << ",\"p50\":" << num(h.quantile(0.50))
        << ",\"p95\":" << num(h.quantile(0.95))
        << ",\"p99\":" << num(h.quantile(0.99))
        << ",\"nonblocking\":" << reg.counter_value(name + ".nonblocking")
        << "}";
  }
  out << "}";

  if (sampling != nullptr) {
    const SamplingResult& s = *sampling;
    out << ",\"sampling\":{\"windows\":" << s.windows
        << ",\"detailed_cycles\":" << s.detailed_cycles.value()
        << ",\"detailed_instructions\":" << s.detailed_instructions
        << ",\"functional_instructions\":" << s.functional_instructions
        << ",\"total_instructions\":" << s.total_instructions
        << ",\"cpi\":" << num(s.cpi)
        << ",\"cpi_window_mean\":" << num(s.cpi_window_mean)
        << ",\"cpi_ci95\":" << num(s.cpi_ci95)
        << ",\"extrapolation\":" << num(s.extrapolation)
        << ",\"estimated_cycles\":" << s.estimated_cycles.value() << "}";
  }

  if (prof != nullptr) {
    out << ",";
    write_self_profile(out, *prof, system);
  }
  out << "}\n";
}

void write_bench_metrics_json(std::ostream& out, const std::string& group,
                              const std::vector<BenchMetric>& metrics) {
  out << "{\n  \"schema\": \"tcmp-metrics\",\n  \"version\": "
      << kMetricsSchemaVersion << ",\n  \"bench\": {\n    \"host_cores\": "
      << std::thread::hardware_concurrency() << ",\n    " << quoted(group)
      << ": {";
  const char* sep = "\n";
  for (const BenchMetric& m : metrics) {
    out << sep << "      " << quoted(m.name) << ": " << num(m.value);
    sep = ",\n";
  }
  out << "\n    }\n  }\n}\n";
}

}  // namespace tcmp::cmp

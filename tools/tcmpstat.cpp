// tcmpstat — canonical-metrics inspector and the one perf/trend gate.
//
//   tcmpstat run.json                       summarize one metrics document
//   tcmpstat --compare base.json new.json   diff the key metrics; exit 1 when
//                                           any regresses beyond --tolerance
//
// Options:
//   --tolerance F   relative regression threshold for --compare (default 0.2)
//   --all           with --compare, also diff every counter (informational;
//                   only the key-metric table gates)
//
// Reads the versioned JSON that `tcmpsim --metrics-out` and the perf
// microbenches' `--json` write (cmp/metrics_export.hpp). Documents with an
// unknown schema name or a newer version are rejected (exit 2): the gate
// must never silently pass on a format it does not understand.
//
// Key metrics and their regression direction, by section:
//   run.cycles                 higher is worse   (performance)
//   run.critical_latency       higher is worse
//   run.link_ed2p              higher is worse
//   run.interconnect_energy_j  higher is worse
//   run.total_energy_j         higher is worse
//   run.coverage               LOWER is worse    (compression coverage)
//   counters.msg_remote.count  any change is suspect (determinism guard)
//   bench.kernel.{idle,memory-bound,saturated}.speedup   LOWER is worse
//   bench.hotpath.stat-bump.speedup                      LOWER is worse
//   bench.hotpath.saturated-traffic.kcps_per_mops        LOWER is worse
//   bench.partition.speedup                              LOWER is worse
//   bench.sampling.speedup                               LOWER is worse
//   bench.sampling.cycle_error                           higher is worse
//   bench.mesh.peak_rss_mib                              higher is worse
// A row is gated when the BASE document has its section (run, counters,
// bench.kernel, ...); a gated row missing from either document counts as a
// regression (MISSING). A compare that gates no row exits 2.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/args.hpp"
#include "common/json.hpp"

using namespace tcmp;

namespace {

constexpr int kMaxSchemaVersion = 1;

enum class Direction { kHigherWorse, kLowerWorse, kAnyChange };

struct KeyMetric {
  const char* section;  ///< the row is gated when the base document has it
  const char* name;
  Direction dir;
};

constexpr KeyMetric kKeyMetrics[] = {
    {"run", "cycles", Direction::kHigherWorse},
    {"run", "critical_latency", Direction::kHigherWorse},
    {"run", "link_ed2p", Direction::kHigherWorse},
    {"run", "interconnect_energy_j", Direction::kHigherWorse},
    {"run", "total_energy_j", Direction::kHigherWorse},
    {"run", "coverage", Direction::kLowerWorse},
    {"counters", "msg_remote.count", Direction::kAnyChange},
    {"bench.kernel", "idle.speedup", Direction::kLowerWorse},
    {"bench.kernel", "memory-bound.speedup", Direction::kLowerWorse},
    {"bench.kernel", "saturated.speedup", Direction::kLowerWorse},
    {"bench.hotpath", "stat-bump.speedup", Direction::kLowerWorse},
    {"bench.hotpath", "saturated-traffic.kcps_per_mops", Direction::kLowerWorse},
    {"bench.partition", "speedup", Direction::kLowerWorse},
    {"bench.sampling", "speedup", Direction::kLowerWorse},
    {"bench.sampling", "cycle_error", Direction::kHigherWorse},
    {"bench.mesh", "peak_rss_mib", Direction::kHigherWorse},
};

bool load(const std::string& path, json::Value& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tcmpstat: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  json::ParseResult r = json::parse(ss.str());
  if (!r.ok) {
    std::fprintf(stderr, "tcmpstat: %s: %s\n", path.c_str(), r.error.c_str());
    return false;
  }
  out = std::move(r.value);
  return true;
}

/// Schema gate: name must match, version must be one we understand.
bool validate(const json::Value& doc, const std::string& path) {
  const json::Value* schema = doc.find("schema");
  const json::Value* version = doc.find("version");
  if (schema == nullptr || !schema->is_string() ||
      schema->str != "tcmp-metrics") {
    std::fprintf(stderr, "tcmpstat: %s: not a tcmp-metrics document\n",
                 path.c_str());
    return false;
  }
  if (version == nullptr || !version->is_number() ||
      version->number < 1 || version->number > kMaxSchemaVersion) {
    std::fprintf(stderr,
                 "tcmpstat: %s: unsupported schema version %g (max %d)\n",
                 path.c_str(), version != nullptr ? version->number : 0.0,
                 kMaxSchemaVersion);
    return false;
  }
  return true;
}

double number_at(const json::Value& doc, const std::string& path, bool* found) {
  const json::Value* v = doc.find_path(path);
  *found = v != nullptr && v->is_number();
  return *found ? v->number : 0.0;
}

/// Signed relative change in the WORSE direction: positive means regressed.
double badness(double base, double next, Direction dir) {
  double rel;
  if (base == 0.0) {
    rel = next == 0.0 ? 0.0 : (next > 0 ? HUGE_VAL : -HUGE_VAL);
  } else {
    rel = (next - base) / std::fabs(base);
  }
  switch (dir) {
    case Direction::kHigherWorse: return rel;
    case Direction::kLowerWorse: return -rel;
    case Direction::kAnyChange: return std::fabs(rel);
  }
  return 0.0;
}

void summarize(const json::Value& doc) {
  const json::Value* run = doc.find("run");
  if (run != nullptr && run->is_object()) {
    for (const auto& [k, v] : run->members) {
      if (v.is_string()) {
        std::printf("  %-24s %s\n", k.c_str(), v.str.c_str());
      } else if (v.is_number()) {
        std::printf("  %-24s %.6g\n", k.c_str(), v.number);
      }
    }
  }
  const json::Value* slack = doc.find("slack");
  if (slack != nullptr && slack->is_object() && !slack->members.empty()) {
    std::printf("slack [cycles]:\n  %-28s %8s %8s %8s %8s %10s\n", "class.wire",
                "count", "mean", "p95", "p99", "nonblock");
    for (const auto& [k, v] : slack->members) {
      auto f = [&v](const char* key) {
        const json::Value* x = v.find(key);
        return x != nullptr && x->is_number() ? x->number : 0.0;
      };
      if (f("count") == 0 && f("nonblocking") == 0) continue;
      std::printf("  %-28s %8.0f %8.2f %8.1f %8.1f %10.0f\n", k.c_str(),
                  f("count"), f("mean"), f("p95"), f("p99"), f("nonblocking"));
    }
  }
  const json::Value* prof = doc.find("self_profile");
  if (prof != nullptr && prof->is_object()) {
    const json::Value* total = prof->find("total_nanos");
    const json::Value* attr = prof->find("attribution");
    std::printf("self_profile: total=%.3fms attribution=%.1f%%\n",
                (total != nullptr ? total->number : 0.0) / 1e6,
                100.0 * (attr != nullptr ? attr->number : 0.0));
  }
}

int compare(const json::Value& base, const json::Value& next, double tolerance,
            bool all_counters) {
  std::vector<std::pair<std::string, Direction>> rows;
  for (const KeyMetric& m : kKeyMetrics) {
    const json::Value* section = base.find_path(m.section);
    if (section == nullptr || !section->is_object()) continue;
    rows.emplace_back(std::string(m.section) + "." + m.name, m.dir);
  }
  if (rows.empty()) {
    std::fprintf(stderr, "tcmpstat: the base document has no gated section "
                         "(run, counters or bench.<group>)\n");
    return 2;
  }
  int regressions = 0;
  std::printf("%-45s %14s %14s %9s  %s\n", "metric", "base", "new", "delta",
              "verdict");
  for (const auto& [path, dir] : rows) {
    bool bf = false, nf = false;
    const double bv = number_at(base, path, &bf);
    const double nv = number_at(next, path, &nf);
    if (!bf || !nf) {
      std::printf("%-45s %14s %14s %9s  MISSING\n", path.c_str(),
                  bf ? "ok" : "-", nf ? "ok" : "-", "");
      ++regressions;
      continue;
    }
    const double bad = badness(bv, nv, dir);
    const bool regressed = bad > tolerance;
    const double rel = bv == 0.0 ? 0.0 : 100.0 * (nv - bv) / std::fabs(bv);
    std::printf("%-45s %14.6g %14.6g %+8.2f%%  %s\n", path.c_str(), bv, nv,
                rel, regressed ? "REGRESSED" : "ok");
    if (regressed) ++regressions;
  }
  if (all_counters) {
    const json::Value* bc = base.find("counters");
    const json::Value* nc = next.find("counters");
    if (bc != nullptr && bc->is_object() && nc != nullptr) {
      for (const auto& [k, v] : bc->members) {
        const json::Value* nv = nc->find(k);
        if (!v.is_number() || nv == nullptr || !nv->is_number()) continue;
        if (v.number == nv->number) continue;
        std::printf("  counter %-32s %14.6g -> %-14.6g\n", k.c_str(), v.number,
                    nv->number);
      }
    }
  }
  if (regressions > 0) {
    std::printf("%d key metric(s) regressed beyond %.0f%% tolerance\n",
                regressions, 100.0 * tolerance);
    return 1;
  }
  std::printf("all key metrics within %.0f%% tolerance\n", 100.0 * tolerance);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "argument error: %s\n", args.error().c_str());
    return 2;
  }
  const std::set<std::string> known{"compare", "tolerance", "all", "help"};
  for (const auto& k : args.unknown_keys(known)) {
    std::fprintf(stderr, "unknown option --%s (see the header of tools/tcmpstat.cpp)\n",
                 k.c_str());
    return 2;
  }
  if (args.get_flag("help")) {
    std::printf("see the header comment of tools/tcmpstat.cpp for usage\n");
    return 0;
  }
  const double tolerance = args.get_double("tolerance", 0.2);
  // --compare BASE NEW: BASE is the option's value, NEW the positional.
  const std::string base_path = args.get("compare", "");
  if (!args.rejected().empty()) {
    std::fprintf(stderr, "%s\n", args.rejection().c_str());
    return 2;
  }
  if (tolerance < 0.0) {
    std::fprintf(stderr, "--tolerance must be >= 0\n");
    return 2;
  }

  if (args.has("compare")) {
    if (args.positional().size() != 1) {
      std::fprintf(stderr, "usage: tcmpstat --compare base.json new.json\n");
      return 2;
    }
    const std::vector<std::string> paths{base_path, args.positional()[0]};
    json::Value base, next;
    if (!load(paths[0], base) || !load(paths[1], next)) return 2;
    if (!validate(base, paths[0]) || !validate(next, paths[1])) return 2;
    return compare(base, next, tolerance, args.get_flag("all"));
  }

  if (args.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: tcmpstat run.json | tcmpstat --compare a.json b.json\n");
    return 2;
  }
  json::Value doc;
  if (!load(args.positional()[0], doc)) return 2;
  if (!validate(doc, args.positional()[0])) return 2;
  summarize(doc);
  return 0;
}

// tcmpsim — command-line driver: run any (workload, configuration) pair and
// print the result as text, CSV or JSON.
//
//   tcmpsim --app MP3D --config het --scheme dbrc --entries 4 --low 2
//   tcmpsim --app all --config baseline --format csv
//   tcmpsim --replay mytrace.txt --config cheng
//
// Options:
//   --app NAME|all        application model (Table 4 names), default MP3D
//   --config KIND         baseline | het | cheng        (default het)
//   --scheme KIND         dbrc | stride | perfect | none (default dbrc)
//   --entries N           DBRC entries (4/16/64, default 4)
//   --low N               low-order bytes (1/2, default 2)
//   --vl N                perfect-compression VL width (3/4/5, default 3)
//   --tiles N             16..256 tiles that fill the mesh
//                         CmpConfig::with_tiles picks: 16 (4x4), 32 (8x4),
//                         64 (8x8), 128 (16x8), 256 (16x16), ... (default 16)
//   --threads N           worker threads for the partitioned driver
//                         (default 1; see docs/partitioning.md)
//   --scale F             workload scale, finite and > 0 (default 1.0)
//   --reply-partitioning  enable the Reply Partitioning extension
//   --three-stage-router  use the 3-stage router pipeline
//   --format F            text | csv | json (default text)
//
// Long-workload throughput (docs/checkpointing.md):
//   --record FILE         capture the workload's op stream to a compact
//                         binary trace (.tct) as the run consumes it
//                         (requires --threads 1)
//   --replay FILE         run a trace instead of an application model;
//                         binary .tct files are detected by magic, anything
//                         else is parsed as the text trace format
//   --checkpoint-out FILE with --checkpoint-at N: run to cycle N, write a
//                         snapshot, then continue to completion
//   --checkpoint-at N     cycle at which --checkpoint-out snapshots (requires
//                         --checkpoint-out)
//   --checkpoint-in FILE  restore a snapshot (same config/workload/threads)
//                         and continue to completion
//   --sample SPEC         SMARTS interval sampling (requires --threads 1, no
//                         observer): SPEC = mode=interval,warmup=W,detail=D,
//                         period=P — detailed windows of D cycles after W
//                         warm cycles, separated by P functionally
//                         fast-forwarded instructions per core; metrics are
//                         extrapolated with a confidence bound
//
// Observability (docs/observability.md):
//   --trace-out FILE      write a Chrome trace-event JSON (load in Perfetto)
//   --timeseries-out FILE write per-window telemetry CSV
//   --metrics-out FILE    write the canonical versioned metrics JSON
//                         (cmp/metrics_export.hpp; tools/tcmpstat reads it)
//   --obs-level N         0=off 1=timeseries 2=trace (default: inferred from
//                         the output options above)
//   --sample-interval N   telemetry window length in cycles (default 10000)
//   --slack-report        print the slack/criticality distribution table
//                         (class x wire realized-slack; implies telemetry)
//   --self-profile        attribute host wall-time per driver section and
//                         kernel phase; prints the table, lands in metrics
//   --postmortem-out FILE arm the crash flight recorder: on a coherence-lint
//                         abort or a TCMP_CHECK failure, dump the recent
//                         per-tile message-lifecycle history to FILE
//
// Verification (docs/verification.md):
//   --verify-interval N   run the coherence lint every N cycles (each tick
//                         checks one of 8 rotating address stripes, so every
//                         line is checked within 8N cycles); a violation
//                         aborts the run with exit code 1
//
// With --app all, per-app output files get a ".<app>" suffix before the
// extension.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <fstream>
#include <iostream>

#include "cmp/metrics_export.hpp"
#include "cmp/report.hpp"
#include "cmp/sampling.hpp"
#include "cmp/system.hpp"
#include "common/args.hpp"
#include "common/node_set.hpp"
#include "obs/observer.hpp"
#include "sim/profiler.hpp"
#include "verify/lint.hpp"
#include "workloads/synthetic_app.hpp"
#include "workloads/trace_io.hpp"
#include "workloads/trace_workload.hpp"

using namespace tcmp;

namespace {

struct Options {
  std::string app = "MP3D";
  std::string config = "het";
  std::string scheme = "dbrc";
  unsigned entries = 4;
  unsigned low = 2;
  unsigned vl = 3;
  unsigned tiles = 16;
  unsigned threads = 1;
  double scale = 1.0;
  bool reply_partitioning = false;
  bool three_stage_router = false;
  std::string format = "text";
  std::string record;
  std::string replay;
  std::string checkpoint_out;
  std::string checkpoint_in;
  long checkpoint_at = 0;
  std::string sample;
  std::string trace_out;
  std::string timeseries_out;
  std::string metrics_out;
  std::string postmortem_out;
  bool slack_report = false;
  bool self_profile = false;
  long obs_level = -1;  ///< -1 = infer from the output options
  long sample_interval = 10'000;
  long verify_interval = 0;  ///< 0 = coherence lint off
};

/// "out.json" -> "out.MP3D.json" when several apps share one run.
std::string suffixed(const std::string& path, const std::string& app,
                     bool multi) {
  if (!multi || path.empty()) return path;
  const auto dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + app;
  }
  return path.substr(0, dot) + "." + app + path.substr(dot);
}

obs::ObsConfig make_obs_config(const Options& o, const std::string& app,
                               bool multi) {
  obs::ObsConfig oc;
  if (o.obs_level >= 0) {
    oc.level = static_cast<obs::Level>(o.obs_level);
  } else if (!o.trace_out.empty()) {
    oc.level = obs::Level::kTrace;
  } else {
    oc.level = obs::Level::kTimeseries;
  }
  oc.sample_interval = static_cast<Cycle>(o.sample_interval);
  oc.trace_path = suffixed(o.trace_out, app, multi);
  oc.timeseries_path = suffixed(o.timeseries_out, app, multi);
  return oc;
}

compression::SchemeConfig make_scheme(const Options& o) {
  if (o.scheme == "dbrc") return compression::SchemeConfig::dbrc(o.entries, o.low);
  if (o.scheme == "stride") return compression::SchemeConfig::stride(o.low);
  if (o.scheme == "perfect") return compression::SchemeConfig::perfect(o.vl);
  if (o.scheme == "none") return compression::SchemeConfig::none();
  std::fprintf(stderr, "unknown --scheme '%s'\n", o.scheme.c_str());
  std::exit(2);
}

cmp::CmpConfig make_config(const Options& o) {
  cmp::CmpConfig cfg;
  if (o.config == "baseline") {
    cfg = cmp::CmpConfig::baseline();
  } else if (o.config == "het") {
    cfg = cmp::CmpConfig::heterogeneous(make_scheme(o));
  } else if (o.config == "cheng") {
    cfg = cmp::CmpConfig::cheng3way();
  } else {
    std::fprintf(stderr, "unknown --config '%s'\n", o.config.c_str());
    std::exit(2);
  }
  cfg.with_tiles(o.tiles);
  cfg.threads = o.threads;
  cfg.reply_partitioning = o.reply_partitioning;
  cfg.single_cycle_router = !o.three_stage_router;
  return cfg;
}

void emit(const Options& o, const cmp::RunResult& r, bool header) {
  if (o.format == "csv") {
    if (header) {
      std::printf("workload,configuration,cycles,instructions,remote_msgs,"
                  "coverage,crit_latency,link_energy_j,interconnect_energy_j,"
                  "total_energy_j,link_ed2p,full_ed2p\n");
    }
    std::printf("%s,\"%s\",%llu,%llu,%llu,%.4f,%.2f,%.6g,%.6g,%.6g,%.6g,%.6g\n",
                r.workload.c_str(), r.configuration.c_str(),
                static_cast<unsigned long long>(r.cycles.value()),
                static_cast<unsigned long long>(r.instructions),
                static_cast<unsigned long long>(r.remote_messages),
                r.compression_coverage, r.avg_critical_latency,
                r.link_energy().value(), r.interconnect_energy().value(),
                r.total_energy().value(), r.link_ed2p(), r.full_cmp_ed2p());
    return;
  }
  if (o.format == "json") {
    std::printf("{\"workload\":\"%s\",\"configuration\":\"%s\",\"cycles\":%llu,"
                "\"instructions\":%llu,\"remote_messages\":%llu,"
                "\"coverage\":%.4f,\"critical_latency\":%.2f,"
                "\"link_energy_j\":%.6g,\"interconnect_energy_j\":%.6g,"
                "\"total_energy_j\":%.6g,\"link_ed2p\":%.6g,\"full_ed2p\":%.6g}\n",
                r.workload.c_str(), r.configuration.c_str(),
                static_cast<unsigned long long>(r.cycles.value()),
                static_cast<unsigned long long>(r.instructions),
                static_cast<unsigned long long>(r.remote_messages),
                r.compression_coverage, r.avg_critical_latency,
                r.link_energy().value(), r.interconnect_energy().value(),
                r.total_energy().value(), r.link_ed2p(), r.full_cmp_ed2p());
    return;
  }
  std::printf("%-14s %-40s cycles=%-9llu coverage=%5.1f%% critlat=%5.1f "
              "icE=%.3gJ linkED2P=%.4g\n",
              r.workload.c_str(), r.configuration.c_str(),
              static_cast<unsigned long long>(r.cycles.value()),
              100.0 * r.compression_coverage, r.avg_critical_latency,
              r.interconnect_energy().value(), r.link_ed2p());
}

/// Text-mode network-latency quantile table (per message class and
/// queue/router/wire breakdown).
void emit_latency_table(const cmp::RunResult& r) {
  if (r.latency.empty()) return;
  std::printf("  %-22s %10s %8s %8s %8s %10s\n", "latency [cycles]", "mean",
              "p50", "p95", "p99", "count");
  for (const auto& [name, q] : r.latency) {
    std::printf("  %-22s %10.2f %8.1f %8.1f %8.1f %10llu\n", name.c_str(),
                q.mean, q.p50, q.p95, q.p99,
                static_cast<unsigned long long>(q.count));
  }
}

/// True for a tile count CmpConfig::with_tiles lays out exactly (width x
/// height == tiles) within the directory's full-map sharer limit. Checked
/// before with_tiles runs: its mesh-height loop never ends for counts near
/// 2^32.
bool tiles_fill_the_mesh(long tiles) {
  if (tiles < 16 || tiles > static_cast<long>(NodeSet::kMaxNodes)) return false;
  cmp::CmpConfig cfg;
  cfg.with_tiles(static_cast<unsigned>(tiles));
  return cfg.mesh_width * cfg.mesh_height == cfg.n_tiles;
}

bool known_app(const std::string& name) {
  for (const auto& a : workloads::all_apps()) {
    if (a.name == name) return true;
  }
  return false;
}

/// A .tct file is recognized by magic, not extension, so replaying a
/// renamed trace still works.
bool is_binary_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof workloads::kTraceMagic] = {};
  in.read(magic, sizeof magic);
  return in.good() && std::equal(std::begin(magic), std::end(magic),
                                 std::begin(workloads::kTraceMagic));
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "argument error: %s\n", args.error().c_str());
    return 2;
  }
  const std::set<std::string> known{
      "app",   "config",             "scheme",             "entries",
      "low",   "vl",    "tiles",  "threads",  "scale",              "format",
      "help",  "reply-partitioning",          "three-stage-router",
      "trace-out", "timeseries-out", "obs-level", "sample-interval",
      "verify-interval", "metrics-out", "postmortem-out", "slack-report",
      "self-profile", "record", "replay", "checkpoint-out", "checkpoint-at",
      "checkpoint-in", "sample"};
  for (const auto& k : args.unknown_keys(known)) {
    std::fprintf(stderr, "unknown option --%s (see the header of tools/tcmpsim.cpp)\n",
                 k.c_str());
    return 2;
  }
  if (args.get_flag("help")) {
    std::printf("see the header comment of tools/tcmpsim.cpp for usage\n");
    return 0;
  }

  Options o;
  o.app = args.get("app", o.app);
  o.config = args.get("config", o.config);
  o.scheme = args.get("scheme", o.scheme);
  o.scale = args.get_double("scale", o.scale);
  // Integer values are range-checked as read, before any narrowing cast:
  // a negative --tiles would wrap to 2^32 - 1 tiles.
  const long entries = args.get_long("entries", o.entries);
  const long low = args.get_long("low", o.low);
  const long vl = args.get_long("vl", o.vl);
  const long tiles = args.get_long("tiles", o.tiles);
  const long threads = args.get_long("threads", o.threads);
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }
  if (!tiles_fill_the_mesh(tiles)) {
    std::fprintf(stderr,
                 "--tiles %ld: must be 16..%u tiles that fill the mesh "
                 "CmpConfig::with_tiles picks (16, 32, 64, 128, 256, ...)\n",
                 tiles, NodeSet::kMaxNodes);
    return 2;
  }
  if (!std::isfinite(o.scale) || o.scale <= 0) {
    std::fprintf(stderr, "--scale must be a finite number > 0\n");
    return 2;
  }
  if (entries < 1 || entries > 256) {
    std::fprintf(stderr, "--entries must be 1..256\n");
    return 2;
  }
  if (low != 1 && low != 2) {
    std::fprintf(stderr, "--low must be 1 or 2\n");
    return 2;
  }
  if (vl < 3 || vl > 5) {
    std::fprintf(stderr, "--vl must be 3..5\n");
    return 2;
  }
  o.entries = static_cast<unsigned>(entries);
  o.low = static_cast<unsigned>(low);
  o.vl = static_cast<unsigned>(vl);
  o.tiles = static_cast<unsigned>(tiles);
  o.threads = static_cast<unsigned>(threads);
  o.reply_partitioning = args.get_flag("reply-partitioning");
  o.three_stage_router = args.get_flag("three-stage-router");
  o.format = args.get("format", o.format);
  o.record = args.get("record", o.record);
  o.replay = args.get("replay", o.replay);
  o.checkpoint_out = args.get("checkpoint-out", o.checkpoint_out);
  o.checkpoint_in = args.get("checkpoint-in", o.checkpoint_in);
  o.checkpoint_at = args.get_long("checkpoint-at", o.checkpoint_at);
  o.sample = args.get("sample", o.sample);
  o.trace_out = args.get("trace-out", o.trace_out);
  o.timeseries_out = args.get("timeseries-out", o.timeseries_out);
  o.metrics_out = args.get("metrics-out", o.metrics_out);
  o.postmortem_out = args.get("postmortem-out", o.postmortem_out);
  o.slack_report = args.get_flag("slack-report");
  o.self_profile = args.get_flag("self-profile");
  o.obs_level = args.get_long("obs-level", o.obs_level);
  o.sample_interval = args.get_long("sample-interval", o.sample_interval);
  o.verify_interval = args.get_long("verify-interval", o.verify_interval);
  if (o.verify_interval < 0) {
    std::fprintf(stderr, "--verify-interval must be >= 0\n");
    return 2;
  }
  if (o.obs_level > 2 || o.sample_interval < 1) {
    std::fprintf(stderr, "--obs-level must be 0..2, --sample-interval >= 1\n");
    return 2;
  }
  // An explicit --obs-level below what an output file needs would silently
  // produce no file; reject the contradiction instead.
  if (o.obs_level >= 0 && !o.trace_out.empty() && o.obs_level < 2) {
    std::fprintf(stderr, "--trace-out requires --obs-level 2 (got %ld)\n",
                 o.obs_level);
    return 2;
  }
  if (o.obs_level == 0 && !o.timeseries_out.empty()) {
    std::fprintf(stderr, "--timeseries-out requires --obs-level >= 1\n");
    return 2;
  }

  if (!o.record.empty() && o.threads != 1) {
    std::fprintf(stderr, "--record requires --threads 1\n");
    return 2;
  }
  if (!o.checkpoint_out.empty() && o.checkpoint_at <= 0) {
    std::fprintf(stderr, "--checkpoint-out requires --checkpoint-at N (> 0)\n");
    return 2;
  }
  if (args.has("checkpoint-at") && o.checkpoint_out.empty()) {
    std::fprintf(stderr, "--checkpoint-at requires --checkpoint-out FILE\n");
    return 2;
  }
  if (o.format != "text" && o.format != "csv" && o.format != "json") {
    std::fprintf(stderr, "unknown --format '%s' (text, csv or json)\n",
                 o.format.c_str());
    return 2;
  }
  if (o.config == "het" && o.scheme == "none") {
    std::fprintf(stderr, "--config het needs a compression --scheme\n");
    return 2;
  }
  if (!o.replay.empty() && !std::ifstream(o.replay)) {
    std::fprintf(stderr, "cannot open --replay file %s\n", o.replay.c_str());
    return 2;
  }
  if (o.replay.empty() && o.app != "all" && !known_app(o.app)) {
    std::fprintf(stderr, "unknown --app '%s' (one of:", o.app.c_str());
    for (const auto& a : workloads::all_apps()) std::fprintf(stderr, " %s", a.name.c_str());
    std::fprintf(stderr, ", or all)\n");
    return 2;
  }
  if (!o.record.empty() &&
      (!o.checkpoint_out.empty() || !o.checkpoint_in.empty())) {
    std::fprintf(stderr,
                 "--record does not compose with checkpointing (the recorder "
                 "has no snapshot of its output file)\n");
    return 2;
  }
  if (!o.sample.empty()) {
    if (o.threads != 1) {
      std::fprintf(stderr, "--sample requires --threads 1\n");
      return 2;
    }
    if (!o.trace_out.empty() || !o.timeseries_out.empty() || o.obs_level > 0 ||
        o.slack_report || o.self_profile) {
      std::fprintf(stderr,
                   "--sample does not support observers "
                   "(--trace-out/--timeseries-out/--obs-level/--slack-report/"
                   "--self-profile)\n");
      return 2;
    }
    if (!o.checkpoint_out.empty()) {
      std::fprintf(stderr, "--sample cannot write checkpoints\n");
      return 2;
    }
  }

  const cmp::CmpConfig cfg = make_config(o);

  std::vector<std::string> apps;
  if (!o.replay.empty()) {
    apps.push_back(o.replay);
  } else if (o.app == "all") {
    for (const auto& a : workloads::all_apps()) apps.push_back(a.name);
  } else {
    apps.push_back(o.app);
  }

  // Observers (tracing, time series) are a single-threaded feature; the
  // partitioned driver supports only the sharded slack telemetry and the
  // coherence lint (docs/partitioning.md).
  if (o.threads > 1 && (!o.trace_out.empty() || !o.timeseries_out.empty() ||
                        o.obs_level > 0 || o.self_profile)) {
    std::fprintf(stderr,
                 "--trace-out/--timeseries-out/--obs-level/--self-profile "
                 "require --threads 1\n");
    return 2;
  }
  const bool want_obs = o.threads == 1 &&
                        (!o.trace_out.empty() || !o.timeseries_out.empty() ||
                         o.obs_level > 0);
  bool first = true;
  for (const auto& name : apps) {
    std::shared_ptr<core::Workload> workload;
    if (!o.replay.empty() && is_binary_trace(name)) {
      auto bin = std::make_shared<workloads::BinaryTraceWorkload>(name);
      if (bin->n_cores() != cfg.n_tiles) {
        std::fprintf(stderr, "%s: trace was recorded for %u cores, not %u\n",
                     name.c_str(), bin->n_cores(), cfg.n_tiles);
        return 2;
      }
      workload = std::move(bin);
    } else if (!o.replay.empty()) {
      workload = workloads::TraceWorkload::from_file(name, cfg.n_tiles);
    } else {
      workload = std::make_shared<workloads::SyntheticApp>(
          workloads::app(name).scaled(o.scale), cfg.n_tiles);
    }
    std::shared_ptr<workloads::RecordingWorkload> recorder;
    if (!o.record.empty()) {
      recorder = std::make_shared<workloads::RecordingWorkload>(
          std::move(workload), suffixed(o.record, name, apps.size() > 1),
          cfg.n_tiles);
      workload = recorder;
    }
    cmp::CmpSystem system(cfg, std::move(workload));
    if (!o.checkpoint_in.empty()) {
      std::ifstream cp(o.checkpoint_in, std::ios::binary);
      if (!cp) {
        std::fprintf(stderr, "cannot open checkpoint %s\n",
                     o.checkpoint_in.c_str());
        return 1;
      }
      system.load_checkpoint(cp);
    }
    std::unique_ptr<obs::Observer> observer;
    if (want_obs) {
      observer = std::make_unique<obs::Observer>(
          make_obs_config(o, name, apps.size() > 1), &system.stats());
      system.attach_observer(observer.get());
    }
    if (o.slack_report) system.enable_slack_telemetry();
    if (!o.postmortem_out.empty()) {
      system.set_postmortem_path(
          suffixed(o.postmortem_out, name, apps.size() > 1));
    }
    std::unique_ptr<sim::SelfProfiler> profiler;
    if (o.self_profile) {
      profiler = std::make_unique<sim::SelfProfiler>();
      system.set_profiler(profiler.get());
    }
    std::unique_ptr<verify::CoherenceLinter> linter;
    if (o.verify_interval > 0) {
      linter = std::make_unique<verify::CoherenceLinter>(&system,
                                                         observer.get());
      // scan_slice rotates over address stripes: full coverage every
      // CoherenceLinter::kStripes ticks at a fraction of a full scan's cost.
      system.set_periodic_check(
          Cycle{static_cast<std::uint64_t>(o.verify_interval)}, [&linter](Cycle now) {
            const auto violations = linter->scan_slice(now);
            for (const auto& v : violations) {
              std::fprintf(stderr,
                           "coherence lint @ cycle %llu: [%s] line 0x%llx %s\n",
                           static_cast<unsigned long long>(v.cycle.value()),
                           v.invariant.c_str(),
                           static_cast<unsigned long long>(v.line.value()),
                           v.detail.c_str());
            }
            return violations.empty();
          });
    }
    std::unique_ptr<cmp::SampledRun> sampled;
    bool completed;
    if (!o.sample.empty()) {
      sampled = std::make_unique<cmp::SampledRun>(
          system, cmp::SamplingConfig::parse(o.sample));
      completed = sampled->run();
    } else {
      if (!o.checkpoint_out.empty()) {
        system.run(Cycle{static_cast<std::uint64_t>(o.checkpoint_at)});
        if (!system.aborted()) {
          const std::string path =
              suffixed(o.checkpoint_out, name, apps.size() > 1);
          std::ofstream cp(path, std::ios::binary);
          if (cp) system.save_checkpoint(cp);
          if (!cp || !cp.good()) {
            std::fprintf(stderr, "%s: could not write checkpoint to %s\n",
                         name.c_str(), path.c_str());
            return 1;
          }
          std::fprintf(stderr, "%s: checkpoint at cycle %llu written to %s\n",
                       name.c_str(),
                       static_cast<unsigned long long>(
                           system.total_cycles().value()),
                       path.c_str());
        }
      }
      completed = system.run();
    }
    if (recorder) recorder->finish();
    if (!completed) {
      if (system.aborted()) {
        std::fprintf(stderr,
                     "%s: aborted by the coherence lint (%llu violations in "
                     "%llu scans)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(linter->violations()),
                     static_cast<unsigned long long>(linter->scans()));
      } else {
        std::fprintf(stderr, "%s: simulation did not finish\n", name.c_str());
      }
      // Crash-path observability: the lint abort is a clean return (not a
      // TCMP_CHECK), so the abort hooks never fire — flush the partial
      // trace/time-series output and the flight-recorder post-mortem here.
      if (observer) observer->finalize_to_files(system.total_cycles());
      if (system.dump_postmortem()) {
        std::fprintf(stderr, "%s: flight-recorder post-mortem written to %s\n",
                     name.c_str(), system.postmortem_path().c_str());
      }
      return 1;
    }
    if (observer && !observer->finalize_to_files(system.total_cycles())) {
      std::fprintf(stderr, "%s: could not write observability output\n",
                   name.c_str());
      return 1;
    }
    system.finalize_slack();
    if (recorder) {
      std::fprintf(stderr, "%s: recorded %llu events to %s\n", name.c_str(),
                   static_cast<unsigned long long>(recorder->events_recorded()),
                   suffixed(o.record, name, apps.size() > 1).c_str());
    }
    cmp::RunResult r =
        sampled ? cmp::make_sampled_result(system, *sampled)
                : cmp::make_result(system);
    r.workload = name;
    emit(o, r, first);
    if (o.format == "text") emit_latency_table(r);
    if (sampled && o.format == "text") {
      const cmp::SamplingResult& s = sampled->result();
      std::printf("  sampled: %llu windows, %llu detailed cycles, CPI %.4f "
                  "(window mean %.4f +/- %.4f @95%%), extrapolation x%.1f, "
                  "estimated cycles %llu\n",
                  static_cast<unsigned long long>(s.windows),
                  static_cast<unsigned long long>(s.detailed_cycles.value()),
                  s.cpi, s.cpi_window_mean, s.cpi_ci95, s.extrapolation,
                  static_cast<unsigned long long>(s.estimated_cycles.value()));
    }
    if (o.slack_report) {
      system.write_slack_table(std::cout);
    }
    if (o.self_profile) {
      system.write_self_profile(std::cout);
    }
    if (!o.metrics_out.empty()) {
      const std::string path = suffixed(o.metrics_out, name, apps.size() > 1);
      std::ofstream out(path);
      StatRegistry scaled;
      if (sampled) scaled = sampled->scaled_stats();
      if (out) {
        cmp::write_metrics_json(out, r, system, profiler.get(),
                                sampled ? &sampled->result() : nullptr,
                                sampled ? &scaled : nullptr);
      }
      if (!out || !out.good()) {
        std::fprintf(stderr, "%s: could not write metrics to %s\n",
                     name.c_str(), path.c_str());
        return 1;
      }
    }
    first = false;
  }
  return 0;
}

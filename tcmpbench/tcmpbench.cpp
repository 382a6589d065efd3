// tcmpbench — host-time benchmark of the simulator.
//
// One invocation runs one repetition of one workload and prints one JSON
// line of raw measurements. tcmpbench/run.py builds this binary, starts each
// repetition in a fresh process (so peak RSS covers one repetition), takes
// medians and applies the cross-repetition checks; see README.md.
//
//   tcmpbench --workload mp3d-16 --seed 1            timed repetition
//   tcmpbench --workload mp3d-16 --seed 1 --traced   per-layer pass
//
// Options:
//   --workload NAME  mp3d-16 | water-16-base | radix-256-k4 | fig6-sweep
//   --seed S         AppParams::seed = default + 1000 * (S - 1) for every
//                    application (seed 1 = the paper-configuration runs)
//   --traced         attach the self-profiler, capture and replay remote
//                    messages, and print the per-layer metrics instead
//   --setup-only     only construct the workload's systems and print setup_s
//   --smoke          scale every workload by 0.02 and run the 256-tile
//                    workload as 64 tiles on 2 partitions
//   --trace-out F    write the harness spans as Chrome trace JSON
//
// The program under test only receives the generated AppParams and
// CmpConfig; every timing is taken here, around calls into public APIs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cmp/report.hpp"
#include "cmp/system.hpp"
#include "common/args.hpp"
#include "common/parallel.hpp"
#include "compression/scheme.hpp"
#include "layers.hpp"
#include "replay.hpp"
#include "sim/profiler.hpp"
#include "workloads/app_params.hpp"
#include "workloads/synthetic_app.hpp"

namespace {

using tcmp::cmp::CmpConfig;
using tcmp::cmp::CmpSystem;
using tcmp::compression::SchemeConfig;
using Clock = std::chrono::steady_clock;

/// Column of DBRC-4/2B in a sweep group (0 is the baseline).
constexpr std::size_t kDbrc42Column = 2;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- JSON output -----------------------------------------------------------

std::string quote(std::string_view s) {
  std::string q = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    q += c;
  }
  return q + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (const std::string& item : items) {
    if (out.size() > 1) out += ',';
    out += item;
  }
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) { return raw(key, number(v)); }
  JsonObject& num(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) { return raw(key, quote(v)); }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "\"" : ",\"";
    body_.append(key).append("\":").append(json);
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- Spans -----------------------------------------------------------------

/// Harness spans: kept in memory, written as Chrome trace JSON at exit.
class Spans {
 public:
  int begin(std::string name, int parent, unsigned run) {
    spans_.push_back(Span{std::move(name), now_us(), 0.0, parent, run, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Close span `id`; returns its duration in seconds.
  double end(int id, std::vector<std::pair<std::string, double>> args = {}) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now_us();
    s.args = std::move(args);
    return (s.end_us - s.start_us) * 1e-6;
  }
  void write_chrome(std::ostream& out) const {
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject args;
      args.num("id", static_cast<std::uint64_t>(i))
          .raw("parent", std::to_string(s.parent))
          .num("run", std::uint64_t{s.run});
      for (const auto& [k, v] : s.args) args.num(k, v);
      out << (i == 0 ? "" : ",\n")
          << JsonObject()
                 .str("name", s.name)
                 .str("cat", "tcmpbench")
                 .str("ph", "X")
                 .num("pid", std::uint64_t{1})
                 .num("tid", std::uint64_t{s.run})
                 .num("ts", s.start_us)
                 .num("dur", s.end_us - s.start_us)
                 .raw("args", args.text())
                 .text();
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    unsigned run = 0;
    std::vector<std::pair<std::string, double>> args;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// --- Workloads -------------------------------------------------------------

struct RunSpec {
  tcmp::workloads::AppParams app;  ///< scaled and seeded
  CmpConfig cfg;
};

struct WorkloadDef {
  std::vector<RunSpec> runs;
  unsigned jobs = 1;  ///< parallel_sweep workers (several runs only)
  [[nodiscard]] bool sweep() const { return runs.size() > 1; }
};

tcmp::workloads::AppParams app_for(const tcmp::workloads::AppParams& base,
                                   double scale, long seed) {
  tcmp::workloads::AppParams p = base.scaled(scale);
  p.seed += 1000 * static_cast<std::uint64_t>(seed - 1);
  return p;
}

/// The Fig. 6 configurations: baseline, the six schemes, the three
/// perfect-compression potentials. Owned here, not shared with the figure
/// benches, so the benchmark's inputs cannot change under a later commit.
std::vector<CmpConfig> fig6_configs() {
  std::vector<CmpConfig> cfgs{CmpConfig::baseline()};
  for (const SchemeConfig& s :
       {SchemeConfig::stride(2), SchemeConfig::dbrc(4, 2), SchemeConfig::dbrc(16, 1),
        SchemeConfig::dbrc(16, 2), SchemeConfig::dbrc(64, 1), SchemeConfig::dbrc(64, 2),
        SchemeConfig::perfect(3), SchemeConfig::perfect(4), SchemeConfig::perfect(5)}) {
    cfgs.push_back(CmpConfig::heterogeneous(s));
  }
  return cfgs;
}

std::optional<WorkloadDef> make_workload(const std::string& name, long seed, bool smoke) {
  using tcmp::workloads::app;
  const double f = smoke ? 0.02 : 1.0;
  const CmpConfig het = CmpConfig::heterogeneous(SchemeConfig::dbrc(4, 2));
  WorkloadDef w;
  if (name == "mp3d-16") {
    w.runs.push_back({app_for(app("MP3D"), 0.3 * f, seed), het});
  } else if (name == "water-16-base") {
    w.runs.push_back({app_for(app("Water-nsq"), 2.5 * f, seed), CmpConfig::baseline()});
  } else if (name == "radix-256-k4") {
    CmpConfig cfg = het;
    cfg.with_tiles(smoke ? 64 : 256);
    cfg.threads = smoke ? 2 : 4;
    w.runs.push_back({app_for(app("Radix"), 0.04 * f, seed), cfg});
  } else if (name == "fig6-sweep") {
    const auto cfgs = fig6_configs();
    for (const auto& a : tcmp::workloads::all_apps()) {
      for (const CmpConfig& cfg : cfgs) w.runs.push_back({app_for(a, 0.015 * f, seed), cfg});
    }
    w.jobs = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

// --- One simulation --------------------------------------------------------

struct Built {
  std::shared_ptr<tcmp::workloads::SyntheticApp> app;
  std::unique_ptr<CmpSystem> sys;
  double workload_s = 0.0;
  double cmp_s = 0.0;
};

Built build(const RunSpec& spec) {
  Built b;
  const auto t0 = Clock::now();
  b.app = std::make_shared<tcmp::workloads::SyntheticApp>(spec.app, spec.cfg.n_tiles);
  const auto t1 = Clock::now();
  b.sys = std::make_unique<CmpSystem>(spec.cfg, b.app);
  b.workload_s = seconds_between(t0, t1);
  b.cmp_s = seconds_between(t1, Clock::now());
  return b;
}

/// Simulated outputs of one run, plus its host times.
struct RunOut {
  bool finished = false;
  std::uint64_t cycles = 0;        ///< measured
  std::uint64_t total_cycles = 0;  ///< including warmup
  std::uint64_t instructions = 0;
  std::uint64_t remote_msgs = 0;
  double coverage = 0.0;
  double link_ed2p = 0.0;
  double full_ed2p = 0.0;
  std::uint64_t digest = 0;  ///< FNV-1a over every merged counter
  double run_s = 0.0;        ///< CmpSystem::run()
  double task_s = 0.0;       ///< construction + run + report
};

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

RunOut summarize(const CmpSystem& sys, const tcmp::cmp::RunResult& r, bool finished) {
  RunOut o;
  o.finished = finished;
  o.cycles = r.cycles.value();
  o.total_cycles = sys.total_cycles().value();
  o.instructions = r.instructions;
  o.remote_msgs = r.remote_messages;
  o.coverage = r.compression_coverage;
  o.link_ed2p = r.link_ed2p();
  o.full_ed2p = r.full_cmp_ed2p();
  std::uint64_t h = kFnvOffset;
  for (const auto& [name, value] : sys.merged_stats().counters()) {
    h = fnv1a(fnv1a(h, name), std::to_string(value));
  }
  o.digest = fnv1a(h, std::to_string(o.total_cycles));
  return o;
}

/// Build, run and harvest one simulation without instrumentation.
RunOut run_plain(const RunSpec& spec) {
  const auto t0 = Clock::now();
  Built b = build(spec);
  const auto t1 = Clock::now();
  const bool finished = b.sys->run();
  const auto t2 = Clock::now();
  RunOut o = summarize(*b.sys, tcmp::cmp::make_result(*b.sys), finished);
  o.run_s = seconds_between(t1, t2);
  o.task_s = seconds_between(t0, Clock::now());
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The simulated outputs run.py checks: against the committed seed-1 values
/// and across repetitions.
std::string outputs_json(const WorkloadDef& w, const std::vector<RunOut>& outs) {
  JsonObject j;
  std::uint64_t cycles = 0, instructions = 0, remote = 0, digest = kFnvOffset;
  for (const RunOut& o : outs) {
    cycles += o.cycles;
    instructions += o.instructions;
    remote += o.remote_msgs;
    digest = fnv1a(digest, hex(o.digest));
  }
  j.num("sim_cycles", cycles).num("instructions", instructions).num("remote_msgs", remote);
  if (!w.sweep()) {
    j.num("coverage", outs[0].coverage).num("link_ed2p", outs[0].link_ed2p);
  } else {
    // Fig. 6 top / bottom and Fig. 7 AVERAGE rows for DBRC-4/2B.
    const std::size_t n_cfg = fig6_configs().size();
    const std::size_t n_apps = outs.size() / n_cfg;
    double exec = 0.0, link = 0.0, full = 0.0;
    for (std::size_t a = 0; a < n_apps; ++a) {
      const RunOut& base = outs[a * n_cfg];
      const RunOut& r = outs[a * n_cfg + kDbrc42Column];
      exec += static_cast<double>(r.cycles) / static_cast<double>(base.cycles);
      link += r.link_ed2p / base.link_ed2p;
      full += r.full_ed2p / base.full_ed2p;
    }
    const auto n = static_cast<double>(n_apps);
    j.num("exec_norm", exec / n).num("link_ed2p_norm", link / n).num("full_ed2p_norm", full / n);
  }
  j.str("digest", hex(digest));
  return j.text();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// --- Timed repetition --------------------------------------------------------

/// Construct every run of `w` once (workload, then system), keeping the last
/// system built. In a fresh process this is the set-up a user pays per
/// invocation, page faults and allocator growth included.
double setup_pass(const WorkloadDef& w, Built& last) {
  double sum = 0.0;
  for (const RunSpec& spec : w.runs) {
    last = Built{};  // one system alive at a time
    last = build(spec);
    sum += last.workload_s + last.cmp_s;
  }
  return sum;
}

std::string setup_rep(const WorkloadDef& w) {
  Built last;
  return JsonObject().str("mode", "setup").num("setup_s", setup_pass(w, last)).text();
}

std::string timed_rep(const WorkloadDef& w) {
  Built b;
  const double setup = setup_pass(w, b);
  std::vector<RunOut> outs;
  double wall = 0.0;
  if (!w.sweep()) {
    const auto t0 = Clock::now();
    const bool finished = b.sys->run();
    wall = seconds_between(t0, Clock::now());
    outs.push_back(summarize(*b.sys, tcmp::cmp::make_result(*b.sys), finished));
  } else {
    b = Built{};
    const auto t0 = Clock::now();
    outs = tcmp::parallel_sweep(w.runs.size(), w.jobs,
                                [&](std::size_t i) { return run_plain(w.runs[i]); });
    wall = seconds_between(t0, Clock::now());
  }

  std::uint64_t total_cycles = 0, failed = 0;
  for (const RunOut& o : outs) {
    total_cycles += o.total_cycles;
    if (!o.finished) ++failed;
  }
  return JsonObject()
      .str("mode", "timed")
      .num("runs", static_cast<std::uint64_t>(outs.size()))
      .num("failed", failed)
      .num("wall_s", wall)
      .num("sim_kcps", static_cast<double>(total_cycles) / wall / 1e3)
      .num("setup_s", setup)
      .num("peak_rss_mb", peak_rss_mib())
      .raw("outputs", outputs_json(w, outs))
      .text();
}

// --- Traced pass -----------------------------------------------------------

struct TracedOut {
  RunOut out;
  std::vector<std::string> failures;  ///< failed checks, one line each
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// One profiled, captured and replayed run at threads == 1.
TracedOut traced_run(const RunSpec& spec, unsigned run, Spans& spans,
                     tcmpbench::LayerTotals& totals) {
  RunSpec serial = spec;
  serial.cfg.threads = 1;
  const std::string label = spec.app.name + " / " + serial.cfg.name();
  const int top = spans.begin("run " + label, -1, run);

  int s = spans.begin("workload.build", top, run);
  auto app = std::make_shared<tcmp::workloads::SyntheticApp>(serial.app, serial.cfg.n_tiles);
  totals.workload_build_s += spans.end(s);
  s = spans.begin("cmp.build", top, run);
  CmpSystem sys(serial.cfg, app);
  totals.cmp_build_s += spans.end(s);

  tcmp::sim::SelfProfiler prof;
  sys.set_profiler(&prof);
  std::vector<tcmpbench::CapturedMsg> msgs;
  tcmpbench::capture_remote_messages(sys, msgs);
  s = spans.begin("cmp.run", top, run);
  const bool finished = sys.run();
  const double run_s = spans.end(s);
  s = spans.begin("cmp.report", top, run);
  const tcmp::cmp::RunResult result = tcmp::cmp::make_result(sys);
  totals.report_s += spans.end(s);

  TracedOut t;
  t.out = summarize(sys, result, finished);
  t.out.run_s = run_s;
  totals.add_run(sys, prof);

  s = spans.begin("replay.noc", top, run);
  const tcmpbench::NocReplay noc = tcmpbench::replay_noc(sys, msgs);
  spans.end(s, {{"send_calls", static_cast<double>(noc.send.calls)},
                {"send_ns", static_cast<double>(noc.send.nanos)},
                {"tick_calls", static_cast<double>(noc.tick.calls)},
                {"tick_ns", static_cast<double>(noc.tick.nanos)},
                {"receive_calls", static_cast<double>(noc.receive.calls)},
                {"receive_ns", static_cast<double>(noc.receive.nanos)}});
  s = spans.begin("replay.compression", top, run);
  const tcmpbench::CompressionReplay comp = tcmpbench::replay_compression(serial.cfg, msgs);
  spans.end(s, {{"msgs", static_cast<double>(comp.msgs.calls)},
                {"ns", static_cast<double>(comp.msgs.nanos)}});
  totals.add_replays(noc, comp);

  // Standalone drain of the op generator over every core.
  s = spans.begin("workload.drain", top, run);
  tcmp::workloads::SyntheticApp fresh(serial.app, serial.cfg.n_tiles);
  const auto t0 = Clock::now();
  std::uint64_t ops = 0;
  for (unsigned c = 0; c < serial.cfg.n_tiles; ++c) {
    while (fresh.next(c).kind != tcmp::core::OpKind::kDone) ++ops;
  }
  totals.workload_next.nanos += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
  totals.workload_next.calls += ops;
  spans.end(s, {{"ops", static_cast<double>(ops)}});
  spans.end(top);

  const tcmp::StatRegistry& stats = sys.merged_stats();
  t.check(finished, label + ": traced run did not finish");
  t.check(prof.attribution_fraction() >= 0.95, label + ": profiler attribution below 95%");
  for (const auto& [name, value] : noc.counters) {
    const std::uint64_t run_value = stats.counter_value(name);
    t.check(value == run_value, label + ": replay " + name + " " + std::to_string(value) +
                                    " != run " + std::to_string(run_value));
  }
  t.check(comp.mismatches == 0, label + ": bare decompression mismatch");
  const std::uint64_t compressed = stats.counter_value("compression.compressed");
  t.check(comp.compressed == compressed,
          label + ": bare compressor compressed " + std::to_string(comp.compressed) +
              " != run " + std::to_string(compressed));
  return t;
}

std::string traced_pass(const WorkloadDef& w, Spans& spans) {
  tcmpbench::LayerTotals totals;
  tcmpbench::ReferenceTimes ref;
  std::vector<std::string> failures;  // quoted, for the JSON line
  std::uint64_t failed_runs = 0;

  // Untraced references first: the workload at its own parallelism, then
  // its serial equivalent (threads 1, one job) when it has any parallelism.
  const int top = spans.begin("untraced.references", -1, 0);
  std::vector<RunOut> refs;
  double wall = 0.0;  // as wall_s defines it: the sweep, or CmpSystem::run()
  if (w.sweep()) {
    const auto t0 = Clock::now();
    refs = tcmp::parallel_sweep(w.runs.size(), w.jobs,
                                [&](std::size_t i) { return run_plain(w.runs[i]); });
    wall = seconds_between(t0, Clock::now());
  } else {
    refs.push_back(run_plain(w.runs[0]));
    wall = refs[0].run_s;
  }
  std::vector<RunOut> serial = refs;
  const unsigned workers = w.sweep() ? w.jobs : w.runs[0].cfg.threads;
  if (workers > 1) {
    serial.clear();
    for (RunSpec spec : w.runs) {
      spec.cfg.threads = 1;
      serial.push_back(run_plain(spec));
    }
  }
  spans.end(top);

  double serial_wall = 0.0, serial_run_s = 0.0, task_sum = 0.0;
  std::vector<double> task_s;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    serial_wall += w.sweep() ? serial[i].task_s : serial[i].run_s;
    serial_run_s += serial[i].run_s;
    task_s.push_back(refs[i].task_s);
    task_sum += refs[i].task_s;
  }
  ref.par_speedup = serial_wall / wall;
  ref.par_workers = workers;
  std::sort(task_s.begin(), task_s.end());
  ref.task_s_p50 = median(task_s);
  ref.task_s_p90 = task_s[(task_s.size() * 9 + 9) / 10 - 1];
  ref.task_s_max = task_s.back();
  if (w.sweep()) ref.idle_frac = 1.0 - task_sum / (w.jobs * wall);

  double traced_run_s = 0.0;
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    TracedOut t = traced_run(w.runs[i], static_cast<unsigned>(i + 1), spans, totals);
    traced_run_s += t.out.run_s;
    const std::string& app = w.runs[i].app.name;
    t.check(refs[i].finished && serial[i].finished, app + ": untraced run did not finish");
    // K- and jobs-invariance, and transparency of the profiler and hook.
    t.check(serial[i].digest == refs[i].digest,
            app + ": serial counters differ from the parallel run");
    t.check(t.out.digest == refs[i].digest,
            app + ": traced counters differ from the untraced run");
    if (!t.failures.empty()) ++failed_runs;
    for (const std::string& f : t.failures) failures.push_back(quote(f));
  }
  ref.trace_overhead = traced_run_s / serial_run_s - 1.0;

  JsonObject metrics;
  for (const auto& [name, value] : tcmpbench::layer_metrics(totals, ref)) {
    metrics.num(name, value);
  }
  const std::uint64_t attempted = (workers > 1 ? 3 : 2) * w.runs.size();
  return JsonObject()
      .str("mode", "traced")
      .num("runs", attempted)
      .num("failed", failed_runs)
      .raw("failures", json_array(failures))
      .raw("outputs", outputs_json(w, refs))
      .raw("per_layer", metrics.text())
      .text();
}

}  // namespace

int main(int argc, char** argv) {
  tcmp::ArgParser args;
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "tcmpbench: %s\n", args.error().c_str());
    return 2;
  }
  const auto unknown =
      args.unknown_keys({"workload", "seed", "traced", "setup-only", "smoke", "trace-out"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "tcmpbench: unknown option --%s\n", unknown[0].c_str());
    return 2;
  }
  const std::string name = args.get("workload", "");
  const long seed = args.get_long("seed", 1);
  const auto w = seed < 1 ? std::nullopt : make_workload(name, seed, args.get_flag("smoke"));
  if (!w) {
    std::fprintf(stderr,
                 "tcmpbench: need --workload mp3d-16|water-16-base|radix-256-k4|"
                 "fig6-sweep and --seed >= 1\n");
    return 2;
  }

  Spans spans;
  const std::string line = args.get_flag("traced")       ? traced_pass(*w, spans)
                           : args.get_flag("setup-only") ? setup_rep(*w)
                                                         : timed_rep(*w);
  std::printf("%s\n", line.c_str());
  const std::string trace_out = args.get("trace-out", "");
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    spans.write_chrome(out);
    if (!out) {
      std::fprintf(stderr, "tcmpbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }
  return 0;
}

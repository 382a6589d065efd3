// paper — every table and figure of the paper's evaluation, the Cheng'06
// comparison and the ablations, printed from one deduplicated sweep:
//
//   paper [TABLE...] [--jobs N]
//
// TABLE is one of the names in all_tables() below; with none, all fifteen
// print in that order. Each table declares its simulation points as an
// (application x configuration) grid and a renderer that prints its rows
// from their RunResults. The driver takes the union of the selected tables'
// points, runs each distinct point once through tcmp::parallel_sweep on N
// worker threads (default 1), then prints the tables in the order named.
// stdout is identical at any N; progress goes to stderr. TCMP_SCALE scales
// every workload's operation count (1.0 = the calibrated default recorded in
// bench_output.txt and EXPERIMENTS.md). An unknown table or option, N < 1,
// or a TCMP_SCALE that is not a finite number > 0 exits 2.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/args.hpp"
#include "common/parallel.hpp"
#include "compression/compressor.hpp"
#include "compression/hw_cost.hpp"
#include "power/cacti_mini.hpp"
#include "wire/link_design.hpp"
#include "wire/technology.hpp"
#include "wire/wire_spec.hpp"

using namespace tcmp;
using cmp::CmpConfig;
using cmp::RunResult;
using compression::SchemeConfig;
using workloads::AppParams;

namespace {

// ---- Points and runs -----------------------------------------------------

/// One simulation. Points compare through the defaulted operator== of
/// AppParams and CmpConfig (and of every struct inside it), so two tables
/// share a run only when every field of both configurations agrees.
struct Point {
  AppParams app;
  CmpConfig cfg;
  friend bool operator==(const Point&, const Point&) = default;
};

/// A finished point; `coverage` holds Fig. 2's per-scheme coverage when the
/// point ran with the coverage probe, and is empty otherwise.
struct Run {
  RunResult result;
  std::vector<double> coverage;
};

/// What a table simulates — every application in `apps` under every
/// configuration in `cfgs` — and, once the sweep is done, its runs in that
/// row-major order.
struct Grid {
  std::vector<AppParams> apps;
  std::vector<CmpConfig> cfgs;
  std::vector<const Run*> runs{};

  [[nodiscard]] const RunResult& at(std::size_t a, std::size_t c) const {
    return runs[a * cfgs.size() + c]->result;
  }
};

struct Table {
  const char* name;
  Grid grid;
  void (*render)(const Grid&);
  bool probe_coverage = false;  ///< run the grid with the Fig. 2 probe
};

/// The compression configurations whose coverage Fig. 2 reports.
std::vector<SchemeConfig> fig2_schemes() {
  return {SchemeConfig::stride(1),  SchemeConfig::stride(2),
          SchemeConfig::dbrc(4, 1), SchemeConfig::dbrc(4, 2),
          SchemeConfig::dbrc(16, 1), SchemeConfig::dbrc(16, 2),
          SchemeConfig::dbrc(64, 1), SchemeConfig::dbrc(64, 2)};
}

/// Fig. 2's probe (the paper's method: one simulation per application, all
/// schemes measured on identical traffic). Every address-carrying critical
/// remote message of a baseline run goes, as it is injected, through each
/// scheme's sender compressors — one per (core, message class), as in the
/// hardware — so nothing is stored.
class CoverageProbe {
 public:
  explicit CoverageProbe(unsigned n_tiles) {
    for (const auto& scheme : fig2_schemes()) {
      auto& senders = senders_.emplace_back(n_tiles * compression::kNumMsgClasses);
      for (auto& s : senders) s = compression::make_compressor(scheme, n_tiles).sender;
    }
    hits_.assign(senders_.size(), 0);
  }

  void observe(const protocol::CoherenceMsg& msg) {
    if (!protocol::carries_address(msg.type) || !protocol::is_critical(msg.type))
      return;
    ++messages_;
    const unsigned slot = msg.src * compression::kNumMsgClasses +
                          static_cast<unsigned>(protocol::compression_class(msg.type));
    for (std::size_t s = 0; s < senders_.size(); ++s) {
      if (senders_[s][slot]->compress(msg.dst, msg.line).compressed) ++hits_[s];
    }
  }

  /// Compressed share of the observed messages, per scheme.
  [[nodiscard]] std::vector<double> coverage() const {
    std::vector<double> out;
    for (std::uint64_t hits : hits_) {
      out.push_back(messages_ == 0 ? 0.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(messages_));
    }
    return out;
  }

 private:
  std::vector<std::vector<std::unique_ptr<compression::SenderCompressor>>> senders_;
  std::vector<std::uint64_t> hits_;
  std::uint64_t messages_ = 0;
};

Run run_point(const Point& p, bool probe_coverage) {
  if (!probe_coverage) return {bench::run_app(p.app, p.cfg), {}};
  CoverageProbe probe(p.cfg.n_tiles);
  RunResult r = bench::run_app(p.app, p.cfg, [&probe](const protocol::CoherenceMsg& m) {
    probe.observe(m);
  });
  return {std::move(r), probe.coverage()};
}

// ---- Grid building blocks ------------------------------------------------

std::vector<AppParams> apps_named(std::initializer_list<const char*> names) {
  std::vector<AppParams> apps;
  for (const char* name : names) apps.push_back(workloads::app(name));
  return apps;
}

/// The proposal every ablation measures: 4-entry DBRC (2B LO) over VL+B.
CmpConfig proposal() { return CmpConfig::heterogeneous(SchemeConfig::dbrc(4, 2)); }

/// The Fig. 6/7 grid: the baseline, then one het configuration per scheme.
std::vector<CmpConfig> with_schemes(const std::vector<SchemeConfig>& schemes) {
  std::vector<CmpConfig> cfgs{CmpConfig::baseline()};
  for (const auto& s : schemes) cfgs.push_back(CmpConfig::heterogeneous(s));
  return cfgs;
}

/// The configurations evaluated in Fig. 6/7 (coverage over ~80% in Fig. 2).
std::vector<SchemeConfig> fig6_schemes() {
  return {SchemeConfig::stride(2),   SchemeConfig::dbrc(4, 2),
          SchemeConfig::dbrc(16, 1), SchemeConfig::dbrc(16, 2),
          SchemeConfig::dbrc(64, 1), SchemeConfig::dbrc(64, 2)};
}

/// An ablation's configuration columns: `cfgs` once per value, each copy
/// with `set(cfg, value)` applied, value-major.
template <typename T, typename Set>
std::vector<CmpConfig> per_value(std::initializer_list<T> values,
                                 std::initializer_list<CmpConfig> cfgs, Set set) {
  std::vector<CmpConfig> out;
  for (const T& value : values) {
    for (CmpConfig cfg : cfgs) {
      set(cfg, value);
      out.push_back(cfg);
    }
  }
  return out;
}

// ---- Rendering helpers ---------------------------------------------------

double norm_cycles(const RunResult& r, const RunResult& base) {
  return static_cast<double>(r.cycles.value()) / static_cast<double>(base.cycles.value());
}
double norm_link_ed2p(const RunResult& r, const RunResult& base) {
  return r.link_ed2p() / base.link_ed2p();
}
double norm_full_ed2p(const RunResult& r, const RunResult& base) {
  return r.full_cmp_ed2p() / base.full_cmp_ed2p();
}
std::string ratio3(double v) { return TextTable::fmt(v, 3); }

/// Row `a` of a baseline-first grid: `norm(run, baseline)` for every
/// configuration after column 0.
std::vector<double> vs_baseline(const Grid& g, std::size_t a,
                                double (*norm)(const RunResult&, const RunResult&)) {
  std::vector<double> row;
  for (std::size_t c = 1; c < g.cfgs.size(); ++c) row.push_back(norm(g.at(a, c), g.at(a, 0)));
  return row;
}

/// Header naming the scheme of every configuration after the baseline.
std::vector<std::string> scheme_header(const Grid& g) {
  std::vector<std::string> header{"Application"};
  for (std::size_t c = 1; c < g.cfgs.size(); ++c) header.push_back(g.cfgs[c].scheme.name());
  return header;
}

/// A table with one row per application — `row(a)` gives its values, one
/// per column after the first — and a closing AVERAGE row of the column
/// means; `cell` renders each value. `means`, when given, receives them.
template <typename Row>
std::string averaged_table(std::vector<std::string> header, const Grid& g, Row row,
                           std::string (*cell)(double),
                           std::vector<double>* means = nullptr) {
  TextTable t(std::move(header));
  std::vector<double> sums;
  for (std::size_t a = 0; a < g.apps.size(); ++a) {
    const std::vector<double> values = row(a);
    sums.resize(values.size(), 0.0);
    std::vector<std::string> cells{g.apps[a].name};
    for (std::size_t i = 0; i < values.size(); ++i) {
      sums[i] += values[i];
      cells.push_back(cell(values[i]));
    }
    t.add_row(std::move(cells));
  }
  std::vector<std::string> avg{"AVERAGE"};
  for (double& sum : sums) {
    sum /= static_cast<double>(g.apps.size());
    avg.push_back(cell(sum));
  }
  t.add_row(std::move(avg));
  if (means != nullptr) *means = sums;
  return t.str();
}

// ---- Tables 1-3: analytical models, no simulation ------------------------

void render_table1(const Grid&) {
  std::printf("=== Table 1: compression hardware cost (per core, 16-core CMP, 65 nm) ===\n\n");

  struct PaperRow {
    SchemeConfig cfg;
    unsigned size_bytes;
    double area_mm2, dyn_w, static_mw;
  };
  const PaperRow rows[] = {
      {SchemeConfig::dbrc(4, 2), 1088, 0.0723, 0.1065, 10.78},
      {SchemeConfig::dbrc(16, 2), 4352, 0.2678, 0.3848, 43.03},
      {SchemeConfig::dbrc(64, 2), 17408, 0.8240, 0.7078, 133.42},
      {SchemeConfig::stride(2), 272, 0.0257, 0.0561, 5.14},
  };

  TextTable t({"Scheme", "Size (B)", "Area mm2", "(paper)", "%core", "MaxDyn W",
               "(paper)", "Static mW", "(paper)", "%core"});
  for (const auto& row : rows) {
    const auto cost = compression::scheme_hw_cost(row.cfg, 16);
    t.add_row({row.cfg.name(), std::to_string(cost.storage_bytes_per_core),
               TextTable::fmt(units::to_mm2(cost.area_per_core), 4),
               TextTable::fmt(row.area_mm2, 4),
               TextTable::pct(cost.area_per_core / power::kCoreArea, 2),
               TextTable::fmt(cost.max_dyn_power_per_core.value(), 4),
               TextTable::fmt(row.dyn_w, 4),
               TextTable::fmt(units::to_mw(cost.leakage_per_core), 2),
               TextTable::fmt(row.static_mw, 2),
               TextTable::pct(cost.leakage_per_core / power::kCoreStaticPower, 2)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Size column must match the paper exactly; area/power columns come from\n"
              "the cacti_mini fit (endpoints calibrated, midpoints within ~35%%).\n");
}

/// Cycles a wire class takes over one mesh link at the technology clock.
unsigned mesh_link_cycles(const wire::WireSpec& w) {
  return w.link_cycles(wire::kLinkLengthMm, wire::TechParams::itrs65().freq);
}

void render_table2(const Grid&) {
  using wire::WireClass;
  std::printf("=== Table 2: wire implementations at 65 nm (model vs paper) ===\n\n");
  TextTable t({"Wire type", "RelLat", "(paper)", "RelArea", "(paper)",
               "Dyn W/m@a=1", "(paper)", "Static W/m", "(paper)", "ps/mm"});
  for (WireClass cls :
       {WireClass::kB8X, WireClass::kB4X, WireClass::kL8X, WireClass::kPW4X}) {
    const wire::WireSpec model = wire::model_spec(cls);
    const wire::WireSpec paper = wire::paper_spec(cls);
    t.add_row({paper.name, TextTable::fmt(model.rel_latency, 2),
               TextTable::fmt(paper.rel_latency, 2), TextTable::fmt(model.rel_area, 1),
               TextTable::fmt(paper.rel_area, 1),
               TextTable::fmt(model.dyn_power.value(), 2),
               TextTable::fmt(paper.dyn_power.value(), 2),
               TextTable::fmt(model.static_power.value(), 3),
               TextTable::fmt(paper.static_power.value(), 3),
               TextTable::fmt(model.ps_per_mm, 1)});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Latency ratios reproduce within ~12%%; PW-Wire dynamic power diverges\n"
              "(see EXPERIMENTS.md): a first-order RC model cannot remove wire\n"
              "capacitance, only repeater overheads. The simulator uses the paper\n"
              "columns for energy accounting.\n\n");

  std::printf("Link latency quantization at 4 GHz over a 5 mm link:\n");
  for (WireClass cls :
       {WireClass::kB8X, WireClass::kB4X, WireClass::kL8X, WireClass::kPW4X}) {
    const wire::WireSpec paper = wire::paper_spec(cls);
    std::printf("  %-16s %u cycles\n", paper.name.c_str(), mesh_link_cycles(paper));
  }
}

void render_table3(const Grid&) {
  std::printf("=== Table 3: VL-Wire characteristics (model vs paper) ===\n\n");
  TextTable t({"Width", "RelLat", "(paper)", "RelArea", "Dyn W/m", "(paper)",
               "Static W/m", "(paper)", "link cyc"});
  for (unsigned bytes : {3u, 4u, 5u}) {
    const wire::WireSpec model = wire::model_spec(wire::WireClass::kVL, bytes);
    const wire::WireSpec paper = wire::paper_spec(wire::WireClass::kVL, bytes);
    t.add_row({std::to_string(bytes) + " Bytes", TextTable::fmt(model.rel_latency, 2),
               TextTable::fmt(paper.rel_latency, 2), TextTable::fmt(paper.rel_area, 0),
               TextTable::fmt(model.dyn_power.value(), 2),
               TextTable::fmt(paper.dyn_power.value(), 2),
               TextTable::fmt(model.static_power.value(), 3),
               TextTable::fmt(paper.static_power.value(), 3),
               std::to_string(mesh_link_cycles(paper))});
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("Area-matched heterogeneous link partitions (600-track budget):\n\n");
  TextTable p({"VL width", "VL wires", "VL tracks", "B bytes", "B wires",
               "total tracks", "overshoot"});
  for (unsigned bytes : {3u, 4u, 5u}) {
    const wire::LinkPartition part = wire::paper_het_link(bytes);
    p.add_row({std::to_string(bytes) + " B", std::to_string(part.vl_wires),
               TextTable::fmt(part.vl_tracks, 0), std::to_string(part.b_bytes),
               std::to_string(part.b_wires), TextTable::fmt(part.total_tracks, 0),
               TextTable::pct(part.area_overshoot(), 1)});
  }
  std::printf("%s\n", p.str().c_str());
}

// ---- Figures -------------------------------------------------------------

void render_fig2(const Grid& g) {
  bench::print_header("Fig. 2: address compression coverage (16-core tiled CMP)");

  std::vector<std::string> header{"Application"};
  for (const auto& s : fig2_schemes()) header.push_back(s.name());
  std::printf("%s\n", averaged_table(std::move(header), g,
                                     [&](std::size_t a) { return g.runs[a]->coverage; },
                                     [](double v) { return TextTable::pct(v, 1); })
                          .c_str());
  std::printf("Paper shape: 1-byte Stride and 4-entry DBRC (1B) give low coverage;\n"
              "16-entry DBRC (1B), 2-byte Stride and 4-entry DBRC (2B) exceed ~80%%;\n"
              "DBRC (2B) reaches ~98%%; Barnes/Radix are the low outliers.\n");
}

/// Fig. 5's shares of the network messages, in column order: the Fig. 4
/// groups, then the short/long and critical shares the proposal keys on.
enum Share {
  kRequests, kResponses, kCommands, kCohReplies, kReplacements,
  kShortWithAddr, kCritical, kLong,
};

std::vector<double> breakdown(const RunResult& r) {
  using protocol::MsgType;
  auto count = [&](std::initializer_list<MsgType> types) {
    std::uint64_t n = 0;
    for (MsgType t : types) {
      auto it = r.msg_counts.find(protocol::to_string(t));
      if (it != r.msg_counts.end()) n += it->second;
    }
    return static_cast<double>(n);
  };
  const double total = [&] {
    double t = 0;
    for (const auto& [name, n] : r.msg_counts) t += static_cast<double>(n);
    return t;
  }();

  double short_addr = 0, critical = 0, longm = 0;
  for (const auto& [name, n] : r.msg_counts) {
    for (unsigned i = 0; i < protocol::kNumMsgTypes; ++i) {
      const auto t = static_cast<MsgType>(i);
      if (name != protocol::to_string(t)) continue;
      const auto d = static_cast<double>(n);
      if (protocol::is_short(t) && protocol::carries_address(t)) short_addr += d;
      if (protocol::is_critical(t)) critical += d;
      if (!protocol::is_short(t)) longm += d;
    }
  }
  return {
      count({MsgType::kGetS, MsgType::kGetX, MsgType::kUpgrade}) / total,
      count({MsgType::kData, MsgType::kDataExcl, MsgType::kUpgradeAck}) / total,
      count({MsgType::kInv, MsgType::kFwdGetS, MsgType::kFwdGetX, MsgType::kRecall}) /
          total,
      count({MsgType::kInvAck, MsgType::kRevision, MsgType::kAckRevision,
             MsgType::kPutAck}) /
          total,
      count({MsgType::kPutE, MsgType::kPutM}) / total,
      short_addr / total,
      critical / total,
      longm / total,
  };
}

void render_fig5(const Grid& g) {
  bench::print_header("Fig. 5: message-type breakdown on the interconnect (baseline)");

  std::vector<double> avg;
  std::printf("%s\n",
              averaged_table({"Application", "Requests", "Responses", "CohCmds",
                              "CohReplies", "Replacemts", "Short+LineAddr", "Critical",
                              "Long"},
                             g, [&](std::size_t a) { return breakdown(g.at(a, 0)); },
                             [](double v) { return TextTable::pct(v); }, &avg)
                  .c_str());

  // The paper's protocol replaces without acknowledgment; ours PutAcks every
  // replacement (needed by the eviction-buffer race handling). Re-grouping
  // with PutAcks excluded gives the directly comparable Fig. 5 shares; the
  // PutAck count equals the replacement count by construction (one ack per
  // Put).
  std::printf("Comparable to the paper (PutAcks excluded from the total):\n");
  const double putacks = avg[kReplacements];
  const double denom = 1.0 - putacks;
  std::printf("  memory access (req+reply): %5.1f%%   (paper: >60%%)\n",
              100.0 * (avg[kRequests] + avg[kResponses]) / denom);
  std::printf("  coherence enforcement:     %5.1f%%   (paper: ~25%%)\n",
              100.0 * (avg[kCommands] + avg[kCohReplies] - putacks) / denom);
  std::printf("  replacements:              %5.1f%%   (paper: ~15%%)\n",
              100.0 * avg[kReplacements] / denom);
  std::printf("  short with address:        %5.1f%%   (paper: >50%%)\n",
              100.0 * avg[kShortWithAddr] / denom);
}

/// Fig. 6: normalized execution time (top) and link ED^2P (bottom) per
/// application, relative to the 75-byte B-Wire baseline (column 0). The
/// three perfect-compression columns are the figure's solid "potential"
/// lines.
void render_fig6(const Grid& g) {
  bench::print_header(
      "Fig. 6: normalized execution time (top) and link ED^2P (bottom)");

  std::printf("--- normalized execution time (lower is better) ---\n%s\n",
              averaged_table(scheme_header(g), g,
                             [&](std::size_t a) { return vs_baseline(g, a, norm_cycles); },
                             ratio3)
                  .c_str());
  std::printf("--- normalized link ED^2P (lower is better) ---\n%s\n",
              averaged_table(scheme_header(g), g,
                             [&](std::size_t a) { return vs_baseline(g, a, norm_link_ed2p); },
                             ratio3)
                  .c_str());
  std::printf(
      "Paper shape: ~8%% average execution-time gain for 4-entry DBRC (2B LO)\n"
      "(potential ~10%%), ranging from 1-2%% (Water, LU) to 22-25%% (MP3D,\n"
      "Unstructured); average link ED^2P reduction ~30-38%%, with Barnes/Radix\n"
      "limited by their low compression coverage.\n");
}

/// Fig. 7: normalized full-CMP ED^2P. Growing the DBRC compression cache
/// makes the full-chip metric worse (the extra hardware's power is not paid
/// back by more speedup), so 4-entry DBRC beats 64-entry DBRC chip-wide even
/// though its coverage is lower.
void render_fig7(const Grid& g) {
  bench::print_header("Fig. 7: normalized full-CMP ED^2P");

  std::printf("%s\n", averaged_table(scheme_header(g), g,
                                     [&](std::size_t a) {
                                       return vs_baseline(g, a, norm_full_ed2p);
                                     },
                                     ratio3)
                          .c_str());
  std::printf(
      "Paper shape: average full-CMP ED^2P improvements of 21%% (2-byte Stride)\n"
      "to 26%% (4-entry DBRC); larger DBRC caches do WORSE chip-wide because\n"
      "their extra area/power is not compensated by further speedup.\n");
}

/// Cheng et al. [6]'s three-subnet interconnect (11B L + 17B B + 28B PW,
/// static latency/bandwidth mapping, no compression) against the proposal on
/// the same 600-track budget — the paper's motivating comparison: [6] reports
/// "insignificant performance improvements" on direct topologies. Columns:
/// baseline, Cheng'06, proposal.
void render_cheng(const Grid& g) {
  bench::print_header(
      "Comparison: Cheng'06 three-subnet [6] vs compression + VL-Wires");

  std::printf("%s\n",
              averaged_table({"Application", "exec Cheng'06", "exec proposal",
                              "linkED2P Cheng'06", "linkED2P proposal"},
                             g,
                             [&](std::size_t a) {
                               const auto& base = g.at(a, 0);
                               return std::vector<double>{
                                   norm_cycles(g.at(a, 1), base),
                                   norm_cycles(g.at(a, 2), base),
                                   norm_link_ed2p(g.at(a, 1), base),
                                   norm_link_ed2p(g.at(a, 2), base)};
                             },
                             ratio3)
                  .c_str());
  std::printf(
      "Expected shape: [6]'s subnets barely move execution time on the 2D mesh\n"
      "(its L-wires shave 1 cycle/hop while its narrow 17-byte B subnet slows\n"
      "data replies, and PW writebacks crawl), though its PW subnet does cut\n"
      "link energy. The proposal converts the same area into latency where it\n"
      "matters and wins on both axes — the paper's motivating comparison.\n");
}

// ---- Ablations -----------------------------------------------------------

/// Router pipeline depth: the proposal's benefit is link-latency driven, so
/// deeper routers dilute it — the effect Cheng et al. [6] saw on direct
/// topologies with slow routers. Columns: baseline and proposal with the
/// single-cycle router, then both with the 3-stage pipeline.
void render_router_pipeline(const Grid& g) {
  bench::print_header("Ablation: router pipeline depth (single-cycle vs 3-stage)");

  TextTable t({"Application", "gain 1-cyc router", "gain 3-stage router"});
  for (std::size_t a = 0; a < g.apps.size(); ++a) {
    double gains[2];
    for (std::size_t deep = 0; deep < 2; ++deep) {
      gains[deep] = 1.0 - norm_cycles(g.at(a, 2 * deep + 1), g.at(a, 2 * deep));
    }
    t.add_row({g.apps[a].name, TextTable::pct(gains[0]), TextTable::pct(gains[1])});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Expected: the execution-time gain shrinks with the 3-stage router —\n"
              "per-hop latency becomes router-dominated, so halving the wire delay\n"
              "moves a smaller share of the miss path.\n");
}

/// Link switching activity (alpha). Link energy charges traffic-proportional
/// dynamic energy plus inventory-proportional leakage; at SPLASH-level link
/// utilization leakage dominates, which is why the link ED^2P gains
/// overshoot the paper's 38% (EXPERIMENTS.md). Columns: (baseline, proposal)
/// per alpha.
void render_switching_activity(const Grid& g) {
  bench::print_header("Ablation: link ED^2P gain vs switching activity");

  TextTable t({"alpha", "base link E (mJ)", "dyn share", "het/base link ED2P"});
  for (std::size_t c = 0; c < g.cfgs.size(); c += 2) {
    const auto& base = g.at(0, c);
    const auto& het = g.at(0, c + 1);
    const double dyn_share =
        base.energy.get(power::EnergyAccount::kLinkDynamic) / base.link_energy();
    t.add_row({TextTable::fmt(g.cfgs[c].switching_activity, 2),
               TextTable::fmt(1e3 * base.link_energy().value(), 2),
               TextTable::pct(dyn_share), ratio3(norm_link_ed2p(het, base))});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("alpha > 1 is unphysical for real traffic but shows the asymptote: as\n"
              "dynamic energy dominates, the link energy ratio approaches ~1 (data\n"
              "bits toggle either way) and the ED^2P gain is carried by the speedup\n"
              "squared; as leakage dominates it approaches the 0.47x wire-inventory\n"
              "ratio. The paper's 38%% sits between the two regimes.\n");
}

/// Idealized vs conservative DBRC mirror synchronization. The paper (and the
/// default) assumes receiver register files track the sender's compression
/// cache for free; the conservative design keeps a per-destination valid
/// vector per entry, so the first send of each entry to each destination
/// travels uncompressed. Columns: baseline, idealized, conservative.
void render_dbrc_mirrors(const Grid& g) {
  bench::print_header("Ablation: DBRC mirror model (idealized vs per-dest valid bits)");

  TextTable t({"Application", "cov ideal", "cov conservative", "exec ideal",
               "exec conservative"});
  for (std::size_t a = 0; a < g.apps.size(); ++a) {
    const auto& base = g.at(a, 0);
    const auto& ideal = g.at(a, 1);
    const auto& cons = g.at(a, 2);
    t.add_row({g.apps[a].name, TextTable::pct(ideal.compression_coverage),
               TextTable::pct(cons.compression_coverage),
               ratio3(norm_cycles(ideal, base)), ratio3(norm_cycles(cons, base))});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("The conservative design pays one uncompressed install per (region,\n"
              "destination) pair; with 16 destinations that tax recurs on every\n"
              "entry eviction, costing coverage on irregular applications.\n");
}

/// Reply Partitioning (Flores et al., HiPC'07 [9]) on top of the proposal:
/// data senders emit the critical word as a short critical PartialReply (VL
/// plane) ahead of the 67-byte Ordinary Reply (B plane). Columns: baseline,
/// proposal, proposal + RP.
void render_reply_partitioning(const Grid& g) {
  bench::print_header("Extension: Reply Partitioning [9] on top of the proposal");

  TextTable t({"Application", "het", "het + RP", "RP extra gain"});
  double sum_het = 0, sum_rp = 0;
  unsigned n = 0;
  for (std::size_t a = 0; a < g.apps.size(); ++a) {
    const double nh = norm_cycles(g.at(a, 1), g.at(a, 0));
    const double nr = norm_cycles(g.at(a, 2), g.at(a, 0));
    t.add_row({g.apps[a].name, ratio3(nh), ratio3(nr), TextTable::pct(nh - nr)});
    sum_het += nh;
    sum_rp += nr;
    ++n;
  }
  t.add_row({"AVERAGE", ratio3(sum_het / n), ratio3(sum_rp / n),
             TextTable::pct(sum_het / n - sum_rp / n)});
  std::printf("%s\n", t.str().c_str());
  std::printf("Read misses resume when the 11-byte PartialReply lands (2-3 VL flits)\n"
              "instead of waiting for the 67-byte line on the B plane; the full line\n"
              "still installs before the MSHR closes, so coherence is unchanged.\n");
}

/// A 32-tile (8x4) CMP against the 16-tile one: the paper's conclusion
/// expects the technique to matter more for dense CMPs, where longer average
/// hop counts amplify the VL plane's per-link advantage. Columns: (baseline,
/// proposal) per tile count.
void render_scaling(const Grid& g) {
  bench::print_header("Extension: 16-tile (4x4) vs 32-tile (8x4) CMP");

  TextTable t({"Application", "tiles", "exec het/base", "link ED2P het/base",
               "crit latency base", "het"});
  for (std::size_t a = 0; a < g.apps.size(); ++a) {
    for (std::size_t c = 0; c < g.cfgs.size(); c += 2) {
      const auto& base = g.at(a, c);
      const auto& het = g.at(a, c + 1);
      t.add_row({g.apps[a].name, std::to_string(g.cfgs[c].n_tiles),
                 ratio3(norm_cycles(het, base)), ratio3(norm_link_ed2p(het, base)),
                 TextTable::fmt(base.avg_critical_latency, 1),
                 TextTable::fmt(het.avg_critical_latency, 1)});
    }
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("With twice the tiles (and ~1.5x the average hop count), the same VL/B\n"
              "partition buys a larger share of the miss path — the trend behind the\n"
              "paper's closing claim about dense CMPs.\n");
}

/// 2D mesh vs two-level tree (4 cluster routers + 1 root, double-length root
/// links: few routers, wire-dominated hops). The proposal's gain survives the
/// topology change, while [6]'s 17-byte B subnet must squeeze every data
/// reply through the tree root. Columns: (baseline, Cheng'06, proposal) per
/// topology.
void render_topology(const Grid& g) {
  bench::print_header("Extension: 2D mesh vs two-level tree topology");

  TextTable t({"Application", "topology", "base critlat", "exec Cheng'06",
               "exec proposal", "linkED2P proposal"});
  for (std::size_t a = 0; a < g.apps.size(); ++a) {
    for (std::size_t c = 0; c < g.cfgs.size(); c += 3) {
      const auto& base = g.at(a, c);
      const auto& cheng = g.at(a, c + 1);
      const auto& ours = g.at(a, c + 2);
      t.add_row({g.apps[a].name,
                 g.cfgs[c].topology == noc::Topology::kMesh2D ? "mesh 4x4" : "tree 4+1",
                 TextTable::fmt(base.avg_critical_latency, 1),
                 ratio3(norm_cycles(cheng, base)), ratio3(norm_cycles(ours, base)),
                 ratio3(norm_link_ed2p(ours, base))});
    }
  }
  std::printf("%s\n", t.str().c_str());
}

constexpr std::uint64_t kSeedOffsets[] = {0, 1000, 2000, 3000};

/// The headline gain re-measured over several workload seeds: the synthetic
/// applications are stochastic (deterministic per seed), so this shows the
/// gains are properties of the pattern, not of one random stream. Rows: each
/// application once per seed offset; columns: baseline, proposal.
void render_seed_sensitivity(const Grid& g) {
  bench::print_header("Robustness: execution-time gain across workload seeds");

  constexpr std::size_t kSeeds = std::size(kSeedOffsets);
  TextTable t({"Application", "mean gain", "stddev", "min", "max", "seeds"});
  for (std::size_t first = 0; first < g.apps.size(); first += kSeeds) {
    std::vector<double> gains;
    for (std::size_t a = first; a < first + kSeeds; ++a) {
      gains.push_back(1.0 - norm_cycles(g.at(a, 1), g.at(a, 0)));
    }
    double sum = 0, min = 1e9, max = -1e9;
    for (double gain : gains) {
      sum += gain;
      min = std::min(min, gain);
      max = std::max(max, gain);
    }
    const double mean = sum / static_cast<double>(gains.size());
    double var = 0;
    for (double gain : gains) var += (gain - mean) * (gain - mean);
    var /= static_cast<double>(gains.size());
    t.add_row({g.apps[first].name, TextTable::pct(mean), TextTable::pct(std::sqrt(var)),
               TextTable::pct(min), TextTable::pct(max),
               std::to_string(gains.size())});
  }
  std::printf("%s\n", t.str().c_str());
  std::printf("Expected: per-application standard deviation well under 1%%,\n"
              "i.e. the gain spectrum of Fig. 6 is seed-stable.\n");
}

// ---- The table list ------------------------------------------------------

/// Every table, in the README's order (the order `paper` prints with no
/// table named).
std::vector<Table> all_tables() {
  const auto& apps = workloads::all_apps();
  const std::vector<CmpConfig> base{CmpConfig::baseline()};
  auto fig6_cfgs = with_schemes(fig6_schemes());
  for (unsigned vl : {3u, 4u, 5u}) {
    fig6_cfgs.push_back(CmpConfig::heterogeneous(SchemeConfig::perfect(vl)));
  }
  CmpConfig conservative = proposal();
  conservative.scheme.idealized_mirrors = false;
  CmpConfig reply_partitioned = proposal();
  reply_partitioned.reply_partitioning = true;
  std::vector<AppParams> seeded_apps;
  for (const auto& app : apps_named({"MP3D", "FFT", "Barnes", "Water-nsq"})) {
    for (std::uint64_t offset : kSeedOffsets) {
      seeded_apps.push_back(app);
      seeded_apps.back().seed += offset;
    }
  }

  return {
      {"table1", {}, render_table1},
      {"table2", {}, render_table2},
      {"table3", {}, render_table3},
      {"fig2", {apps, base}, render_fig2, /*probe_coverage=*/true},
      {"fig5", {apps, base}, render_fig5},
      {"fig6", {apps, fig6_cfgs}, render_fig6},
      {"fig7", {apps, with_schemes(fig6_schemes())}, render_fig7},
      {"cheng", {apps, {CmpConfig::baseline(), CmpConfig::cheng3way(), proposal()}},
       render_cheng},
      {"router-pipeline",
       {apps_named({"MP3D", "Unstructured", "FFT", "Water-nsq"}),
        per_value({true, false}, {CmpConfig::baseline(), proposal()},
                  [](CmpConfig& c, bool single) { c.single_cycle_router = single; })},
       render_router_pipeline},
      {"switching-activity",
       {apps_named({"MP3D"}),
        per_value({0.05, 0.15, 0.5, 1.0, 2.0, 5.0}, {CmpConfig::baseline(), proposal()},
                  [](CmpConfig& c, double alpha) { c.switching_activity = alpha; })},
       render_switching_activity},
      {"dbrc-mirrors",
       {apps_named({"MP3D", "FFT", "Ocean-cont", "Barnes"}),
        {CmpConfig::baseline(), proposal(), conservative}},
       render_dbrc_mirrors},
      {"reply-partitioning",
       {apps_named({"MP3D", "Unstructured", "FFT", "Raytrace", "Ocean-cont", "Water-nsq"}),
        {CmpConfig::baseline(), proposal(), reply_partitioned}},
       render_reply_partitioning},
      {"scaling",
       {apps_named({"MP3D", "Unstructured", "FFT"}),
        per_value({16u, 32u}, {CmpConfig::baseline(), proposal()},
                  [](CmpConfig& c, unsigned tiles) { c.with_tiles(tiles); })},
       render_scaling},
      {"topology",
       {apps_named({"MP3D", "Unstructured", "FFT", "Water-nsq"}),
        per_value({noc::Topology::kMesh2D, noc::Topology::kTree2Level},
                  {CmpConfig::baseline(), CmpConfig::cheng3way(), proposal()},
                  [](CmpConfig& c, noc::Topology topo) { c.topology = topo; })},
       render_topology},
      {"seed-sensitivity", {seeded_apps, {CmpConfig::baseline(), proposal()}},
       render_seed_sensitivity},
  };
}

int usage(const std::vector<Table>& tables, const std::string& why) {
  std::fprintf(stderr, "paper: %s\nusage: paper [TABLE...] [--jobs N]  (N >= 1)\ntables:",
               why.c_str());
  for (const auto& t : tables) std::fprintf(stderr, " %s", t.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Table> tables = all_tables();
  ArgParser args;
  if (!args.parse(argc, argv)) return usage(tables, args.error());
  const auto unknown = args.unknown_keys({"jobs"});
  if (!unknown.empty()) return usage(tables, "unknown option --" + unknown.front());
  // A --jobs value that is not entirely an integer reads as 0 and is
  // refused.
  const long jobs = args.has("jobs") ? args.get_long("jobs", 0) : 1;
  if (jobs < 1) return usage(tables, "--jobs must be >= 1");
  const double scale = bench::workload_scale();
  if (!std::isfinite(scale) || scale <= 0) {
    return usage(tables, "TCMP_SCALE must be a finite number > 0");
  }
  for (const auto& a : workloads::all_apps()) {
    if (!a.scale_fits(scale)) {
      return usage(tables, "TCMP_SCALE is too large: " + a.name +
                               "'s operation count does not fit in 64 bits");
    }
  }

  std::vector<Table*> selected;
  for (const auto& name : args.positional()) {
    const auto it = std::find_if(tables.begin(), tables.end(),
                                 [&](const Table& t) { return name == t.name; });
    if (it == tables.end()) return usage(tables, "unknown table '" + name + "'");
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (auto& t : tables) selected.push_back(&t);
  }

  // The union of the selected grids: each distinct point runs once, with
  // the coverage probe when any table that wants it holds the point.
  struct Task {
    Point point;
    bool probe_coverage = false;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<std::size_t>> slots(selected.size());
  std::size_t n_points = 0;
  for (std::size_t t = 0; t < selected.size(); ++t) {
    const Table& table = *selected[t];
    for (const auto& app : table.grid.apps) {
      for (const auto& cfg : table.grid.cfgs) {
        Point p{app, cfg};
        std::size_t i = 0;
        while (i < tasks.size() && !(tasks[i].point == p)) ++i;
        if (i == tasks.size()) tasks.push_back({std::move(p)});
        tasks[i].probe_coverage |= table.probe_coverage;
        slots[t].push_back(i);
        ++n_points;
      }
    }
  }
  std::fprintf(stderr, "paper: %zu tables, %zu points, %zu distinct runs\n",
               selected.size(), n_points, tasks.size());

  const auto workers = static_cast<unsigned>(
      std::min(static_cast<std::size_t>(jobs), tasks.size()));
  const auto runs = tcmp::parallel_sweep(
      tasks.size(), workers,
      [&](std::size_t i) { return run_point(tasks[i].point, tasks[i].probe_coverage); },
      /*progress=*/true);

  for (std::size_t t = 0; t < selected.size(); ++t) {
    Grid& grid = selected[t]->grid;
    grid.runs.clear();
    for (std::size_t slot : slots[t]) grid.runs.push_back(&runs[slot]);
    selected[t]->render(grid);
  }
  return 0;
}

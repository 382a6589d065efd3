// tcmpcheck: protocol verification driver. Runs the exhaustive MESI model
// checker on small configurations, the DBRC mirror-consistency bounded check,
// and the wire-size/classification conformance check; with --mutate it plants
// a deliberate protocol bug and succeeds only if the suite catches it.
//
//   tcmpcheck                  full suite (model 2t/1l + 4t/1l + 4t/2l,
//                              wire, DBRC); the 4t/2l stage takes ~2 minutes
//   tcmpcheck --mutate all     every registered mutation must be caught
//   tcmpcheck --mutate dir-skip-last-inv
//   tcmpcheck --tiles 3 --lines 1 --max-msgs 6   custom model run
//
// Exit codes: 0 = clean (or mutation caught), 1 = violation found unmutated
// (or mutation missed), 2 = usage error.
#include <cstdio>
#include <iostream>
#include <set>
#include <string>

#include "common/args.hpp"
#include "verify/checker.hpp"
#include "verify/dbrc_check.hpp"
#include "verify/model.hpp"
#include "verify/mutation.hpp"
#include "verify/wire_check.hpp"

namespace {

using namespace tcmp;

struct Options {
  long tiles = 0;  ///< 0 = run the preset suite instead of one custom config
  long lines = 1;
  long max_msgs = 8;
  long max_outstanding = 4;
  bool evictions = true;
  bool recalls = true;
  long max_states = 20'000'000;
  long progress = 0;
  bool quick = false;
  long dbrc_depth = 6;
  std::string mutate;
};

void print_usage() {
  std::cout <<
      "usage: tcmpcheck [options]\n"
      "\n"
      "Protocol verification suite: exhaustive model check of the directory\n"
      "MESI protocol on small configs, DBRC mirror-consistency bounded check,\n"
      "and wire-size/classification conformance check.\n"
      "\n"
      "  --mutate <name|id|all>  plant a deliberate bug; exit 0 iff caught\n"
      "  --list-mutations        show the mutation registry and exit\n"
      "  --tiles N               check one custom model config (default: the\n"
      "                          preset 2-tile/1-line + 4-tile/2-line suite)\n"
      "  --lines N               lines for the custom config (default 1)\n"
      "  --max-msgs N            in-flight message stimulus bound (default 8)\n"
      "  --max-outstanding N     concurrent open-transaction bound (default 4)\n"
      "  --no-evictions          disable eviction stimuli\n"
      "  --no-recalls            disable directory-recall stimuli\n"
      "  --max-states N          exploration cap (default 20000000)\n"
      "  --progress N            progress line every N states (default off)\n"
          "  --quick                 3t/2l instead of 4t/2l as the multi-line\n"
      "                          stage (seconds instead of minutes; CI)\n"
      "  --dbrc-depth N          DBRC check sequence depth (default 6)\n"
      "  --help                  this text\n";
}

void list_mutations() {
  std::printf("%-3s %-26s %-6s %s\n", "id", "name", "target", "description");
  for (const auto& m : verify::all_mutations()) {
    const char* target = m.target == verify::MutationTarget::kModel ? "model"
                         : m.target == verify::MutationTarget::kDbrc ? "dbrc"
                                                                     : "wire";
    std::printf("%-3u %-26s %-6s %s\n", static_cast<unsigned>(m.id), m.name,
                target, m.description);
  }
}

/// Run one model-check configuration; returns true when the space was
/// exhausted with no violation. Prints the counterexample trace otherwise.
bool run_model(const verify::ProtocolModel::Config& cfg, const Options& opt,
               const char* label) {
  verify::CheckerOptions copts;
  copts.max_states = static_cast<std::uint64_t>(opt.max_states);
  copts.progress_every = static_cast<std::uint64_t>(opt.progress);
  std::printf("model check [%s]: %u tiles, %u lines, <=%u msgs, <=%u open\n",
              label, cfg.n_tiles, cfg.n_lines, cfg.max_msgs,
              cfg.max_outstanding);
  std::fflush(stdout);
  const auto result = verify::run_model_check(cfg, copts);
  if (result.violation.has_value() && !result.truncated) {
    std::printf("  VIOLATION after %llu states / %llu transitions "
                "(depth %u): [%s] %s\n",
                static_cast<unsigned long long>(result.states),
                static_cast<unsigned long long>(result.transitions),
                result.violation_depth, result.violation->invariant.c_str(),
                result.violation->detail.c_str());
    verify::ProtocolModel model(cfg);
    std::cout << format_trace(model, result);
    return false;
  }
  if (result.truncated) {
    std::printf("  TRUNCATED at %llu states — raise --max-states or tighten "
                "the stimulus bounds\n",
                static_cast<unsigned long long>(result.states));
    return false;
  }
  std::printf("  exhausted: %llu states, %llu transitions, 0 violations\n",
              static_cast<unsigned long long>(result.states),
              static_cast<unsigned long long>(result.transitions));
  return true;
}

bool run_wire(verify::MutationId mutation) {
  const auto result = verify::run_wire_check(mutation);
  std::printf("wire check: %llu comparisons, %zu findings\n",
              static_cast<unsigned long long>(result.checks),
              result.findings.size());
  for (const auto& f : result.findings) std::printf("  FINDING: %s\n", f.c_str());
  return result.ok;
}

bool run_dbrc(const Options& opt, verify::MutationId mutation) {
  verify::DbrcCheckConfig cfg;
  cfg.depth = static_cast<unsigned>(opt.dbrc_depth);
  cfg.mutation = mutation;
  const auto result = verify::run_dbrc_check(cfg);
  std::printf("dbrc check: %llu sequences, %llu decodes, %zu findings\n",
              static_cast<unsigned long long>(result.sequences),
              static_cast<unsigned long long>(result.decodes),
              result.findings.size());
  for (const auto& f : result.findings) std::printf("  FINDING: %s\n", f.c_str());
  if (!result.counterexample.empty()) {
    std::printf("  offending send sequence:\n");
    for (const auto& s : result.counterexample)
      std::printf("    %s\n", s.c_str());
  }
  return result.ok;
}

verify::ProtocolModel::Config model_config(const Options& opt, unsigned tiles,
                                           unsigned lines, unsigned max_msgs,
                                           unsigned max_outstanding,
                                           verify::MutationId mutation) {
  verify::ProtocolModel::Config cfg;
  cfg.n_tiles = tiles;
  cfg.n_lines = lines;
  cfg.max_msgs = max_msgs;
  cfg.max_outstanding = max_outstanding;
  cfg.enable_evictions = opt.evictions;
  cfg.enable_recalls = opt.recalls;
  cfg.mutation = mutation;
  return cfg;
}

/// A mutated run is a success when the responsible checker reports the bug.
bool run_mutation(const Options& opt, const verify::MutationInfo& m) {
  std::printf("--- mutation %s (%s) ---\n", m.name, m.description);
  bool caught = false;
  switch (m.target) {
    case verify::MutationTarget::kModel: {
      // Smallest config first; a couple of bugs need a third participant
      // (two sharers besides the requester), so escalate before giving up.
      caught = !run_model(model_config(opt, 2, 1, 6, 3, m.id), opt, "mutated 2t/1l");
      if (!caught) {
        caught =
            !run_model(model_config(opt, 3, 1, 6, 3, m.id), opt, "mutated 3t/1l");
      }
      break;
    }
    case verify::MutationTarget::kDbrc:
      caught = !run_dbrc(opt, m.id);
      break;
    case verify::MutationTarget::kWire:
      caught = !run_wire(m.id);
      break;
  }
  std::printf("mutation %s: %s\n", m.name,
              caught ? "CAUGHT" : "MISSED — the suite has a hole");
  return caught;
}

int run(const Options& opt) {
  if (opt.mutate == "all") {
    unsigned missed = 0;
    for (const auto& m : verify::all_mutations()) {
      if (!run_mutation(opt, m)) ++missed;
    }
    std::printf("=== %zu mutations, %u missed ===\n",
                verify::all_mutations().size(), missed);
    return missed == 0 ? 0 : 1;
  }
  if (!opt.mutate.empty()) {
    const auto m = verify::find_mutation(opt.mutate);
    if (!m.has_value()) {
      std::fprintf(stderr, "tcmpcheck: unknown mutation '%s' (see --list-mutations)\n",
                   opt.mutate.c_str());
      return 2;
    }
    return run_mutation(opt, *m) ? 0 : 1;
  }

  bool ok = true;
  if (opt.tiles != 0) {
    ok = run_model(model_config(opt, static_cast<unsigned>(opt.tiles),
                                static_cast<unsigned>(opt.lines),
                                static_cast<unsigned>(opt.max_msgs),
                                static_cast<unsigned>(opt.max_outstanding),
                                verify::MutationId::kNone),
                   opt, "custom");
  } else {
    // Preset suite. Full stimulus (evictions + recalls) is exhaustible on
    // one line; with two lines the eviction/recall interleavings explode the
    // space past 20M states, so the multi-line stage covers three-party
    // races across two interleaved home tiles with spontaneous
    // evictions/recalls off (the one-line stages already exhaust those).
    ok &= run_model(model_config(opt, 2, 1, static_cast<unsigned>(opt.max_msgs),
                                 static_cast<unsigned>(opt.max_outstanding),
                                 verify::MutationId::kNone),
                    opt, "2t/1l");
    ok &= run_model(model_config(opt, 4, 1, 4, 2, verify::MutationId::kNone),
                    opt, "4t/1l");
    Options no_spont = opt;
    no_spont.evictions = false;
    no_spont.recalls = false;
    if (opt.quick) {
      ok &= run_model(
          model_config(no_spont, 3, 2, 4, 2, verify::MutationId::kNone), opt,
          "3t/2l quick");
    } else {
      ok &= run_model(
          model_config(no_spont, 4, 2, 4, 2, verify::MutationId::kNone), opt,
          "4t/2l");
    }
  }
  ok &= run_wire(verify::MutationId::kNone);
  ok &= run_dbrc(opt, verify::MutationId::kNone);
  std::printf("=== tcmpcheck: %s ===\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  if (!args.parse(argc, argv)) {
    std::fprintf(stderr, "tcmpcheck: %s\n", args.error().c_str());
    return 2;
  }
  static const std::set<std::string> known = {
      "tiles",        "lines",     "max-msgs",   "max-outstanding",
      "no-evictions", "no-recalls", "max-states", "progress",
      "quick",        "dbrc-depth", "mutate",     "list-mutations",
      "help"};
  for (const auto& key : args.unknown_keys(known)) {
    std::fprintf(stderr, "tcmpcheck: unknown option --%s\n", key.c_str());
    return 2;
  }
  if (args.get_flag("help")) {
    print_usage();
    return 0;
  }
  if (args.get_flag("list-mutations")) {
    list_mutations();
    return 0;
  }

  Options opt;
  opt.tiles = args.get_long("tiles", 0);
  opt.lines = args.get_long("lines", 1);
  opt.max_msgs = args.get_long("max-msgs", 8);
  opt.max_outstanding = args.get_long("max-outstanding", 4);
  opt.evictions = !args.get_flag("no-evictions");
  opt.recalls = !args.get_flag("no-recalls");
  opt.max_states = args.get_long("max-states", 20'000'000);
  opt.progress = args.get_long("progress", 0);
  opt.quick = args.get_flag("quick");
  opt.dbrc_depth = args.get_long("dbrc-depth", 6);
  opt.mutate = args.get("mutate", "");
  if (!args.rejected().empty()) {
    std::fprintf(stderr, "tcmpcheck: %s\n", args.rejection().c_str());
    return 2;
  }
  if (opt.tiles < 0 || opt.lines < 1 || opt.max_msgs < 1 ||
      opt.max_outstanding < 1 || opt.max_states < 1 || opt.dbrc_depth < 1) {
    std::fprintf(stderr, "tcmpcheck: bounds must be positive\n");
    return 2;
  }
  return run(opt);
}

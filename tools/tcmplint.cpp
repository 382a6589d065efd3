// tcmplint — repo-specific static analysis for rules generic clang-tidy
// cannot express. Exits nonzero when any rule fires; every finding is
// printed as `path:line: [rule] message` so editors can jump to it.
//
// Rules (select one with --rule, default all):
//   raw-unit          raw double/uint64_t declarations in src/ headers whose
//                     name carries a unit or identity suffix for which a
//                     strong type exists (units.hpp Quantity / types.hpp
//                     tags). Escape hatch: a `tcmplint: allow-raw-unit`
//                     comment on the same line (used at config boundaries
//                     that deliberately keep the paper's mm/raw units).
//   msgtype-tables    every MsgType enumerator must appear in the wire
//                     classification tables (protocol/coherence_msg.cpp) and
//                     the verifier spec table (verify/wire_check.cpp), and
//                     kNumMsgTypes must equal the enumerator count.
//   stat-registration ScalarStat/Histogram constructed as plain members or
//                     locals bypass StatRegistry and never reach reports.
//                     Escape hatch: `tcmplint: allow-local-stat`.
//   stat-string-hot-path string-keyed StatRegistry lookups (`counter("`,
//                     `scalar("`, `histogram("`) outside constructors /
//                     init functions in the hot-path directories
//                     (protocol, noc, het, core, cmp, obs, verify): stats
//                     must be resolved once via the *_ref handles at
//                     construction and bumped through the handle (see the
//                     hot-path contract in common/stats.hpp). Escape
//                     hatch: `tcmplint: allow-stat-string`.
//   obs-emit-interned per-event telemetry emit sites in the hot-path
//                     directories must bump through handles interned at init
//                     time: a `counter_ref("`, `scalar_ref("` or
//                     `histogram_ref("` call with an inline string literal
//                     outside constructors / init functions re-resolves the
//                     name on every event — exactly the map walk the _ref
//                     API exists to avoid. Escape hatch:
//                     `tcmplint: allow-string-emit`.
//   scheduled-contract a header under src/ declaring a per-cycle `tick(Cycle)`
//                     entry point must also declare the wake contract
//                     (`next_event(` and `quiescent(`) — otherwise
//                     CmpSystem::partition_next_wake cannot read the
//                     component's work and dead-cycle skipping would
//                     silently drop its ticks. Escape hatch:
//                     `tcmplint: allow-unscheduled-tick` (for components
//                     ticked outside CmpSystem's cycle loop).
//   mutable-static    no non-const static-duration locals / class statics in
//                     src/: a mutable static is shared state every sweep
//                     worker thread can reach, invisible to the per-tile
//                     ownership story partitioning depends on. `static
//                     const`/`static constexpr` (immutable after once-init)
//                     and `static std::atomic<...>` are allowed. Escape
//                     hatch: `tcmplint: allow-mutable-static` (reserved for
//                     mutex-guarded singletons such as the abort-hook
//                     registry).
//   guarded-field     in any class holding a Mutex/std::mutex member, every
//                     sibling data member must carry TCMP_GUARDED_BY(<mu>)
//                     (common/sync.hpp) so Clang's -Wthread-safety can prove
//                     the locking discipline. Escape hatch:
//                     `tcmplint: allow-unguarded-field`.
//   tile-escape       raw pointers/references to tile-owned component types
//                     (L1Cache, ICache, Directory, Core, TileNic) must not
//                     escape outside the sanctioned seams: a type's own
//                     translation unit, the same-tile collaborator edges
//                     (core/ -> L1Cache/ICache), and constructor wiring.
//                     This is
//                     the invariant the partitioned driver
//                     (docs/partitioning.md) depends on: cross-tile
//                     interaction flows through the NIC/message seam, never
//                     through a cached raw pointer. Escape hatch:
//                     `tcmplint: tile-seam` (each use documents a partition
//                     boundary the multi-threaded kernel must cut). In
//                     src/cmp/system.* the partitioned driver
//                     (docs/partitioning.md) already cut every cross-tile
//                     seam, so the reason there must start with "same-tile"
//                     or "single-threaded" — the closed allowed set; any
//                     other reason is reported as a new seam creeping back.
//   nondet-iteration  range-for / iterator loops over unordered_map /
//                     unordered_set anywhere in src/ (the container may be
//                     a class member declared in another TU — resolved via
//                     the cross-TU class model): hash-table iteration order
//                     is not pinned by the language, so such loops must use
//                     an ordered container, sort a snapshot first, or carry
//                     `tcmplint: order-insensitive` with a commutativity
//                     argument.
//   uninit-member     every scalar/pointer/enum data member of a class in
//                     src/ must have a default member initializer or be
//                     covered by every constructor's mem-init list
//                     (constructors defined out-of-line in .cpp included).
//                     Escape hatch: `tcmplint: allow-uninit`.
//   reset-coverage    a class exposing a reset()/zero_all()/clear_values()/
//                     clear_stats() lifecycle method must mention every
//                     data member in that method's body (wherever the body
//                     is defined), reassign `*this`, or annotate the member
//                     `tcmplint: reset-exempt` — the same member inventory
//                     snapshot-coverage holds the checkpoint serializer to
//                     (docs/checkpointing.md).
//   snapshot-coverage a class participating in checkpoint/restore — one that
//                     defines snapshot_io() or a save()/load() pair — must
//                     mention every data member in those bodies or annotate
//                     the member `tcmplint: snapshot-exempt` with the reason
//                     it is rebuilt rather than serialized. Runtime
//                     attachments (pointers, references, std::function,
//                     stat handles) are skipped automatically: they are
//                     re-wired by the constructor, never serialized.
//   ambient-nondeterminism rand/time/random_device/system_clock/getenv and
//                     friends are banned outside common/rng.hpp,
//                     common/env.hpp and the self-profiler: all randomness
//                     flows through the seeded Rng, all environment reads
//                     through env.hpp. Escape hatch:
//                     `tcmplint: allow-ambient`.
//   pragma-once       every header under src/ must contain #pragma once.
//
// The four determinism/state-integrity rules and guarded-field share a
// cross-TU class/field model (tools/tcmplint_model.hpp): one pass over src/
// extracting every class/struct with its members (type + initializer),
// constructor mem-init lists and method bodies — including definitions that
// live in a different translation unit than the declaration.
//
// Every rule matches tokens of the blanked text (strip_code + lex, same
// header), so comments, string contents and preprocessor lines never match;
// annotation comments are looked up on the raw lines. That every header
// compiles on its own is checked by the build (src/CMakeLists.txt), not here.
//
// Usage: tcmplint --root <repo-root> [--rule <name>]
//        tcmplint --list-rules | tcmplint --dump-model --root <repo-root>
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "tcmplint_model.hpp"

namespace fs = std::filesystem;
using tcmplint::at;
using tcmplint::match;
using tcmplint::one_of;
using tcmplint::Token;

namespace {

struct Finding {
  std::string file;
  long line;
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void report(const fs::path& file, long line, const std::string& rule,
            const std::string& message) {
  g_findings.push_back({file.string(), line, rule, message});
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// One source file as every rule sees it: the raw lines, for annotation
// lookups, and the tokens of its blanked text, for matching.
struct Source {
  fs::path path;
  std::string rel;  ///< relative to the root, '/'-separated
  std::string raw;
  std::vector<std::string> lines;
  std::string code;  ///< strip_code(raw); `toks` view into it
  std::vector<Token> toks;
  std::vector<std::size_t> first;      ///< first[l]: first token on line >= l
  std::set<std::string_view> classes;  ///< names after `class` / `struct`

  /// Tokens [line_begin(l), line_begin(l + 1)) sit on 1-based line l.
  [[nodiscard]] std::size_t line_begin(long l) const {
    return first[static_cast<std::size_t>(
        std::clamp<long>(l, 1, static_cast<long>(first.size()) - 1))];
  }
  [[nodiscard]] bool first_on_line(std::size_t k) const {
    return k == 0 || toks[k - 1].line != toks[k].line;
  }
  /// `tcmplint: <tag>` on the 1-based raw line.
  [[nodiscard]] bool has(long l, std::string_view tag) const {
    return l >= 1 && l <= static_cast<long>(lines.size()) &&
           lines[static_cast<std::size_t>(l - 1)].find(
               "tcmplint: " + std::string(tag)) != std::string::npos;
  }
  /// ... on the line or the line above it.
  [[nodiscard]] bool annotated(long l, std::string_view tag) const {
    return has(l, tag) || has(l - 1, tag);
  }
};

const Source& load(const fs::path& root, const fs::path& p) {
  static std::map<fs::path, Source> cache;
  auto [it, fresh] = cache.try_emplace(p);
  Source& s = it->second;
  if (!fresh) return s;
  s.path = p;
  s.rel = fs::relative(p, root).generic_string();
  s.raw = read_file(p);
  s.lines = split_lines(s.raw);
  s.code = tcmplint::strip_code(s.raw);
  s.toks = tcmplint::lex(s.code);
  for (std::size_t l = 0, k = 0; l <= s.lines.size() + 1; ++l) {
    while (k < s.toks.size() && s.toks[k].line < static_cast<long>(l)) ++k;
    s.first.push_back(k);
  }
  for (std::size_t k = 0; k < s.toks.size(); ++k)
    if (match(s.toks, k, "class|struct $") != 0)
      s.classes.insert(s.toks[k + 1].text);
  return s;
}

/// Every file under root/dir with one of `exts`, sorted per extension.
std::vector<const Source*> sources(const fs::path& root, const fs::path& dir,
                                   std::initializer_list<const char*> exts) {
  std::vector<const Source*> out;
  for (const char* ext : exts) {
    std::vector<fs::path> files;
    if (fs::exists(root / dir))
      for (const auto& e : fs::recursive_directory_iterator(root / dir))
        if (e.is_regular_file() && e.path().extension() == ext)
          files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto& f : files) out.push_back(&load(root, f));
  }
  return out;
}

/// The first index in [b, e) where `pattern` matches within [b, e), else e.
std::size_t first_match(const std::vector<Token>& t, std::size_t b,
                        std::size_t e, std::string_view pattern) {
  for (; b < e; ++b)
    if (const std::size_t m = match(t, b, pattern); m != 0 && m <= e) break;
  return b;
}

/// A function definition head: `cls::fn`.
struct Def {
  std::string cls, fn;
  [[nodiscard]] bool ctor() const { return !cls.empty() && cls == fn; }
};

/// The definition enclosing `line`, judged by the nearest head at or above
/// it: a line holding `Cls::fn(` — with `column0`, only lines starting in
/// column 0 (out-of-line definitions do; qualified calls such as std::move(
/// sit in indented statements) — or, with `in_class`, a line opening with
/// `[explicit] Name(` in a file that defines class Name (an in-class
/// constructor, returned as Name::Name). Empty when no head is found.
Def enclosing_def(const Source& s, long line, bool column0, bool in_class) {
  const std::vector<Token>& t = s.toks;
  for (long l = line; l >= 1; --l) {
    const std::size_t b = s.line_begin(l), e = s.line_begin(l + 1);
    if (b == e) continue;
    const std::size_t k = first_match(t, b, e, "$ :: ~? $ (");
    const bool col0 = t[b].pos == 0 || s.code[t[b].pos - 1] == '\n';
    if (k < e && (col0 || !column0)) {
      Def d{std::string(t[k].text), t[k + 2].is("~") ? "~" : ""};
      d.fn += t[d.fn.empty() ? k + 2 : k + 3].text;
      return d;
    }
    const std::size_t n = match(t, b, "explicit? $ (");
    if (in_class && n != 0 && n <= e && s.classes.count(t[n - 2].text) != 0U)
      return {std::string(t[n - 2].text), std::string(t[n - 2].text)};
  }
  return {};
}

// ---- raw-unit ------------------------------------------------------------

void check_raw_unit(const fs::path& root) {
  // Unit/identity suffixes for which src/common/{types,units}.hpp provides a
  // strong type. A declaration like `double energy_j` should be
  // `units::Joules energy`, `std::uint64_t start_cycle` should be `Cycle`.
  static constexpr std::string_view kSuffixes[] = {
      "_j",  "_pj", "_nj",  "_w",    "_mw",     "_s",      "_ps",
      "_ns", "_hz", "_m",   "_mm",   "_um",     "_mm2",    "_um2",
      "_per_m", "_cycle", "_cycles", "_addr", "_line"};
  auto unit_suffixed = [](std::string_view n) {  // [a-z][a-z0-9_]*<suffix>
    return std::islower(static_cast<unsigned char>(n[0])) != 0 &&
           n.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789_") ==
               std::string_view::npos &&
           std::any_of(std::begin(kSuffixes), std::end(kSuffixes),
                       [&](std::string_view x) {
                         return n.size() > x.size() && n.ends_with(x);
                       });
  };
  for (const Source* s : sources(root, "src", {".hpp"})) {
    // The strong-type layer itself defines the raw-double boundary
    // (constructors and to_* escape accessors).
    if (s->rel == "src/common/units.hpp" || s->rel == "src/common/types.hpp")
      continue;
    long last = 0;
    for (std::size_t k = 0; k < s->toks.size(); ++k) {
      const Token& t = s->toks[k];
      if (t.line == last ||
          match(s->toks, k, "double|uint64_t $ ;|=|{|,|)|(") == 0 ||
          !unit_suffixed(s->toks[k + 1].text))
        continue;
      last = t.line;
      if (s->has(last, "allow-raw-unit")) continue;
      report(s->path, last, "raw-unit",
             "raw numeric declaration '" + std::string(s->toks[k + 1].text) +
                 "' carries a unit/identity suffix; use the strong type "
                 "from common/types.hpp or common/units.hpp (or annotate "
                 "'tcmplint: allow-raw-unit' with a reason)");
    }
  }
}

// ---- msgtype-tables ------------------------------------------------------

void check_msgtype_tables(const fs::path& root) {
  const Source& hdr = load(root, root / "src/protocol/coherence_msg.hpp");
  if (hdr.raw.empty()) {
    report(hdr.path, 0, "msgtype-tables", "cannot read MsgType header");
    return;
  }
  const std::vector<Token>& t = hdr.toks;
  std::size_t k = first_match(t, 0, t.size(), "enum class MsgType");
  k = first_match(t, k, t.size(), "{");
  if (k == t.size()) {
    report(hdr.path, 0, "msgtype-tables", "cannot locate enum class MsgType");
    return;
  }
  // Enumerators: the `kName` after the '{' and after each ','.
  std::vector<std::string> enumerators;
  for (; k + 1 < t.size() && !t[k].is("}"); ++k)
    if (match(t, k, "{|, $") != 0 && t[k + 1].text.size() > 1 &&
        t[k + 1].text[0] == 'k')
      enumerators.emplace_back(t[k + 1].text);
  const std::size_t c =  // the value of `constexpr unsigned kNumMsgTypes =`
      first_match(t, 0, t.size(), "constexpr unsigned kNumMsgTypes =") + 4;
  if (c >= t.size() ||
      std::isdigit(static_cast<unsigned char>(t[c].text[0])) == 0) {
    report(hdr.path, 0, "msgtype-tables", "kNumMsgTypes constant not found");
  } else if (std::stoul(std::string(t[c].text)) != enumerators.size()) {
    report(hdr.path, 0, "msgtype-tables",
           "kNumMsgTypes = " + std::string(t[c].text) + " but enum has " +
               std::to_string(enumerators.size()) + " enumerators");
  }
  for (const char* table :
       {"src/protocol/coherence_msg.cpp", "src/verify/wire_check.cpp"}) {
    const Source& s = load(root, root / table);
    std::set<std::string_view> used;  // every `MsgType::kX`
    for (std::size_t i = 0; i < s.toks.size(); ++i)
      if (match(s.toks, i, "MsgType :: $") != 0)
        used.insert(s.toks[i + 2].text);
    for (const auto& e : enumerators)
      if (used.count(e) == 0U)
        report(s.path, 0, "msgtype-tables",
               "MsgType::" + e + " missing from this classification table");
  }
}

// ---- stat-registration ---------------------------------------------------

void check_stat_registration(const fs::path& root) {
  // A ScalarStat/Histogram constructed directly (member or local) is never
  // registered with StatRegistry, so it silently vanishes from reports.
  for (const Source* s : sources(root, "src", {".hpp", ".cpp"})) {
    if (s->rel == "src/common/stats.hpp" || s->rel == "src/common/stats.cpp")
      continue;  // the registry's own storage
    for (std::size_t k = 0; k < s->toks.size(); ++k) {
      const std::size_t e =
          match(s->toks, k, "tcmp? ::? ScalarStat|Histogram $ {|;|=|(");
      if (e == 0 || !s->first_on_line(k) ||
          s->has(s->toks[k].line, "allow-local-stat"))
        continue;
      report(s->path, s->toks[k].line, "stat-registration",
             std::string(s->toks[e - 3].text) + " '" +
                 std::string(s->toks[e - 2].text) +
                 "' constructed outside StatRegistry — it will never "
                 "appear in reports; register it via StatRegistry (or "
                 "annotate 'tcmplint: allow-local-stat' with a reason)");
    }
  }
}

// ---- stat-string-hot-path / obs-emit-interned ----------------------------

/// Reports each `<call>("` (call from the '|'-separated `calls`) in the
/// hot-path directories that sits outside a constructor or init function
/// (see enclosing_def for `column0`) and has no `tcmplint: <tag>` on its
/// line. `what` finishes the message.
void check_init_only(const fs::path& root, const char* rule,
                     const std::string& calls, bool column0, const char* tag,
                     const std::string& what) {
  const std::string call = calls + " ( \"";
  for (const char* dir :
       {"protocol", "noc", "het", "core", "cmp", "obs", "verify"}) {
    for (const Source* s :
         sources(root, fs::path("src") / dir, {".hpp", ".cpp"})) {
      const std::vector<Token>& t = s->toks;
      for (long l = 1; l <= static_cast<long>(s->lines.size()); ++l) {
        const std::size_t e = s->line_begin(l + 1);
        const std::size_t k = first_match(t, s->line_begin(l), e, call);
        if (k == e || s->has(l, tag)) continue;
        const Def d = enclosing_def(*s, l, column0, true);
        if (d.ctor() || d.fn.find("init") != std::string::npos) continue;
        report(s->path, l, rule,
               "'" + std::string(t[k].text) + "(\"...\")' " + what +
                   ", or annotate 'tcmplint: " + tag + "' with a reason");
      }
    }
  }
}

void check_stat_string_hot_path(const fs::path& root) {
  // Per-event string-keyed registry lookups are a map walk plus string
  // compares on every bump; the hot-path contract (common/stats.hpp) is to
  // resolve once via counter_ref/scalar_ref/histogram_ref at construction.
  // The sanctioned calls (counter_ref(, counter_value(, find_counter(, ...)
  // are other tokens.
  check_init_only(root, "stat-string-hot-path", "counter|scalar|histogram",
                  false, "allow-stat-string",
                  "is a string-keyed StatRegistry lookup on a hot path — "
                  "resolve a *_ref handle once at construction and bump "
                  "through it (see the hot-path contract in "
                  "common/stats.hpp)");
}

void check_obs_emit_interned(const fs::path& root) {
  // The stat-string-hot-path rule bans `counter("...")` bumps, but a
  // `counter_ref("...")` resolved at the emit site is the same map walk in a
  // handle costume. Interning is only an optimization when it happens once:
  // _ref calls with inline string literals are confined to constructors and
  // init functions, where the handle is cached for the run. Only column-0
  // heads end the walk back: out-of-class definitions start unindented,
  // while qualified calls (std::move(, protocol::to_string() sit inside
  // indented statements.
  check_init_only(root, "obs-emit-interned",
                  "counter_ref|scalar_ref|histogram_ref", true,
                  "allow-string-emit",
                  "resolves an emit-site handle outside init — intern the "
                  "handle once at construction/init and emit through it "
                  "(hot-path contract, common/stats.hpp)");
}

// ---- scheduled-contract --------------------------------------------------

void check_scheduled_contract(const fs::path& root) {
  // A component with a per-cycle tick(Cycle) that does not expose
  // next_event()/quiescent() is invisible to CmpSystem::partition_next_wake:
  // dead-cycle skipping would jump over cycles where it had work. Only the bare `tick(Cycle`
  // entry point implies kernel-driven stepping; sample_tick and friends are
  // other tokens.
  for (const Source* s : sources(root, "src", {".hpp"})) {
    const std::vector<Token>& t = s->toks;
    const std::size_t tick =
        first_match(t, 0, t.size(), "tick ( tcmp? ::? Cycle");
    if (tick == t.size() ||
        s->raw.find("tcmplint: allow-unscheduled-tick") != std::string::npos ||
        (first_match(t, 0, t.size(), "next_event (") < t.size() &&
         first_match(t, 0, t.size(), "quiescent (") < t.size()))
      continue;
    report(s->path, t[tick].line, "scheduled-contract",
           "declares tick(Cycle) but not the wake contract (next_event() + "
           "quiescent()); the dead-cycle skip would miss this component's "
           "work — implement both and read them in "
           "CmpSystem::partition_next_wake and partition_quiescent (see "
           "docs/kernel.md), or annotate 'tcmplint: allow-unscheduled-tick' "
           "with a reason");
  }
}

// ---- mutable-static ------------------------------------------------------

void check_mutable_static(const fs::path& root) {
  // A non-const static-duration object is mutable state shared by every
  // sweep worker thread — exactly what the tile-ownership story (and TSan)
  // must not find. `static const`/`static constexpr` are immutable after a
  // thread-safe once-init; `static std::atomic<...>` is race-free by type.
  // Everything else needs the allow-comment and a mutex-guarded design.
  for (const Source* s : sources(root, "src", {".hpp", ".cpp"})) {
    const std::vector<Token>& t = s->toks;
    for (std::size_t k = 0; k < t.size(); ++k) {
      // `[inline] static TYPE [*]name [[n]] =|{|;` opening a line, TYPE
      // being words, `::`, `:`, `<>`, `,`, `&` and `*`.
      const std::size_t type = match(t, k, "inline? static $");
      if (type == 0 || !s->first_on_line(k)) continue;
      std::size_t name = type - 1;
      for (std::size_t n = type; n < t.size() && name == type - 1; ++n) {
        std::size_t p = n;  // '*'s glued to the name
        while (t[p - 1].is("*") && t[p - 1].end() == t[p].pos) --p;
        if (t[n].ident() && p >= type && t[p].pos > t[p - 1].end() &&
            match(t, tcmplint::past(t, n + 1, "[", "]"), "=|{|;") != 0)
          name = n;
        else if (!tcmplint::word_char(t[n].text[0]) &&
                 !one_of(t[n], "::|:|<|>|,|&|*"))
          break;
      }
      if (name == type - 1 || s->has(t[k].line, "allow-mutable-static"))
        continue;
      bool immutable = false;
      for (std::size_t i = type - 1; i < name; ++i)
        immutable = immutable || one_of(t[i], "const|constexpr") ||
                    (match(t, i, "std :: $") != 0 &&
                     t[i + 2].text.starts_with("atomic"));
      if (immutable) continue;
      report(s->path, t[k].line, "mutable-static",
             "mutable static '" + std::string(t[name].text) +
                 "' is shared state every sweep thread can reach — make it "
                 "const/constexpr, std::atomic, or a mutex-guarded "
                 "singleton annotated 'tcmplint: allow-mutable-static' "
                 "with a reason");
    }
  }
}

// ---- tile-escape ---------------------------------------------------------

void check_tile_escape(const fs::path& root) {
  // The invariant the partitioned driver (docs/partitioning.md) cuts along:
  // a tile's components (L1, L1I, directory slice, core, NIC) are owned by
  // that tile, and nothing outside the sanctioned seams may hold a raw
  // pointer/reference into them — cross-tile interaction flows through the
  // NIC/message seam, a partition boundary. Two per-line matches:
  //   (a) declarations of `TileType*` / `TileType&` anywhere in src/;
  //   (b) bindings that materialize a component handle from the tile table
  //       (`= *tiles_[..]->comp`, `x = t->comp.get()` captures).
  // Allowed without annotation: the type's own translation unit, the
  // documented same-tile collaborator edges (core/ -> L1Cache/ICache), and
  // constructor wiring (the nearest qualified `X::X(` line above is a
  // constructor head).
  // Everything else must carry `tcmplint: tile-seam (reason)` — the
  // annotated sites are the complete inventory of places the partitioned
  // driver had to turn into messages (it has: see docs/partitioning.md),
  // which is why the reasons in src/cmp/system.* are further held to the
  // closed prefix set below.
  struct Edge {
    const char* file_substr;  // TU allowed to hold the handle
    const char* type;
  };
  static const Edge kAllowedEdges[] = {
      // A type's own TU.
      {"protocol/l1_cache.", "L1Cache"},
      {"protocol/icache.", "ICache"},
      {"protocol/directory.", "Directory"},
      {"core/core_model.", "Core"},
      {"het/nic.", "TileNic"},
      // Same-tile collaborators, wired once at construction: the core
      // drives its own tile's L1/L1I directly (that pair never crosses a
      // partition boundary).
      {"core/core_model.", "L1Cache"},
      {"core/core_model.", "ICache"},
  };
  // The partitioned driver (docs/partitioning.md) eliminated every
  // cross-tile seam in the CmpSystem driver: delivery, the slack beneficiary
  // probe, and report aggregation now cross partitions via boundary-channel
  // messages and merged stat shards. What legitimately remains in
  // src/cmp/system.* is a closed set — same-tile construction wiring and
  // single-threaded access between partition phases (tests/verify, report
  // and warmup aggregation). The annotation reason there must say which,
  // by prefix; a reason outside the set means a cross-partition seam crept
  // back in and must be routed through the boundary channels instead.
  auto seam_reason_ok = [](const std::string& rel, const std::string& l,
                           std::size_t apos) {
    if (rel.rfind("src/cmp/system.", 0) != 0) return true;
    const auto open = l.find('(', apos);
    if (open == std::string::npos) return false;
    std::string reason = l.substr(open + 1);
    const auto ns = reason.find_first_not_of(" \t");
    if (ns == std::string::npos) return false;
    reason = reason.substr(ns);
    return reason.rfind("same-tile", 0) == 0 ||
           reason.rfind("single-threaded", 0) == 0;
  };
  for (const Source* s : sources(root, "src", {".hpp", ".cpp"})) {
    const std::vector<Token>& t = s->toks;
    for (long l = 1; l <= static_cast<long>(s->lines.size()); ++l) {
      // The seam annotation may sit on the line itself or the line above
      // (bind sites inside wrapped expressions get long).
      const std::string& raw = s->lines[static_cast<std::size_t>(l - 1)];
      if (const auto apos = raw.find("tcmplint: tile-seam");
          apos != std::string::npos) {
        if (!seam_reason_ok(s->rel, raw, apos))
          report(s->path, l, "tile-escape",
                 "tile-seam reason in src/cmp/system.* must start with "
                 "'same-tile' or 'single-threaded' — the partitioned "
                 "driver retired every cross-partition seam there; route "
                 "new cross-partition interaction through the boundary "
                 "channels (docs/partitioning.md)");
        continue;
      }
      const std::size_t b = s->line_begin(l), e = s->line_begin(l + 1);
      if (s->has(l - 1, "tile-seam")) continue;
      std::string what;
      if (const std::size_t k = first_match(
              t, b, e, "L1Cache|ICache|Directory|Core|TileNic const? *|&");
          k < e) {
        if (std::any_of(std::begin(kAllowedEdges), std::end(kAllowedEdges),
                        [&](const Edge& edge) {
                          return s->rel.find(edge.file_substr) !=
                                     std::string::npos &&
                                 t[k].is(edge.type);
                        }))
          continue;
        what = "raw handle to tile-owned type '" + std::string(t[k].text) + "'";
      } else {
        // `= [*][&]name[[...]]->l1|l1i|dir|core|nic`
        for (std::size_t k = b; k < e && what.empty(); ++k) {
          const std::size_t name_end = match(t, k, "= *? &? $");
          if (name_end == 0) continue;
          const std::size_t j = tcmplint::past(t, name_end, "[", "]");
          if (j + 1 < e && match(t, j, "-> l1|l1i|dir|core|nic") != 0)
            what = "binding of per-tile component handle '" +
                   std::string(t[j + 1].text) + "'";
        }
      }
      if (what.empty() || enclosing_def(*s, l, false, false).ctor()) continue;
      report(s->path, l, "tile-escape",
             what +
                 " escapes the tile-ownership seams (NIC/message path, "
                 "constructor wiring) — route the "
                 "interaction through a message, or annotate "
                 "'tcmplint: tile-seam' with the partition-boundary "
                 "reason (docs/static-analysis.md)");
    }
  }
}

// ---- cross-TU class/field model (tcmplint_model.hpp) ---------------------
//
// The model rules below share one parse of src/ into a class model: fields
// with types and initializers, constructor mem-init lists (including
// out-of-line definitions in .cpp — the cross-TU part), and method bodies.
// Built lazily, once per process.

const tcmplint::Model& class_model(const fs::path& root) {
  static std::map<std::string, tcmplint::Model> cache;
  const std::string key = (root / "src").string();
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, tcmplint::build_model_from_dir(root / "src"))
             .first;
  return it->second;
}

std::string path_stem(const std::string& p) {
  const std::size_t dot = p.rfind('.');
  return dot == std::string::npos ? p : p.substr(0, dot);
}

// ---- guarded-field -------------------------------------------------------

void check_guarded_field(const fs::path& root) {
  // A class that owns a Mutex has declared "my fields are shared"; every
  // sibling data member must then say which lock protects it, so Clang's
  // -Wthread-safety can reject unlocked access paths. Static members,
  // nested classes and anything function-shaped are not data members.
  for (const auto& c : class_model(root).classes) {
    const auto mu =
        std::find_if(c.fields.begin(), c.fields.end(), [](const auto& f) {
          return !f.is_static &&
                 (f.type == "Mutex" || f.type == "tcmp::Mutex" ||
                  f.type == "std::mutex");
        });
    if (mu == c.fields.end()) continue;
    const Source& s = load(root, c.file);
    if (s.rel == "src/common/sync.hpp") continue;  // the wrappers themselves
    for (const auto& fd : c.fields) {
      const std::string& line = s.lines[static_cast<std::size_t>(fd.line - 1)];
      if (&fd == &*mu || fd.is_static ||
          line.find("TCMP_GUARDED_BY") != std::string::npos ||
          s.has(fd.line, "allow-unguarded-field"))
        continue;
      report(fd.file, fd.line, "guarded-field",
             "field '" + fd.name + "' shares a class with mutex '" + mu->name +
                 "' but carries no TCMP_GUARDED_BY annotation "
                 "(common/sync.hpp) — annotate the lock that protects it, "
                 "or 'tcmplint: allow-unguarded-field' with a reason");
    }
  }
}
// ---- nondet-iteration ----------------------------------------------------

void check_nondet_iteration(const fs::path& root) {
  // Iterating an unordered_map/unordered_set visits elements in hash-table
  // order — a function of libstdc++ internals, insertion history and the
  // hash seed, none of which the golden reports or the partitioned kernel
  // can pin down. Any loop over an unordered container in src/ must
  // either switch to an ordered container, sort a snapshot before acting on
  // it, or prove the body commutative with an inline
  // `tcmplint: order-insensitive (reason)` annotation. The container may be
  // declared in another TU (a class member in the header, iterated in the
  // .cpp) — that resolution is what the class model is for.
  const tcmplint::Model& model = class_model(root);
  for (const Source* s : sources(root, "src", {".hpp", ".cpp"})) {
    const std::string fname = s->path.generic_string();
    const std::string stem = path_stem(fname);
    // Names of unordered-typed variables visible in this file: members of
    // classes defined here or in the stem-paired header/source, members
    // of any class with an out-of-line method body in this file, plus
    // local/parameter declarations matched below.
    std::set<std::string, std::less<>> unordered;
    for (const auto& c : model.classes) {
      bool related = c.file == fname || path_stem(c.file) == stem;
      for (const auto& b : c.bodies) related = related || b.file == fname;
      for (const auto& fd : c.fields)
        if (related && (fd.type.find("unordered_map") != std::string::npos ||
                        fd.type.find("unordered_set") != std::string::npos))
          unordered.insert(fd.name);
    }
    const std::vector<Token>& t = s->toks;
    // `unordered_map|set<...> [&|*]name ;|,|)|=|(|{`, the '>' being the last
    // one on the line that fits.
    for (std::size_t k = 0; k < t.size(); ++k) {
      if (match(t, k, "unordered_map|unordered_set <") == 0) continue;
      const std::size_t e = s->line_begin(t[k].line + 1);
      for (std::size_t g = e; g-- > k + 1;) {
        const std::size_t n = match(t, g, "> &|*? $ ;|,|)|=|(|{");
        if (n != 0 && n <= e) {
          unordered.emplace(t[n - 2].text);
          k = n - 1;
          break;
        }
      }
    }
    if (unordered.empty()) continue;
    auto is_unordered = [&](const Token& r) {
      return unordered.count(r.text) != 0U;
    };
    for (long l = 1; l <= static_cast<long>(s->lines.size()); ++l) {
      if (s->annotated(l, "order-insensitive")) continue;
      const std::size_t b = s->line_begin(l), e = s->line_begin(l + 1);
      // `for (decl : range)`: the colon is the last single ':' before the
      // first ')' or ';'; the head may wrap onto three more lines.
      for (std::size_t k = first_match(t, b, e, "for ("); k < e;
           k = first_match(t, k + 1, e, "for (")) {
        std::size_t colon = 0, stop = k + 2;
        for (; stop < s->line_begin(l + 4) && !one_of(t[stop], ")|;"); ++stop)
          if (t[stop].is(":")) colon = stop;
        if (colon <= k + 2 || !at(t, stop, ")")) continue;
        const auto first = t.begin() + static_cast<long>(colon) + 1,
                   last = t.begin() + static_cast<long>(stop);
        if (const auto hit = std::find_if(first, last, is_unordered);
            hit != last)
          report(s->path, l, "nondet-iteration",
                 "range-for over unordered container '" +
                     std::string(hit->text) +
                     "' — iteration order is not deterministic across "
                     "stdlib implementations; use an ordered container, "
                     "sort a snapshot first, or annotate "
                     "'tcmplint: order-insensitive' with a proof the "
                     "body is commutative");
        break;
      }
      // `name.begin(` / `name.cbegin(`
      for (std::size_t k = first_match(t, b, e, "$ . begin|cbegin ("); k < e;
           k = first_match(t, k + 1, e, "$ . begin|cbegin (")) {
        if (!is_unordered(t[k])) continue;
        report(s->path, l, "nondet-iteration",
               "iterator walk over unordered container '" +
                   std::string(t[k].text) +
                   "' — iteration order is not deterministic; use an "
                   "ordered container, sort a snapshot first, or "
                   "annotate 'tcmplint: order-insensitive' with a proof "
                   "the body is commutative");
        break;
      }
    }
  }
}

// ---- uninit-member -------------------------------------------------------

bool scalar_like_type(const std::string& type,
                      const std::set<std::string>& enum_types) {
  static const std::set<std::string> kScalars = {
      "bool",           "char",          "signed char",  "unsigned char",
      "short",          "unsigned short", "int",          "unsigned",
      "unsigned int",   "long",          "unsigned long", "long long",
      "unsigned long long", "float",     "double",       "long double",
      "size_t",         "std::size_t",   "ptrdiff_t",    "std::ptrdiff_t",
      "std::byte",      "char32_t",      "char16_t",     "wchar_t",
      "int8_t",         "int16_t",       "int32_t",      "int64_t",
      "uint8_t",        "uint16_t",      "uint32_t",     "uint64_t",
      "std::int8_t",    "std::int16_t",  "std::int32_t", "std::int64_t",
      "std::uint8_t",   "std::uint16_t", "std::uint32_t", "std::uint64_t",
      "std::uintptr_t", "std::intptr_t",
  };
  // Qualifiers don't change initialization semantics: drop them, keeping
  // one space wherever the declaration had whitespace.
  std::string t;
  std::size_t prev_end = 0;
  for (const Token& tok : tcmplint::lex(type)) {
    if (one_of(tok, "const|mutable|volatile")) continue;
    if (!t.empty() && type.find(' ', prev_end) < tok.pos) t += ' ';
    t += tok.text;
    prev_end = tok.end();
  }
  if (!t.empty() && t.back() == '*') return true;  // raw pointer
  if (kScalars.count(t) != 0U) return true;
  if (enum_types.count(t) != 0U) return true;
  // Namespace-qualified enum (`protocol::L1State`).
  const std::size_t sep = t.rfind("::");
  if (sep != std::string::npos &&
      enum_types.count(t.substr(sep + 2)) != 0U &&
      t.compare(0, 5, "std::") != 0)
    return true;
  return false;
}

void check_uninit_member(const fs::path& root) {
  // A scalar/pointer/enum member with neither a default member initializer
  // nor coverage in every constructor's mem-init list is indeterminate
  // until first assignment — reads before that are UB and, worse for this
  // repo, *nondeterministic*: the goldens cannot localize a stack-residue
  // value that happens to differ between hosts. Class-typed members
  // default-construct and are exempt; the strong types (Cycle, LineAddr,
  // Quantity, CounterRef, ...) all zero-initialize themselves.
  const tcmplint::Model& model = class_model(root);
  for (const auto& c : model.classes) {
    // Non-deleted constructors; delegating ctors inherit the target's
    // coverage and don't count against a member.
    std::vector<const tcmplint::Ctor*> ctors;
    for (const auto& ct : c.ctors)
      if (!ct.deleted && !ct.delegating) ctors.push_back(&ct);
    for (const auto& fd : c.fields) {
      if (fd.is_static || fd.is_reference || fd.has_init) continue;
      if (!scalar_like_type(fd.type, model.enum_types)) continue;
      bool covered = !ctors.empty();
      for (const auto* ct : ctors)
        if (std::find(ct->inits.begin(), ct->inits.end(), fd.name) ==
            ct->inits.end())
          covered = false;
      if (covered || load(root, fd.file).annotated(fd.line, "allow-uninit"))
        continue;
      report(fd.file, fd.line, "uninit-member",
             "member '" + fd.name + "' of " + c.qual + " (type '" + fd.type +
                 "') has no default member initializer and is not covered "
                 "by every constructor's init list — an uninitialized read "
                 "is UB and nondeterministic; add '= ...' / '{}' (or "
                 "annotate 'tcmplint: allow-uninit' with a reason)");
    }
  }
}

// ---- reset-coverage / snapshot-coverage ----------------------------------

/// Reports each member of `c` that none of `bodies` mentions, unless
/// `skip(field)` or a `tcmplint: <tag>` annotation at its declaration.
template <typename Skip>
void check_mentions(const fs::path& root, const tcmplint::ClassInfo& c,
                    const std::vector<const tcmplint::MethodBody*>& bodies,
                    const char* rule, const char* tag, Skip skip,
                    const std::string& what, const std::string& fix) {
  std::set<std::string_view> mentioned;
  for (const auto* b : bodies)
    for (const Token& t : tcmplint::lex(b->body)) mentioned.insert(t.text);
  for (const auto& fd : c.fields) {
    if (fd.is_static || skip(fd) || mentioned.count(fd.name) != 0U ||
        load(root, fd.file).annotated(fd.line, tag))
      continue;
    report(bodies.front()->file, bodies.front()->line, rule,
           what + " does not mention member '" + fd.name + "' (" + fd.file +
               ":" + std::to_string(fd.line) + ") — " + fix);
  }
}

void check_reset_coverage(const fs::path& root) {
  // A reset()/zero_all()-style lifecycle method that silently skips a data
  // member leaks state across what callers believe is a clean boundary.
  // Every data member must be mentioned in the method body (the body may
  // live in another TU), be covered by a whole-object `*this = ...;`
  // reassignment, or carry a `tcmplint: reset-exempt (reason)` annotation
  // at its declaration.
  const tcmplint::Model& model = class_model(root);
  for (const auto& c : model.classes) {
    for (const char* method :
         {"reset", "zero_all", "clear_values", "clear_stats"}) {
      const auto bodies = c.bodies_of(method);
      if (bodies.empty()) continue;
      bool whole = false;  // a whole-object `*this = ...;`
      for (const auto* b : bodies) {
        const std::vector<Token> t = tcmplint::lex(b->body);
        whole = whole || first_match(t, 0, t.size(), "* this =") < t.size();
      }
      if (whole) continue;
      check_mentions(root, c, bodies, "reset-coverage", "reset-exempt",
                     [](const tcmplint::Field&) { return false; },
                     c.qual + "::" + method + "()",
                     "reset it, or annotate the member 'tcmplint: "
                     "reset-exempt' with the reason it survives");
    }
  }
}

void check_snapshot_coverage(const fs::path& root) {
  // The checkpoint/restore mirror of reset-coverage: a class that takes part
  // in snapshotting — it defines snapshot_io() (the archive walker,
  // common/snapshot.hpp) or a save()/load() serializer pair — must account
  // for every data member in those bodies. A member silently skipped by the
  // serializer restores to its constructed value, which desynchronizes the
  // restored run from the uninterrupted one in a way the byte-identity
  // goldens can only localize to "somewhere". Members that are runtime
  // attachments rather than simulation state (raw pointers, references,
  // std::function callbacks, and the StatRegistry handle types, all re-wired
  // by the constructor) are skipped automatically; anything else that
  // legitimately survives restore without serialization must carry a
  // `tcmplint: snapshot-exempt (reason)` annotation at its declaration.
  const tcmplint::Model& model = class_model(root);
  auto attachment = [](const tcmplint::Field& fd) {
    const std::vector<Token> t = tcmplint::lex(fd.type);
    return fd.is_reference || t.back().is("*") ||
           first_match(t, 0, t.size(), "std :: function") < t.size() ||
           std::any_of(t.begin(), t.end(), [](const Token& k) {
             return one_of(k, "CounterRef|ScalarRef|HistogramRef");
           });
  };
  for (const auto& c : model.classes) {
    std::vector<const tcmplint::MethodBody*> bodies =
        c.bodies_of("snapshot_io");
    if (bodies.empty()) {
      const auto saves = c.bodies_of("save");
      const auto loads = c.bodies_of("load");
      if (saves.empty() || loads.empty()) continue;  // not a serializer pair
      bodies.insert(bodies.end(), saves.begin(), saves.end());
      bodies.insert(bodies.end(), loads.begin(), loads.end());
    }
    check_mentions(root, c, bodies, "snapshot-coverage", "snapshot-exempt",
                   attachment, c.qual + "'s snapshot serializer",
                   "serialize it, or annotate the member 'tcmplint: "
                   "snapshot-exempt' with the reason it is rebuilt on "
                   "restore instead");
  }
}

// ---- ambient-nondeterminism ----------------------------------------------

void check_ambient_nondet(const fs::path& root) {
  // The simulator's reproducibility contract: all randomness flows through
  // the seeded tcmp::Rng (common/rng.hpp) and all host-environment reads
  // through common/env.hpp, so a (binary, flags, seed) triple fully
  // determines every report byte. Wall-clock time is allowed only in the
  // self-profiler (sim/profiler.hpp, steady_clock — measurement, never
  // simulation input). Everything else in src/ must not touch ambient
  // entropy: C rand/time, std::random_device, the std engines, system
  // clocks, getenv.
  static const char* kAllowedFiles[] = {
      "src/common/rng.hpp",   // the seeded PRNG itself
      "src/common/env.hpp",   // the sanctioned getenv wrapper
      "src/sim/profiler.hpp", // wall-clock self-profiling (output-only)
  };
  for (const Source* s : sources(root, "src", {".hpp", ".cpp"})) {
    if (std::find(std::begin(kAllowedFiles), std::end(kAllowedFiles),
                  s->rel) != std::end(kAllowedFiles))
      continue;
    const std::vector<Token>& t = s->toks;
    for (long l = 1; l <= static_cast<long>(s->lines.size()); ++l) {
      if (s->annotated(l, "allow-ambient")) continue;
      const std::size_t b = s->line_begin(l), e = s->line_begin(l + 1);
      std::string what;
      if (const std::size_t k =
              first_match(t, b, e,
                   "rand|srand|rand_r|getenv|time|gettimeofday|"
                   "clock_gettime|timespec_get (");
          k < e)
        what = std::string(t[k].text) + "()";
      for (std::size_t k = b; k < e && what.empty(); ++k)
        if (one_of(t[k], "random_device|mt19937|mt19937_64|minstd_rand|"
                         "minstd_rand0|system_clock|high_resolution_clock") ||
            t[k].text.starts_with("ranlux"))
          what = t[k].text;
      if (what.empty()) continue;
      report(s->path, l, "ambient-nondeterminism",
             "ambient entropy source '" + what +
                 "' outside common/rng.hpp / common/env.hpp / the "
                 "profiler — route randomness through the seeded "
                 "tcmp::Rng and environment reads through common/env.hpp "
                 "so runs stay bit-reproducible (or annotate "
                 "'tcmplint: allow-ambient' with a reason)");
    }
  }
}

// ---- pragma-once ---------------------------------------------------------

void check_pragma_once(const fs::path& root) {
  for (const Source* s : sources(root, "src", {".hpp"}))
    if (s->raw.find("#pragma once") == std::string::npos)
      report(s->path, 1, "pragma-once", "header is missing #pragma once");
}

// Single source of truth for the rule set: --list-rules prints exactly this
// table, and tools/run_lint.sh enumerates it — a new rule registered here
// can never be silently skipped by the CI lint job or the seeded harness
// (which cross-checks its coverage against this list).
struct RuleEntry {
  const char* name;
  void (*run)(const fs::path& root);
};

const RuleEntry kRules[] = {
    {"raw-unit", check_raw_unit},
    {"msgtype-tables", check_msgtype_tables},
    {"stat-registration", check_stat_registration},
    {"stat-string-hot-path", check_stat_string_hot_path},
    {"obs-emit-interned", check_obs_emit_interned},
    {"scheduled-contract", check_scheduled_contract},
    {"mutable-static", check_mutable_static},
    {"guarded-field", check_guarded_field},
    {"tile-escape", check_tile_escape},
    {"nondet-iteration", check_nondet_iteration},
    {"uninit-member", check_uninit_member},
    {"reset-coverage", check_reset_coverage},
    {"snapshot-coverage", check_snapshot_coverage},
    {"ambient-nondeterminism", check_ambient_nondet},
    {"pragma-once", check_pragma_once},
};

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string rule = "all";
  bool dump_model = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tcmplint: %s needs an argument\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = next();
    } else if (arg == "--rule") {
      rule = next();
    } else if (arg == "--list-rules") {
      for (const RuleEntry& r : kRules) std::printf("%s\n", r.name);
      return 0;
    } else if (arg == "--dump-model") {
      dump_model = true;
    } else {
      std::fprintf(stderr,
                   "usage: tcmplint --root <dir> [--rule <name>] "
                   "[--dump-model] | tcmplint --list-rules\n");
      return 2;
    }
  }
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "tcmplint: no src/ under %s\n", root.string().c_str());
    return 2;
  }
  if (dump_model) {
    // Debug view of the cross-TU class model the determinism rules share.
    for (const auto& c : class_model(root).classes) {
      std::printf("%s (%s:%ld) dir=%s base=%s\n", c.qual.c_str(),
                  c.file.c_str(), c.line, c.dir.c_str(), c.base.c_str());
      for (const auto& f : c.fields)
        std::printf("  field %s : %s%s%s\n", f.name.c_str(), f.type.c_str(),
                    f.has_init ? " [init]" : "", f.is_static ? " [static]" : "");
      for (const auto& ct : c.ctors) {
        std::printf("  ctor %s:%ld inits:", ct.file.c_str(), ct.line);
        for (const auto& n : ct.inits) std::printf(" %s", n.c_str());
        std::printf("%s\n", ct.deleted ? " [deleted]" : "");
      }
      for (const auto& b : c.bodies)
        std::printf("  body %s (%s:%ld)\n", b.name.c_str(), b.file.c_str(),
                    b.line);
    }
    return 0;
  }

  bool known = rule == "all";
  for (const RuleEntry& r : kRules) {
    if (rule == "all" || rule == r.name) {
      r.run(root);
      known = true;
    }
  }
  if (!known) {
    std::fprintf(stderr, "tcmplint: unknown rule '%s' (see --list-rules)\n",
                 rule.c_str());
    return 2;
  }

  for (const auto& f : g_findings) {
    std::fprintf(stderr, "%s:%ld: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (g_findings.empty()) {
    std::printf("tcmplint: clean (%s)\n", rule.c_str());
    return 0;
  }
  std::fprintf(stderr, "tcmplint: %zu finding(s)\n", g_findings.size());
  return 1;
}

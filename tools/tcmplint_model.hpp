// tcmplint_model — a lightweight cross-translation-unit class/field model
// shared by the determinism and state-integrity rules in tcmplint.
//
// One pass over a set of C++ sources produces, per class/struct definition:
//   - the simple and nesting-qualified name, the first base class, the
//     defining file and the owning directory under src/;
//   - every data member with its textual type, declaration line, and whether
//     it carries a default member initializer (`= x` or `{x}`);
//   - every constructor with the set of member names its mem-init list
//     covers — including constructors defined out of line in a .cpp, which
//     is the cross-TU part that line-regex rules cannot see;
//   - the body text of every method, whether defined in-class or out of
//     line (`void Directory::reset() { ... }` in directory.cpp attaches to
//     the Directory parsed from directory.hpp).
//
// The parser is deliberately *not* a C++ front end: it strips comments,
// strings and preprocessor lines, then walks braces with a scope stack and
// classifies each statement by matching its tokens (`lex`, the same lexer
// every tcmplint rule matches with). That is enough for this codebase's
// style (one declarator per line, no macros generating members), and every
// rule built on the model has an inline-annotation escape hatch for the
// residue. It must stay dependency-free: tcmplint lints the library and
// therefore cannot link against it.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tcmplint {

struct Field {
  std::string name;
  std::string type;       ///< textual type as declared (annotations stripped)
  bool has_init = false;  ///< default member initializer present
  bool is_static = false;
  bool is_reference = false;
  std::string file;
  long line = 0;  ///< 1-based declaration line
};

struct Ctor {
  std::vector<std::string> inits;  ///< member names covered by the init list
  bool delegating = false;         ///< X(...) : X(...) — covered by target
  bool deleted = false;
  std::string file;
  long line = 0;
};

struct MethodBody {
  std::string name;
  std::string body;  ///< brace contents, comments stripped
  std::string file;
  long line = 0;
};

struct ClassInfo {
  std::string name;  ///< simple name (innermost)
  std::string qual;  ///< nesting-qualified: Outer::Inner (namespaces omitted)
  std::string base;  ///< first base class, "" if none
  std::string dir;   ///< first path component under src/ ("protocol", ...)
  std::string file;
  long line = 0;
  std::vector<Field> fields;
  std::vector<Ctor> ctors;
  std::vector<std::string> declared_methods;  ///< names declared in-class
  std::vector<MethodBody> bodies;             ///< in-class + out-of-line

  [[nodiscard]] const Field* field(const std::string& n) const {
    for (const Field& f : fields)
      if (f.name == n) return &f;
    return nullptr;
  }
  [[nodiscard]] std::vector<const MethodBody*> bodies_of(
      const std::string& n) const {
    std::vector<const MethodBody*> out;
    for (const MethodBody& b : bodies)
      if (b.name == n) out.push_back(&b);
    return out;
  }
};

struct Model {
  std::vector<ClassInfo> classes;
  std::set<std::string> enum_types;  ///< names of enum / enum class types

  [[nodiscard]] const ClassInfo* find(const std::string& simple_name) const {
    for (const ClassInfo& c : classes)
      if (c.name == simple_name || c.qual == simple_name) return &c;
    return nullptr;
  }
  [[nodiscard]] std::vector<const ClassInfo*> all(
      const std::string& simple_name) const {
    std::vector<const ClassInfo*> out;
    for (const ClassInfo& c : classes)
      if (c.name == simple_name) out.push_back(&c);
    return out;
  }
};

// ---------------------------------------------------------------------------
// Pass 1: turn raw source text into structure-only text. Comments, string
// and character literal *contents*, and preprocessor lines (including their
// backslash continuations — the TCMP_CHECK macro family has unbalanced
// braces across continued lines) are replaced by spaces; newlines survive so
// offsets keep mapping to the original line numbers.
inline std::string strip_code(const std::string& text) {
  std::string out(text.size(), ' ');
  enum class St {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
    kPreproc
  };
  St st = St::kCode;
  std::string raw_delim;     // for R"delim( ... )delim"
  bool line_start = true;    // only whitespace seen on this line so far
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      out[i] = '\n';
      if (st == St::kLineComment) st = St::kCode;
      if (st == St::kPreproc && (i == 0 || text[i - 1] != '\\'))
        st = St::kCode;
      line_start = true;
      continue;
    }
    switch (st) {
      case St::kCode:
        if (line_start && c == '#') {
          st = St::kPreproc;
          break;
        }
        if (c == '/' && n == '/') {
          st = St::kLineComment;
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlockComment;
          ++i;
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          // R"delim( — capture the delimiter up to the '('.
          std::size_t j = i + 2;
          raw_delim.clear();
          while (j < text.size() && text[j] != '(') raw_delim += text[j++];
          st = St::kRawString;
          i = j;  // at '(' (or end)
        } else if (c == '"') {
          st = St::kString;
          out[i] = '"';
        } else if (c == '\'') {
          st = St::kChar;
        } else {
          out[i] = c;
        }
        break;
      case St::kString:
        if (c == '\\') {
          ++i;
          if (i < text.size() && text[i] == '\n') out[i] = '\n';
        } else if (c == '"') {
          st = St::kCode;
          out[i] = '"';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        }
        break;
      case St::kRawString: {
        // Looking for )delim"
        if (c == ')' &&
            text.compare(i + 1, raw_delim.size(), raw_delim) == 0 &&
            i + 1 + raw_delim.size() < text.size() &&
            text[i + 1 + raw_delim.size()] == '"') {
          i += raw_delim.size() + 1;
          st = St::kCode;
        }
        break;
      }
      case St::kLineComment:
      case St::kBlockComment:
        if (st == St::kBlockComment && c == '*' && n == '/') {
          st = St::kCode;
          ++i;
        }
        break;
      case St::kPreproc:
        break;
    }
    if (!std::isspace(static_cast<unsigned char>(c))) line_start = false;
  }
  return out;
}

/// One token of strip_code's blanked text.
struct Token {
  std::string_view text;
  long line = 1;        ///< 1-based
  std::size_t pos = 0;  ///< offset into the lexed text

  [[nodiscard]] bool is(std::string_view s) const { return text == s; }
  [[nodiscard]] bool ident() const {
    return std::isalpha(static_cast<unsigned char>(text[0])) != 0 ||
           text[0] == '_';
  }
  [[nodiscard]] std::size_t end() const { return pos + text.size(); }
};

inline bool word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Pass 1b: split blanked text into tokens — identifiers and numbers (runs
/// of [A-Za-z0-9_]), `::` and `->`, a string literal as one `"` token (its
/// contents are already blank), and every other non-space character on its
/// own. The text must outlive the tokens, which view into it.
inline std::vector<Token> lex(std::string_view code) {
  std::vector<Token> out;
  long line = 1;
  bool in_string = false;
  for (std::size_t i = 0, n = 1; i < code.size(); i += n, n = 1) {
    const char c = code[i];
    if (c == '\n') ++line;
    if (c == '"') in_string = !in_string;
    if (std::isspace(static_cast<unsigned char>(c)) != 0 ||
        (c == '"' && !in_string))  // a closing quote
      continue;
    if (word_char(c)) {
      while (i + n < code.size() && word_char(code[i + n])) ++n;
    } else if (code.substr(i, 2) == "::" || code.substr(i, 2) == "->") {
      n = 2;
    }
    out.push_back({code.substr(i, n), line, i});
  }
  return out;
}

inline bool at(const std::vector<Token>& t, std::size_t i,
               std::string_view s) {
  return i < t.size() && t[i].text == s;
}

/// Whether `t` is one of the '|'-separated `alts` ("$": any identifier).
inline bool one_of(const Token& t, std::string_view alts) {
  for (std::size_t a = 0; a <= alts.size();) {
    const std::size_t z = std::min(alts.find('|', a), alts.size());
    const std::string_view alt = alts.substr(a, z - a);
    if (alt == "$" ? t.ident() : t.text == alt) return true;
    a = z + 1;
  }
  return false;
}

/// Matches `pattern` at t[k...]: space-separated elements of one token each
/// (see one_of), optional when they end in '?'. Returns the index past the
/// match, or 0 when it does not match.
inline std::size_t match(const std::vector<Token>& t, std::size_t k,
                         std::string_view pattern) {
  for (std::size_t b = 0; b < pattern.size();) {
    const std::size_t e = std::min(pattern.find(' ', b), pattern.size());
    std::string_view el = pattern.substr(b, e - b);
    b = e + 1;
    const bool optional = el.size() > 1 && el.back() == '?';
    if (optional) el.remove_suffix(1);
    if (k < t.size() && one_of(t[k], el))
      ++k;
    else if (!optional)
      return 0;
  }
  return k;
}

/// Index past the `open`...`close` group (nesting counted) that starts at
/// t[i]: i itself when t[i] is no `open`, t.size() when it never closes.
inline std::size_t past(const std::vector<Token>& t, std::size_t i,
                        std::string_view open, std::string_view close) {
  if (!at(t, i, open)) return i;
  for (long depth = 0; i < t.size(); ++i) {
    depth += t[i].is(open) ? 1 : t[i].is(close) ? -1 : 0;
    if (depth == 0) return i + 1;
  }
  return i;
}

namespace detail {

inline std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\n");
  return s.substr(b, e - b + 1);
}

inline std::string collapse_ws(const std::string& s) {
  std::string out;
  bool ws = false;
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      ws = true;
      continue;
    }
    if (ws && !out.empty()) out += ' ';
    ws = false;
    out += c;
  }
  return out;
}

/// Owning directory under src/: "src/protocol/l1_cache.hpp" -> "protocol".
/// Files not under a src/ prefix yield their first path component.
inline std::string dir_of(const std::string& file) {
  std::string f = file;
  std::replace(f.begin(), f.end(), '\\', '/');
  const std::size_t src = f.rfind("src/");
  std::string tail = src == std::string::npos ? f : f.substr(src + 4);
  const std::size_t slash = tail.find('/');
  return slash == std::string::npos ? std::string() : tail.substr(0, slash);
}

// True when `head` is a constructor-ish signature whose mem-init list is
// still open, so a following '{' is a braced member initializer
// (`: width_(w), count_{0}`) rather than the function body: the body's '{'
// follows ')' or '}', never the bare member identifier.
inline bool opens_init_brace(const std::string& head) {
  const std::vector<Token> t = lex(head);
  std::size_t k = 0;
  while (k < t.size() && !t[k].is("(")) ++k;
  // A top-level ':' after the parameter list opens an init list.
  long depth = 0;
  for (k = past(t, k, "(", ")"); k < t.size(); ++k) {
    depth += one_of(t[k], "(|{") ? 1 : one_of(t[k], ")|}") ? -1 : 0;
    if (depth == 0 && t[k].is(":")) return word_char(t.back().text.back());
  }
  return false;
}

/// Member names mentioned in a constructor mem-init list ": a_(0), b_{1}".
/// Paren/brace depth tracking keeps nested calls (`a_(f(x, {1, 2}))`) from
/// re-matching inner identifiers as init items.
inline std::vector<std::string> parse_init_list(const std::string& list) {
  std::vector<std::string> out;
  const std::vector<Token> t = lex(list);
  long depth = 0;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (depth == 0 && match(t, k, "$ (|{") != 0) out.emplace_back(t[k].text);
    depth += one_of(t[k], "(|{") ? 1 : one_of(t[k], ")|}") ? -1 : 0;
  }
  return out;
}

// ---- statement-head matchers (token patterns over a collapsed head) ------

/// Drop leading `public:` / `private:` / `protected:` specifiers.
inline std::string peel_access(std::string s) {
  for (std::vector<Token> t = lex(s);
       match(t, 0, "public|private|protected :") != 0; t = lex(s))
    s = t.size() > 2 ? s.substr(t[2].pos) : std::string();
  return s;
}

/// The first `[~]name(`: sets the name and the index of its '('.
inline bool first_call(const std::vector<Token>& t, std::string& name,
                       std::size_t& paren) {
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (match(t, k, "$ (") == 0) continue;
    name = k > 0 && t[k - 1].is("~") ? "~" : "";
    name += t[k].text;
    paren = k + 1;
    return true;
  }
  return false;
}

/// `[template <...>] class|struct [alignas(...)] [A::]Name [<...>] [final]
/// [: bases]` spanning the whole head. Anchored so variable declarations
/// ("struct Pending p") and enum heads cannot masquerade as classes. Sets
/// the innermost name and the first base's (qualified) name.
inline bool class_head(std::string_view h, std::string& name,
                       std::string& base) {
  const std::vector<Token> t = lex(h);
  std::size_t i = match(t, at(t, 0, "template") ? past(t, 1, "<", ">") : 0,
                        "class|struct");
  if (i == 0) return false;
  if (match(t, i, "alignas (") != 0)
    while (i < t.size() && !t[i++].is(")")) {
    }
  for (i = match(t, i, "$"); i != 0 && match(t, i, ":: $") != 0;) i += 2;
  if (i == 0) return false;
  name = std::string(t[i - 1].text);
  base.clear();
  i = match(t, past(t, i, "<", ">"), "final?");
  if (i == t.size()) return true;
  if (!at(t, i, ":")) return false;
  // The first base: `[virtual] [public|protected|private] A::B`.
  const std::size_t b = match(t, i + 1, "virtual? public|protected|private?");
  if (b == t.size() || !t[b].ident()) return true;
  std::size_t e = b;
  while (e + 1 < t.size() && t[e + 1].pos == t[e].end() &&
         (t[e + 1].is("::") || word_char(t[e + 1].text[0])))
    ++e;
  base = std::string(h.substr(t[b].pos, t[e].end() - t[b].pos));
  return true;
}

/// `enum [class|struct] Name [: underlying]` spanning the whole head.
inline bool enum_head(std::string_view h, std::string& name) {
  const std::vector<Token> t = lex(h);
  const std::size_t i = match(t, 0, "enum class|struct? $");
  if (i == 0 || (i < t.size() && !t[i].is(":"))) return false;
  name = std::string(t[i - 1].text);
  return true;
}

inline bool namespace_head(std::string_view h) {
  return match(lex(h), 0, "inline? namespace") != 0;
}

/// The first `Cls[<...>]::[~]fn(`: an out-of-line member definition head.
inline bool qualified_def(const std::vector<Token>& t, std::string& cls,
                          std::string& fn, std::size_t& paren) {
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (!t[k].ident()) continue;
    std::size_t j = k + 1;
    if (at(t, j, "<")) {  // template arguments, not nested
      while (++j < t.size() && !t[j].is(">") && !t[j].is("<")) {
      }
      if (!at(t, j++, ">")) continue;
    }
    const std::size_t e = match(t, j, ":: ~? $ (");
    if (e == 0) continue;
    cls = std::string(t[k].text);
    fn = t[j + 1].is("~") ? "~" : "";
    fn += t[e - 2].text;
    paren = e - 1;
    return true;
  }
  return false;
}

/// Remove thread-safety annotations (`TCMP_GUARDED_BY(mu)`) and attributes
/// (`[[nodiscard]]`): they sit between the name and the initializer.
inline std::string strip_annotations(const std::string& s) {
  const std::vector<Token> t = lex(s);
  std::string out;
  std::size_t copied = 0;
  for (std::size_t k = 0; k < t.size(); ++k) {
    std::size_t end = k;  // one past the annotation's last token
    if (t[k].text.size() > 5 && t[k].text.starts_with("TCMP_"))
      end = past(t, k + 1, "(", ")");
    else if (match(t, k, "[ [") != 0)
      end = past(t, k, "[", "]");
    if (end <= k + 1 || !one_of(t[end - 1], ")|]")) continue;
    out += s.substr(copied, t[k].pos - copied);
    copied = t[end - 1].end();
    k = end - 1;
  }
  return out + s.substr(copied);
}

/// A data member `TYPE NAME [array] [: bits] [= init | {init}]`: the name
/// is the first identifier after a space, '&', '*' or '>' that the rest of
/// the statement fits.
inline bool member_decl(const std::string& body, std::string& type,
                        std::string& name, bool& has_init) {
  const std::vector<Token> t = lex(body);
  for (std::size_t k = 1; k < t.size(); ++k) {
    if (!t[k].ident() || t[k].pos < 2 ||
        std::string_view(" &*>").find(body[t[k].pos - 1]) ==
            std::string_view::npos)
      continue;
    std::size_t j = past(t, k + 1, "[", "]");
    if (at(t, j, ":") && j + 1 < t.size() &&
        t[j + 1].text.find_first_not_of("0123456789") == std::string::npos)
      j += 2;
    has_init = j < t.size();
    if (has_init && !t[j].is("=") && !(t[j].is("{") && body.back() == '}'))
      continue;
    type = trim(body.substr(0, t[k].pos));
    name = std::string(t[k].text);
    return true;
  }
  return false;
}

struct Scope {
  enum class Kind { kNamespace, kClass, kEnum, kBlock } kind;
  long class_index = -1;       ///< into Model::classes when kind == kClass
  bool capture_body = false;   ///< kBlock capturing a method body
  std::size_t body_begin = 0;  ///< offset of first char after '{'
  std::string method_name;     ///< when capture_body
  std::string method_class;    ///< "" = attach to enclosing class scope
  long method_line = 0;
};

struct OutOfLineBody {
  std::string cls;  ///< simple class name
  MethodBody body;
};

struct OutOfLineCtor {
  std::string cls;
  Ctor ctor;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// Pass 2: scope-stack walk. `sources` are (display-name, text) pairs; order
// does not matter — out-of-line bodies are resolved against the class index
// after every file has been parsed.
inline Model build_model(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  using detail::Scope;
  Model model;
  std::vector<detail::OutOfLineBody> pending;
  std::vector<detail::OutOfLineCtor> pending_ctors;

  for (const auto& [file, raw] : sources) {
    const std::string text = strip_code(raw);
    const std::string dir = detail::dir_of(file);
    std::vector<Scope> stack;
    std::string head;           // statement text since last ; { }
    long line = 1;
    long head_line = 1;
    long init_brace = 0;  // depth of braced member initializers in an open
                          // mem-init list (`: count_{0}`)

    auto top_class = [&]() -> ClassInfo* {
      if (stack.empty() || stack.back().kind != Scope::Kind::kClass)
        return nullptr;
      return &model.classes[static_cast<std::size_t>(
          stack.back().class_index)];
    };

    auto qual_prefix = [&]() {
      std::string q;
      for (const Scope& s : stack)
        if (s.kind == Scope::Kind::kClass)
          q += model.classes[static_cast<std::size_t>(s.class_index)].name +
               "::";
      return q;
    };

    // Parse one class-scope statement (no braces, ended by ';').
    auto parse_member_stmt = [&](std::string stmt, long at_line,
                                 bool brace_init) {
      ClassInfo* cls = top_class();
      if (cls == nullptr) return;
      stmt = detail::peel_access(detail::collapse_ws(detail::trim(stmt)));
      std::vector<Token> t = lex(stmt);
      if (t.empty()) return;
      if (one_of(t[0], "using|typedef|friend|static_assert|template|operator"))
        return;
      const std::size_t after_static = match(t, 0, "inline? static");
      const bool is_static = after_static != 0 && after_static < t.size();
      if (is_static) stmt = stmt.substr(t[after_static].pos);
      stmt = detail::trim(detail::strip_annotations(stmt));
      if (stmt.empty()) return;

      if (stmt.find('(') != std::string::npos && !brace_init) {
        // Method / constructor declaration (members use `=` or `{}` init
        // only, so any paren at class scope is function-shaped).
        std::string name;
        std::size_t paren = 0;
        if (!detail::first_call(lex(stmt), name, paren)) return;
        if (name == cls->name) {
          // Only `= default` / `= delete` are constructors in their own
          // right here: a plain declaration's mem-init list lives with its
          // out-of-line definition, which is captured separately — pushing
          // an empty-init ctor for the declaration would double-count it.
          const bool defaulted = stmt.find("= default") != std::string::npos;
          const bool deleted = stmt.find("= delete") != std::string::npos;
          if (defaulted || deleted) {
            Ctor ct;
            ct.file = file;
            ct.line = at_line;
            ct.deleted = deleted;
            cls->ctors.push_back(std::move(ct));
          }
        } else {
          cls->declared_methods.push_back(name);
        }
        return;
      }
      std::string body = stmt;
      if (!body.empty() && body.back() == ';') body.pop_back();
      body = detail::trim(body);
      Field f;
      bool init = false;
      if (!detail::member_decl(body, f.type, f.name, init)) return;
      f.has_init = brace_init || init;
      f.is_static = is_static;
      f.is_reference = f.type.find('&') != std::string::npos;
      f.file = file;
      f.line = at_line;
      cls->fields.push_back(std::move(f));
    };

    for (std::size_t i = 0; i < text.size(); ++i) {
      const char c = text[i];
      if (c == '\n') {
        ++line;
        continue;
      }
      const bool in_capture =
          !stack.empty() && stack.back().kind == Scope::Kind::kBlock;
      if (c == '{') {
        // A '{' directly after an identifier in an open mem-init list is a
        // braced member initializer, not a scope: keep it in the head so the
        // init-list parse sees `count_{0}` whole.
        if (init_brace > 0 ||
            (!in_capture && detail::opens_init_brace(head))) {
          ++init_brace;
          head += c;
          continue;
        }
        // Access specifiers end in ':' (not ';'), so they accumulate into
        // the next statement's head — peel them before classifying.
        const std::string h =
            detail::peel_access(detail::collapse_ws(detail::trim(head)));
        head.clear();
        Scope s;
        s.kind = Scope::Kind::kBlock;
        const bool at_class = top_class() != nullptr;
        std::string name, base;
        if (!in_capture && detail::class_head(h, name, base)) {
          ClassInfo ci;
          ci.name = name;
          ci.qual = qual_prefix() + ci.name;
          ci.base = base;
          ci.dir = dir;
          ci.file = file;
          ci.line = head_line;
          model.classes.push_back(std::move(ci));
          s.kind = Scope::Kind::kClass;
          s.class_index = static_cast<long>(model.classes.size()) - 1;
        } else if (!in_capture && detail::enum_head(h, name)) {
          model.enum_types.insert(name);
          s.kind = Scope::Kind::kEnum;
        } else if (!in_capture && detail::namespace_head(h)) {
          s.kind = Scope::Kind::kNamespace;
        } else if (!in_capture && at_class && h.find('(') == std::string::npos &&
                   !h.empty()) {
          // Brace initializer of a data member: `Histogram slack{…};`
          parse_member_stmt(h + "{}", head_line, /*brace_init=*/true);
        } else if (!in_capture && !h.empty() &&
                   h.find('(') != std::string::npos) {
          // Function-shaped head: in-class method, out-of-line qualified
          // method, or free function. Record the body for the first two.
          std::string cls_name, fn_name;
          std::size_t params_open = std::string::npos;
          const std::vector<Token> ht = lex(h);
          if (!detail::qualified_def(ht, cls_name, fn_name, params_open) &&
              at_class)
            detail::first_call(ht, fn_name, params_open);  // enclosing class
          if (!fn_name.empty()) {
            s.capture_body = true;
            s.body_begin = i + 1;
            s.method_name = fn_name;
            s.method_class = cls_name;
            s.method_line = head_line;
            // Constructor? Parse the mem-init list between ')' and '{'.
            const std::string owner =
                !cls_name.empty() ? cls_name
                                  : (at_class ? top_class()->name : "");
            if (fn_name == owner && !owner.empty()) {
              Ctor ct;
              ct.file = file;
              ct.line = head_line;
              // The mem-init list follows the first ':' after the parameter
              // list, whose ')' is balanced from its '(' — the last ')' of
              // the head would be the last init item's.
              std::size_t colon = past(ht, params_open, "(", ")");
              while (colon < ht.size() && !ht[colon].is(":")) ++colon;
              if (colon < ht.size()) {
                ct.inits = detail::parse_init_list(h.substr(ht[colon].pos + 1));
                ct.delegating = ct.inits.size() == 1 && ct.inits[0] == owner;
              }
              if (!cls_name.empty()) {
                // Out-of-line ctor: the defining .cpp may be parsed before
                // the header that declares the class (".cpp" sorts before
                // ".hpp"), so resolution is deferred like method bodies.
                pending_ctors.push_back({cls_name, std::move(ct)});
              } else if (ClassInfo* cc = top_class()) {
                cc->ctors.push_back(ct);
              }
            }
          }
        }
        stack.push_back(s);
        head_line = line;
        continue;
      }
      if (c == '}') {
        if (init_brace > 0) {
          --init_brace;
          head += c;
          continue;
        }
        if (!stack.empty()) {
          Scope s = stack.back();
          stack.pop_back();
          if (s.capture_body) {
            MethodBody mb;
            mb.name = s.method_name;
            mb.body = text.substr(s.body_begin, i - s.body_begin);
            mb.file = file;
            mb.line = s.method_line;
            if (s.method_class.empty()) {
              if (ClassInfo* cc = top_class()) cc->bodies.push_back(mb);
            } else {
              pending.push_back({s.method_class, std::move(mb)});
            }
          }
        }
        head.clear();
        head_line = line;
        continue;
      }
      if (c == ';') {
        const bool at_class =
            !stack.empty() && stack.back().kind == Scope::Kind::kClass;
        if (at_class)
          parse_member_stmt(head, head_line, /*brace_init=*/false);
        head.clear();
        head_line = line;
        continue;
      }
      // A bare access specifier ends at ':' (not ';'), so without this it
      // would linger in the head and the *next* member statement would
      // inherit the specifier's head_line — which breaks the line-anchored
      // annotation escape hatches for the first member after `private:`.
      if (c == ':' && (i + 1 >= text.size() || text[i + 1] != ':') &&
          (i == 0 || text[i - 1] != ':')) {
        const std::string h = detail::collapse_ws(detail::trim(head));
        if (h == "public" || h == "private" || h == "protected") {
          head.clear();
            head_line = line;
          continue;
        }
      }
      // Accumulate statement head only where it can matter (outside
      // captured bodies we still track braces but skip the text). Leading
      // whitespace is not buffered so head_line lands on the first token.
      if (head.empty()) {
        if (std::isspace(static_cast<unsigned char>(c))) continue;
        head_line = line;
      }
      head += c;
    }
  }

  for (detail::OutOfLineBody& p : pending)
    for (ClassInfo& c : model.classes)
      if (c.name == p.cls) c.bodies.push_back(p.body);
  for (detail::OutOfLineCtor& p : pending_ctors)
    for (ClassInfo& c : model.classes)
      if (c.name == p.cls) c.ctors.push_back(p.ctor);

  return model;
}

/// Convenience: build the model from every .hpp/.cpp under `src_root`
/// (sorted for deterministic class order). `read` is injectable for tests.
inline Model build_model_from_dir(const std::filesystem::path& src_root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  if (fs::exists(src_root))
    for (const auto& e : fs::recursive_directory_iterator(src_root))
      if (e.is_regular_file() && (e.path().extension() == ".hpp" ||
                                  e.path().extension() == ".cpp"))
        files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(files.size());
  for (const auto& p : files) {
    std::string text;
    if (std::FILE* f = std::fopen(p.string().c_str(), "rb")) {
      char buf[1 << 15];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
      std::fclose(f);
    }
    sources.emplace_back(p.generic_string(), std::move(text));
  }
  return build_model(sources);
}

}  // namespace tcmplint

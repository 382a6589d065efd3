// Tests for tcmplint's cross-TU class/field model: the source-to-structure
// pass every determinism rule (nondet-iteration, uninit-member,
// reset-coverage) is built on. The parser is fed synthetic sources through
// build_model's (name, text) interface, so coverage is independent of the
// real tree's contents.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "../tools/tcmplint_model.hpp"

namespace {

using tcmplint::ClassInfo;
using tcmplint::Model;
using tcmplint::Token;
using tcmplint::build_model;
using tcmplint::lex;
using tcmplint::match;
using tcmplint::strip_code;

std::vector<std::string> texts(const std::vector<Token>& toks) {
  std::vector<std::string> out;
  for (const Token& t : toks) out.emplace_back(t.text);
  return out;
}

Model model_of(const std::string& text,
               const std::string& name = "src/common/synth.hpp") {
  return build_model({{name, text}});
}

TEST(StripCode, BlanksCommentsAndStringsButKeepsLines) {
  const std::string in =
      "int a; // trailing comment\n"
      "/* block\n   spanning */ int b;\n"
      "const char* s = \"braces {in} string\";\n";
  const std::string out = strip_code(in);
  // Line structure is preserved exactly.
  EXPECT_EQ(std::count(in.begin(), in.end(), '\n'),
            std::count(out.begin(), out.end(), '\n'));
  EXPECT_EQ(out.find("comment"), std::string::npos);
  EXPECT_EQ(out.find("spanning"), std::string::npos);
  EXPECT_EQ(out.find("{in}"), std::string::npos);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(StripCode, BlanksPreprocessorIncludingContinuations) {
  const std::string out = strip_code(
      "#define BAD_MACRO(x) { if (x) \\\n"
      "    { abort(); }\n"
      "int kept = 1;\n");
  EXPECT_EQ(out.find("BAD_MACRO"), std::string::npos);
  EXPECT_EQ(out.find("abort"), std::string::npos);
  EXPECT_NE(out.find("int kept = 1;"), std::string::npos);
}

TEST(Model, FieldsWithAndWithoutInitializers) {
  Model m = model_of(
      "struct S {\n"
      "  int plain;\n"
      "  int with_eq = 3;\n"
      "  double with_brace{1.5};\n"
      "  static int shared;\n"
      "  int& ref;\n"
      "};\n");
  const ClassInfo* s = m.find("S");
  ASSERT_NE(s, nullptr);
  ASSERT_NE(s->field("plain"), nullptr);
  EXPECT_FALSE(s->field("plain")->has_init);
  EXPECT_TRUE(s->field("with_eq")->has_init);
  EXPECT_TRUE(s->field("with_brace")->has_init);
  EXPECT_TRUE(s->field("shared")->is_static);
  EXPECT_TRUE(s->field("ref")->is_reference);
}

TEST(Model, NestedClassesGetQualifiedNames) {
  Model m = model_of(
      "class Outer {\n"
      " public:\n"
      "  struct Config {\n"
      "    unsigned sets = 128;\n"
      "  };\n"
      " private:\n"
      "  int id_ = 0;\n"
      "};\n");
  const ClassInfo* outer = m.find("Outer");
  const ClassInfo* cfg = m.find("Outer::Config");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->name, "Config");
  ASSERT_NE(cfg->field("sets"), nullptr);
  EXPECT_TRUE(cfg->field("sets")->has_init);
  // The nested class's members must not leak into the outer class.
  EXPECT_EQ(outer->field("sets"), nullptr);
  ASSERT_NE(outer->field("id_"), nullptr);
}

TEST(Model, TemplatesAndMultiLineDeclarations) {
  Model m = model_of(
      "template <typename T>\n"
      "class Ring {\n"
      "  std::vector<std::pair<T,\n"
      "                        unsigned>>\n"
      "      slots_;\n"
      "  unsigned head_ = 0;\n"
      "};\n");
  const ClassInfo* ring = m.find("Ring");
  ASSERT_NE(ring, nullptr);
  const tcmplint::Field* slots = ring->field("slots_");
  ASSERT_NE(slots, nullptr);
  EXPECT_FALSE(slots->has_init);
  // The declaration line is the statement's first token, not the ';' line.
  EXPECT_EQ(slots->line, 3);
  EXPECT_EQ(ring->field("head_")->line, 6);
}

TEST(Model, InClassCtorInitListCoversMembers) {
  Model m = model_of(
      "struct H {\n"
      "  H(unsigned w) : width_(w), count_{0} {}\n"
      "  unsigned width_;\n"
      "  unsigned count_;\n"
      "  unsigned loose_;\n"
      "};\n");
  const ClassInfo* h = m.find("H");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->ctors.size(), 1u);
  const std::vector<std::string>& inits = h->ctors[0].inits;
  EXPECT_NE(std::find(inits.begin(), inits.end(), "width_"), inits.end());
  EXPECT_NE(std::find(inits.begin(), inits.end(), "count_"), inits.end());
  EXPECT_EQ(std::find(inits.begin(), inits.end(), "loose_"), inits.end());
}

TEST(Model, OutOfLineCtorResolvesRegardlessOfFileOrder) {
  const std::string hpp =
      "namespace n {\n"
      "class Core {\n"
      " public:\n"
      "  Core(int id);\n"
      " private:\n"
      "  int id_;\n"
      "};\n"
      "}\n";
  const std::string cpp =
      "#include \"core.hpp\"\n"
      "namespace n {\n"
      "Core::Core(int id) : id_(id) {}\n"
      "}\n";
  // .cpp first mirrors sorted directory order (".cpp" < ".hpp").
  for (bool cpp_first : {true, false}) {
    std::vector<std::pair<std::string, std::string>> sources;
    if (cpp_first) {
      sources = {{"src/core/core.cpp", cpp}, {"src/core/core.hpp", hpp}};
    } else {
      sources = {{"src/core/core.hpp", hpp}, {"src/core/core.cpp", cpp}};
    }
    Model m = build_model(sources);
    const ClassInfo* core = m.find("Core");
    ASSERT_NE(core, nullptr);
    ASSERT_EQ(core->ctors.size(), 1u) << "cpp_first=" << cpp_first;
    ASSERT_EQ(core->ctors[0].inits.size(), 1u);
    EXPECT_EQ(core->ctors[0].inits[0], "id_");
  }
}

TEST(Model, PlainCtorDeclarationDoesNotFakeCoverage) {
  // An in-class declaration `X(...);` carries no init list; recording it as
  // a ctor with empty inits would make uninit-member report every member as
  // uncovered even when the out-of-line definition initializes them all.
  Model m = model_of(
      "class X {\n"
      " public:\n"
      "  X(int v);\n"
      "  X() = default;\n"
      "  X(const X&) = delete;\n"
      " private:\n"
      "  int v_ = 0;\n"
      "};\n");
  const ClassInfo* x = m.find("X");
  ASSERT_NE(x, nullptr);
  // Only the defaulted and deleted ctors are recorded from declarations.
  ASSERT_EQ(x->ctors.size(), 2u);
  EXPECT_EQ(x->ctors[0].inits.size(), 0u);
  EXPECT_TRUE(x->ctors[1].deleted);
}

TEST(Model, OutOfLineMethodBodiesAttach) {
  Model m = build_model({
      {"src/sim/w.hpp",
       "namespace s {\n"
       "class W {\n"
       " public:\n"
       "  void reset();\n"
       " private:\n"
       "  int a_ = 0;\n"
       "  int b_ = 0;\n"
       "};\n"
       "}\n"},
      {"src/sim/w.cpp",
       "#include \"w.hpp\"\n"
       "namespace s {\n"
       "void W::reset() {\n"
       "  a_ = 0;\n"
       "}\n"
       "}\n"},
  });
  const ClassInfo* w = m.find("W");
  ASSERT_NE(w, nullptr);
  std::vector<const tcmplint::MethodBody*> bodies = w->bodies_of("reset");
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_NE(bodies[0]->body.find("a_"), std::string::npos);
  EXPECT_EQ(bodies[0]->body.find("b_"), std::string::npos);
  EXPECT_EQ(bodies[0]->file, "src/sim/w.cpp");
}

TEST(Model, EnumTypesAndDirAttribution) {
  Model m = build_model({{"src/protocol/p.hpp",
                          "enum class St : unsigned char { kA, kB };\n"
                          "struct P {\n"
                          "  St st_;\n"
                          "};\n"}});
  EXPECT_EQ(m.enum_types.count("St"), 1u);
  const ClassInfo* p = m.find("P");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->dir, "protocol");
  ASSERT_NE(p->field("st_"), nullptr);
  EXPECT_FALSE(p->field("st_")->has_init);
}

TEST(Model, MethodsAreNotFields) {
  Model m = model_of(
      "struct M {\n"
      "  int value() const { return v_; }\n"
      "  [[nodiscard]] bool empty() const;\n"
      "  int v_ = 0;\n"
      "};\n");
  const ClassInfo* cls = m.find("M");
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(cls->field("value"), nullptr);
  EXPECT_EQ(cls->field("empty"), nullptr);
  ASSERT_NE(cls->field("v_"), nullptr);
  std::vector<const tcmplint::MethodBody*> bodies = cls->bodies_of("value");
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_NE(bodies[0]->body.find("v_"), std::string::npos);
}

// The shared lexer every tcmplint rule matches with: tokens of strip_code's
// blanked text.
TEST(Lex, ScopeAndArrowAreOneToken) {
  const std::string code =
      strip_code("std::vector<int> v;\nx->y = a ? b : c;\n");
  EXPECT_EQ(texts(lex(code)),
            (std::vector<std::string>{"std", "::", "vector", "<", "int", ">",
                                      "v", ";", "x", "->", "y", "=", "a", "?",
                                      "b", ":", "c", ";"}));
}

TEST(Lex, StringLiteralLeavesOneQuoteToken) {
  const std::string code = strip_code(
      "f(\"a :: b { } ; \\\" x\", 1);\n"
      "g(\"wrapped \\\n tail\"); int z;\n");
  const std::vector<Token> toks = lex(code);
  EXPECT_EQ(texts(toks),
            (std::vector<std::string>{"f", "(", "\"", ",", "1", ")", ";", "g",
                                      "(", "\"", ")", ";", "int", "z", ";"}));
  // A backslash-newline inside a literal still ends a line.
  EXPECT_EQ(toks.back().line, 3);
}

TEST(Lex, RawStringsAndContinuedPreprocessorLinesKeepLineNumbers) {
  const std::string code = strip_code(
      "auto s = R\"x(line one\n"
      "still raw \" ) { ;\n"
      ")x\";\n"
      "#define M(a) \\\n"
      "    { a; }\n"
      "int after;\n");
  const std::vector<Token> toks = lex(code);
  ASSERT_EQ(texts(toks), (std::vector<std::string>{"auto", "s", "=", ";",
                                                   "int", "after", ";"}));
  EXPECT_EQ(toks[3].line, 3);
  EXPECT_EQ(toks[4].line, 6);
}

TEST(Lex, MatchTakesOptionalsAndAlternatives) {
  const std::string code =
      strip_code("tcmp::Histogram h{8, 4};\nScalarStat s;\n");
  const std::vector<Token> toks = lex(code);
  const char* pattern = "tcmp? ::? ScalarStat|Histogram $ {|;";
  EXPECT_EQ(match(toks, 0, pattern), 5u);
  EXPECT_EQ(match(toks, 10, pattern), 13u);
  EXPECT_EQ(match(toks, 1, "ScalarStat"), 0u);
}

}  // namespace

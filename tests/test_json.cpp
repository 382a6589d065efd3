// Tooling-layer JSON reader (common/json.hpp): grammar coverage for what the
// canonical metrics writer emits, dotted-path lookup with longest-member
// matching (counter names contain dots), error reporting, and the shared
// string-escape helper; plus the microbench document writer read back.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cmp/metrics_export.hpp"
#include "common/json.hpp"

namespace tcmp::json {
namespace {

TEST(Json, ParsesScalarsArraysAndObjects) {
  const auto r = parse(R"({
    "s": "hello",
    "n": -12.5e2,
    "t": true,
    "f": false,
    "z": null,
    "a": [1, 2, 3],
    "o": {"inner": 7}
  })");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.value.is_object());

  const Value* s = r.value.find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->is_string());
  EXPECT_EQ(s->str, "hello");

  const Value* n = r.value.find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->is_number());
  EXPECT_DOUBLE_EQ(n->number, -1250.0);

  EXPECT_TRUE(r.value.find("t")->boolean);
  EXPECT_FALSE(r.value.find("f")->boolean);
  EXPECT_EQ(r.value.find("z")->type, Value::Type::kNull);

  const Value* a = r.value.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->items[2].number, 3.0);

  EXPECT_DOUBLE_EQ(r.value.find_path("o.inner")->number, 7.0);
}

TEST(Json, ObjectMemberOrderIsPreserved) {
  const auto r = parse(R"({"b": 1, "a": 2, "c": 3})");
  ASSERT_TRUE(r.ok);
  ASSERT_EQ(r.value.members.size(), 3u);
  EXPECT_EQ(r.value.members[0].first, "b");
  EXPECT_EQ(r.value.members[1].first, "a");
  EXPECT_EQ(r.value.members[2].first, "c");
}

TEST(Json, FindPathMatchesLongestMemberFirst) {
  // Canonical-metrics counter names contain dots ("msg_remote.count"):
  // "counters.msg_remote.count" must resolve member "msg_remote.count" of
  // object "counters", not descend into a nonexistent "msg_remote" object.
  const auto r = parse(
      R"({"counters": {"msg_remote.count": 42, "msg_remote": {"count": 7}}})");
  ASSERT_TRUE(r.ok);
  const Value* v = r.value.find_path("counters.msg_remote.count");
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->number, 42.0);
  // The shorter member is still reachable when the longer one cannot consume
  // the remaining path.
  const Value* w = r.value.find_path("counters.msg_remote");
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->is_object());
}

TEST(Json, FindPathMissesReturnNull) {
  const auto r = parse(R"({"run": {"cycles": 100}})");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value.find_path("run.instructions"), nullptr);
  EXPECT_EQ(r.value.find_path("nope.cycles"), nullptr);
  EXPECT_EQ(r.value.find_path("run.cycles.deeper"), nullptr);
  EXPECT_EQ(r.value.find("run")->find("nope"), nullptr);
}

TEST(Json, StringEscapesRoundTrip) {
  const auto r = parse(R"({"k": "a\"b\\c\nd\te"})");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value.find("k")->str, "a\"b\\c\nd\te");
  EXPECT_EQ(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  // Control characters are emitted as \u escapes.
  EXPECT_EQ(escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated",
                          "{\"a\":1} garbage", "", "{\"a\":}"}) {
    const auto r = parse(bad);
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_NE(r.error.find("offset"), std::string::npos) << bad;
  }
}

TEST(Json, ParsesMetricsShapedDocument) {
  // The shape tools/tcmpstat consumes: versioned header plus nested stat
  // sections.
  const auto r = parse(R"({
    "schema": "tcmp-metrics",
    "version": 1,
    "run": {"cycles": 123456, "coverage": 0.625},
    "counters": {"msg_remote.count": 100, "msg_local.count": 50},
    "histograms": {"noc.lat": {"count": 10, "mean": 3.5}}
  })");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.find("schema")->str, "tcmp-metrics");
  EXPECT_DOUBLE_EQ(r.value.find_path("version")->number, 1.0);
  EXPECT_DOUBLE_EQ(r.value.find_path("run.cycles")->number, 123456.0);
  EXPECT_DOUBLE_EQ(r.value.find_path("counters.msg_local.count")->number, 50.0);
  EXPECT_DOUBLE_EQ(r.value.find_path("histograms.noc.lat.mean")->number, 3.5);
}

TEST(Json, BenchMetricsDocumentCarriesSchemaHostCoresAndEveryMetric) {
  // What the perf microbenches write with --json and tcmpstat --compare
  // gates: dotted metric names must resolve under bench.<group>.
  const std::vector<cmp::BenchMetric> metrics = {
      {"idle.speedup", 20.8125},
      {"memory-bound.speedup", 2.53},
      {"saturated-traffic.kcps_per_mops", 0.675},
      {"cycles", 3853455.0}};
  std::ostringstream out;
  cmp::write_bench_metrics_json(out, "kernel", metrics);

  const auto r = parse(out.str());
  ASSERT_TRUE(r.ok) << r.error << "\n" << out.str();
  EXPECT_EQ(r.value.find("schema")->str, "tcmp-metrics");
  EXPECT_DOUBLE_EQ(r.value.find("version")->number, cmp::kMetricsSchemaVersion);
  const Value* cores = r.value.find_path("bench.host_cores");
  ASSERT_NE(cores, nullptr);
  EXPECT_DOUBLE_EQ(cores->number, std::thread::hardware_concurrency());
  const Value* group = r.value.find_path("bench.kernel");
  ASSERT_NE(group, nullptr);
  ASSERT_EQ(group->members.size(), metrics.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(group->members[i].first, metrics[i].name);
    const Value* v = r.value.find_path("bench.kernel." + metrics[i].name);
    ASSERT_NE(v, nullptr) << metrics[i].name;
    EXPECT_DOUBLE_EQ(v->number, metrics[i].value) << metrics[i].name;
  }
}

}  // namespace
}  // namespace tcmp::json

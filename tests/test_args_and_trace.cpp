// Tests for the CLI argument parser, the trace-file workload (read and
// write round-trips), and tcmpsim option combinations run end to end.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "common/args.hpp"
#include "workloads/synthetic_app.hpp"
#include "workloads/trace_workload.hpp"

namespace tcmp {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v{"prog"};
  v.insert(v.end(), argv.begin(), argv.end());
  ArgParser p;
  EXPECT_TRUE(p.parse(static_cast<int>(v.size()), v.data()));
  return p;
}

TEST(ArgParser, KeyValueForms) {
  const auto p = parse({"--app", "MP3D", "--scale=0.5", "--tiles", "32"});
  EXPECT_EQ(p.get("app", ""), "MP3D");
  EXPECT_DOUBLE_EQ(p.get_double("scale", 0), 0.5);
  EXPECT_EQ(p.get_long("tiles", 0), 32);
  EXPECT_EQ(p.get("missing", "dflt"), "dflt");
}

TEST(ArgParser, Flags) {
  const auto p = parse({"--verbose", "--fast=false", "--app", "FFT"});
  EXPECT_TRUE(p.get_flag("verbose"));
  EXPECT_FALSE(p.get_flag("fast"));
  EXPECT_FALSE(p.get_flag("absent"));
  EXPECT_EQ(p.get("app", ""), "FFT");
}

TEST(ArgParser, PositionalArguments) {
  const auto p = parse({"first", "--k", "v", "second"});
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "first");
  EXPECT_EQ(p.positional()[1], "second");
}

TEST(ArgParser, UnknownKeyDetection) {
  const auto p = parse({"--app", "X", "--bogus", "1"});
  const auto unknown = p.unknown_keys({"app"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "bogus");
}

TEST(ArgParser, TypedFallbacksOnGarbage) {
  const auto p = parse({"--n=abc"});
  EXPECT_EQ(p.get_long("n", 7), 7);
  EXPECT_DOUBLE_EQ(p.get_double("n", 1.5), 1.5);
}

// --- trace workload ---

TEST(TraceWorkload, ParsesAllOpKinds) {
  std::istringstream in(
      "# comment\n"
      "0 L 0x10\n"
      "0 S 0x11\n"
      "0 C 5\n"
      "0 B 1  # trailing comment\n"
      "1 L 0x20\n");
  workloads::TraceWorkload w(in, 2);

  auto op = w.next(0);
  EXPECT_EQ(static_cast<int>(op.kind), static_cast<int>(core::OpKind::kLoad));
  EXPECT_EQ(op.line.value(), 0x10u);
  op = w.next(0);
  EXPECT_EQ(static_cast<int>(op.kind), static_cast<int>(core::OpKind::kStore));
  op = w.next(0);
  EXPECT_EQ(op.count, 5u);
  op = w.next(0);
  EXPECT_EQ(static_cast<int>(op.kind), static_cast<int>(core::OpKind::kBarrier));
  // Exhausted stream returns kDone forever.
  EXPECT_EQ(static_cast<int>(w.next(0).kind), static_cast<int>(core::OpKind::kDone));
  EXPECT_EQ(static_cast<int>(w.next(0).kind), static_cast<int>(core::OpKind::kDone));
  EXPECT_EQ(w.next(1).line.value(), 0x20u);
  // Streaming reader: 5 events consumed, and because the producer interleaves
  // per consumer demand, no more than one event was ever parked per core.
  EXPECT_EQ(w.events_consumed(), 5u);
  EXPECT_EQ(w.max_buffered(), 1u);
}

TEST(TraceWorkloadDeathTest, RejectsMalformedLines) {
  // Parsing is lazy (streaming): the abort fires on first consumption, not
  // at construction.
  EXPECT_DEATH(
      {
        std::istringstream bad_core("9 L 0x10\n");
        workloads::TraceWorkload w(bad_core, 2);
        w.next(0);
      },
      "core id");
  EXPECT_DEATH(
      {
        std::istringstream bad_op("0 Q 0x10\n");
        workloads::TraceWorkload w(bad_op, 2);
        w.next(0);
      },
      "unknown op");
}

TEST(TraceWorkload, RoundTripsThroughWriter) {
  workloads::AppParams params = workloads::app("FFT").scaled(0.02);
  params.warmup_frac = 0.0;
  workloads::SyntheticApp original(params, 4);
  std::stringstream buffer;
  workloads::write_trace(buffer, original, 4, 2000);

  workloads::TraceWorkload replay(buffer, 4);
  workloads::SyntheticApp reference(params, 4);
  for (unsigned core = 0; core < 4; ++core) {
    for (int i = 0; i < 1500; ++i) {
      const auto a = reference.next(core);
      const auto b = replay.next(core);
      if (a.kind == core::OpKind::kDone || b.kind == core::OpKind::kDone) break;
      ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
      ASSERT_EQ(a.line, b.line);
      ASSERT_EQ(a.count, b.count);
    }
  }
}

/// Run tcmpsim with `args`; its exit status and combined stdout/stderr.
std::pair<int, std::string> run_tcmpsim(const std::string& args) {
  const std::string cmd = std::string(TCMPSIM_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {-1, ""};
  std::string out;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, pipe)) > 0;) {
    out.append(buf, n);
  }
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(TcmpsimCli, SlackReportRunsWithoutObserver) {
  // Slack telemetry lives in the system, not the observer: at --threads 1
  // it needs no observer level.
  const auto [status, out] = run_tcmpsim(
      "--app MP3D --config het --scale 0.02 --slack-report --obs-level 0");
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("slack [cycles]"), std::string::npos) << out;
  EXPECT_NE(out.find("blocking.VL"), std::string::npos) << out;
}

TEST(TcmpsimCli, ReplayRunsTextTraces) {
  // --replay tells a text trace from a binary .tct by its magic; there is
  // no separate text-trace option.
  const std::string path = ::testing::TempDir() + "tcmp_cli_text_trace.txt";
  {
    workloads::AppParams params = workloads::app("FFT").scaled(0.02);
    params.warmup_frac = 0.0;
    workloads::SyntheticApp app(params, 16);
    std::ofstream file(path);
    workloads::write_trace(file, app, 16, 200);
  }
  const auto [status, out] = run_tcmpsim("--replay " + path + " --config baseline");
  EXPECT_EQ(status, 0) << out;
  EXPECT_NE(out.find("cycles"), std::string::npos) << out;
  const auto [unknown, msg] = run_tcmpsim("--trace " + path + " --config baseline");
  EXPECT_EQ(unknown, 2) << msg;
  EXPECT_NE(msg.find("unknown option --trace"), std::string::npos) << msg;
  std::remove(path.c_str());
}

/// A bad value is refused before anything is built: exit 2 (not a
/// TCMP_CHECK abort, a hang or a silent fallback) with a reason naming
/// `option`.
void expect_refused(const std::string& args, const std::string& option) {
  const auto [status, out] = run_tcmpsim(args);
  EXPECT_EQ(status, 2) << args << "\n" << out;
  EXPECT_NE(out.find(option), std::string::npos) << args << "\n" << out;
}

TEST(TcmpsimCli, RefusesNegativeScale) { expect_refused("--scale -1", "--scale"); }
TEST(TcmpsimCli, RefusesNegativeTiles) { expect_refused("--tiles -1", "--tiles"); }
TEST(TcmpsimCli, RefusesZeroTiles) { expect_refused("--tiles 0", "--tiles"); }
TEST(TcmpsimCli, RefusesTwelveTiles) { expect_refused("--tiles 12", "--tiles"); }
TEST(TcmpsimCli, RefusesSeventeenTiles) { expect_refused("--tiles 17", "--tiles"); }
TEST(TcmpsimCli, RefusesUnknownApp) { expect_refused("--app Nope", "--app"); }
TEST(TcmpsimCli, RefusesThreeLowBytes) { expect_refused("--low 3", "--low"); }
TEST(TcmpsimCli, RefusesZeroDbrcEntries) { expect_refused("--entries 0", "--entries"); }
TEST(TcmpsimCli, RefusesTwoByteVl) { expect_refused("--scheme perfect --vl 2", "--vl"); }
TEST(TcmpsimCli, RefusesHetWithoutScheme) {
  expect_refused("--config het --scheme none", "--scheme");
}
TEST(TcmpsimCli, RefusesMissingReplayFile) {
  expect_refused("--replay " + ::testing::TempDir() + "no_such_trace.tct", "--replay");
}
TEST(TcmpsimCli, RefusesUnknownFormat) { expect_refused("--format xml", "--format"); }
TEST(TcmpsimCli, RefusesCheckpointAtWithoutOut) {
  expect_refused("--checkpoint-at 100", "--checkpoint-out");
}

}  // namespace
}  // namespace tcmp

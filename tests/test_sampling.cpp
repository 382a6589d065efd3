// SMARTS-style interval sampling (docs/checkpointing.md): spec parsing, the
// functional/detailed handoff's conservation laws — a sampled run consumes
// exactly the instruction stream the full-detail run retires — and the
// statistical outputs (per-window CPI confidence interval, extrapolated
// registry). Accuracy against the full run is asserted loosely here (the
// committed tolerance lives in the perf-smoke gate, bench/BENCH_sampling.json);
// what must hold tightly is determinism and instruction-count identity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "cmp/config.hpp"
#include "cmp/report.hpp"
#include "cmp/sampling.hpp"
#include "cmp/system.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp {
namespace {

// ---- spec parsing --------------------------------------------------------

/// The parsed spec, failing the test when it is refused.
cmp::SamplingConfig parse_ok(const std::string& spec) {
  std::string why;
  const auto cfg = cmp::SamplingConfig::parse(spec, why);
  EXPECT_TRUE(cfg.has_value()) << spec << ": " << why;
  return cfg.value_or(cmp::SamplingConfig{});
}

/// Why `spec` is refused ("" when it parses).
std::string refusal(const std::string& spec) {
  std::string why;
  return cmp::SamplingConfig::parse(spec, why) ? "" : why;
}

TEST(SamplingConfig, ParsesFullSpec) {
  const auto cfg = parse_ok("mode=interval,warmup=1000,detail=5000,period=100000");
  EXPECT_EQ(cfg.warmup, Cycle{1000});
  EXPECT_EQ(cfg.detail, 5000u);
  EXPECT_EQ(cfg.period, 100'000u);
}

TEST(SamplingConfig, DefaultsAndPartialSpecs) {
  const auto dflt = parse_ok("mode=interval");
  EXPECT_EQ(dflt.warmup, Cycle{2000});
  EXPECT_EQ(dflt.detail, 10'000u);
  EXPECT_EQ(dflt.period, 200'000u);
  // mode= is optional; single-key overrides keep the other defaults.
  const auto p = parse_ok("period=50000");
  EXPECT_EQ(p.period, 50'000u);
  EXPECT_EQ(p.detail, 10'000u);
}

TEST(SamplingConfig, RejectsBadSpecs) {
  EXPECT_NE(refusal("mode=reservoir").find("mode"), std::string::npos);
  EXPECT_NE(refusal("interval=5").find("unknown key 'interval'"), std::string::npos);
  EXPECT_NE(refusal("warmup=abc").find("warmup"), std::string::npos);
  EXPECT_NE(refusal("warmup=-1").find("warmup"), std::string::npos);
  EXPECT_NE(refusal("period=99999999999999999999").find("period"), std::string::npos);
  EXPECT_NE(refusal("detail=5x").find("detail"), std::string::npos);
  EXPECT_NE(refusal("detail").find("key=value"), std::string::npos);
  EXPECT_EQ(refusal("detail=0"), "detail must be > 0");
  EXPECT_EQ(refusal("period=0"), "period must be > 0");
}

// ---- sampled execution ---------------------------------------------------

std::shared_ptr<workloads::SyntheticApp> fft_small(unsigned n_tiles) {
  return std::make_shared<workloads::SyntheticApp>(
      workloads::app("FFT").scaled(0.02), n_tiles);
}

cmp::SamplingConfig test_sampling() {
  // Small windows and a short period so the tiny test workload still yields
  // a healthy number of windows (detail is instructions per core).
  cmp::SamplingConfig s;
  s.warmup = Cycle{200};
  s.detail = 300;
  s.period = 1'200;
  return s;
}

TEST(SampledRun, ConservesTheInstructionStream) {
  const auto cfg = cmp::CmpConfig::cheng3way();

  cmp::CmpSystem full(cfg, fft_small(cfg.n_tiles));
  ASSERT_TRUE(full.run(Cycle{50'000'000}));

  cmp::CmpSystem sys(cfg, fft_small(cfg.n_tiles));
  cmp::SampledRun run(sys, test_sampling());
  ASSERT_TRUE(run.run());
  const cmp::SamplingResult& r = run.result();

  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.windows, 0u);
  EXPECT_GT(r.functional_instructions, 0u);  // it actually fast-forwarded
  // Conservation: detailed + functional consumption == what the full-detail
  // run retires in its measured phase. Exact, not approximate — both sides
  // walk the same deterministic op stream.
  EXPECT_EQ(r.total_instructions, full.measured_instructions());
  // The measured windows saw only a fraction of it.
  EXPECT_LT(r.detailed_instructions, r.total_instructions);
  EXPECT_GE(r.extrapolation, 1.0);

  // Loose accuracy envelope: the extrapolated cycle estimate lands within
  // 50% of the true measured-phase cycle count (the CI bench pins the real
  // tolerance; this guards against order-of-magnitude breakage).
  const double truth = static_cast<double>(full.cycles().value());
  const double est = static_cast<double>(r.estimated_cycles.value());
  EXPECT_GT(est, truth * 0.5);
  EXPECT_LT(est, truth * 1.5);
  EXPECT_GT(r.cpi, 0.0);
  EXPECT_GE(r.cpi_ci95, 0.0);
}

TEST(SampledRun, IsDeterministic) {
  const auto cfg = cmp::CmpConfig::cheng3way();
  cmp::SamplingResult results[2];
  std::map<std::string, std::uint64_t> counters[2];
  for (int i = 0; i < 2; ++i) {
    cmp::CmpSystem sys(cfg, fft_small(cfg.n_tiles));
    cmp::SampledRun run(sys, test_sampling());
    ASSERT_TRUE(run.run());
    results[i] = run.result();
    counters[i] = run.scaled_stats().counters();
  }
  EXPECT_EQ(results[0].windows, results[1].windows);
  EXPECT_EQ(results[0].detailed_cycles, results[1].detailed_cycles);
  EXPECT_EQ(results[0].total_instructions, results[1].total_instructions);
  EXPECT_EQ(results[0].estimated_cycles, results[1].estimated_cycles);
  EXPECT_EQ(counters[0], counters[1]);
}

TEST(SampledRun, ScaledRegistryMultipliesCountersOnly) {
  const auto cfg = cmp::CmpConfig::cheng3way();
  cmp::CmpSystem sys(cfg, fft_small(cfg.n_tiles));
  cmp::SampledRun run(sys, test_sampling());
  ASSERT_TRUE(run.run());
  const double x = run.result().extrapolation;
  ASSERT_GE(x, 1.0);

  const auto& window = run.window_stats().counters();
  const auto scaled = run.scaled_stats().counters();
  ASSERT_FALSE(window.empty());
  ASSERT_EQ(window.size(), scaled.size());
  for (const auto& [name, v] : window) {
    const auto it = scaled.find(name);
    ASSERT_NE(it, scaled.end()) << name;
    EXPECT_EQ(it->second,
              static_cast<std::uint64_t>(
                  std::llround(static_cast<double>(v) * x)))
        << name;
  }
}

TEST(SampledRun, MakesAPaperResult) {
  const auto cfg = cmp::CmpConfig::cheng3way();
  cmp::CmpSystem sys(cfg, fft_small(cfg.n_tiles));
  cmp::SampledRun run(sys, test_sampling());
  ASSERT_TRUE(run.run());
  const cmp::RunResult r = cmp::make_sampled_result(sys, run);
  EXPECT_EQ(r.cycles, run.result().estimated_cycles);
  EXPECT_EQ(r.instructions, run.result().total_instructions);
  EXPECT_GT(r.total_energy().value(), 0.0);
}

TEST(SampledRunDeathTest, RequiresSingleThreadedSystem) {
  auto cfg = cmp::CmpConfig::cheng3way();
  cfg.threads = 4;
  cmp::CmpSystem sys(cfg, fft_small(cfg.n_tiles));
  EXPECT_DEATH(cmp::SampledRun(sys, test_sampling()), "");
}

}  // namespace
}  // namespace tcmp

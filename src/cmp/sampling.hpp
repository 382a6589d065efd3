// SMARTS-style interval sampling (docs/checkpointing.md): long workloads run
// as alternating phases — functional fast-forward, where the workload's op
// stream is consumed instantly through the caches' warm interfaces with no
// timing, and short detailed windows, where the full machine simulates
// cycle-by-cycle. Each window is preceded by a detailed (unmeasured) warmup
// stretch that re-trains the timing state the functional phase cannot model
// (MSHRs, network occupancy, router pipelines). Whole-run metrics are
// extrapolated from the measured windows; per-window CPI variance yields a
// confidence bound on the estimate.
//
// The driver requires --threads 1 and no attached observer. Between phases
// every core is fenced (core::Core::set_fenced) and the machine drained to a
// quiescent point so the warm interfaces' no-in-flight-state precondition
// holds. Cores parked at a barrier are handed off as-is: the functional
// engine shares the system's barrier controller, so a barrier some cores
// reached in detailed mode completes when the remaining streams reach it
// functionally (or vice versa).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cmp/report.hpp"
#include "cmp/system.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace tcmp::cmp {

/// Parsed --sample specification.
struct SamplingConfig {
  /// Detailed but unmeasured cycles before each window (timing re-train).
  Cycle warmup{2'000};
  /// Measured detailed-window length in *instructions per core* (SMARTS
  /// units): fixed-instruction windows weight every stream position equally,
  /// where fixed-cycle windows would over-weight cheap regions (a harmonic
  /// mean, biased low on phase-heavy workloads).
  std::uint64_t detail = 10'000;
  /// Functional instructions consumed per core between windows.
  std::uint64_t period = 200'000;

  /// Parse "mode=interval,warmup=W,detail=D,period=P" (mode optional; the
  /// only supported mode is "interval"; omitted keys keep their defaults).
  /// An unknown key, a value that is not a whole count, or a zero detail or
  /// period returns nullopt with the reason in `why`.
  static std::optional<SamplingConfig> parse(const std::string& spec, std::string& why);
};

/// Outcome of a sampled run: measured-window aggregates plus the
/// extrapolated whole-run estimate.
struct SamplingResult {
  bool completed = false;         ///< workload ran to completion, not aborted
  std::uint64_t windows = 0;      ///< measured windows executed

  Cycle detailed_cycles{0};       ///< sum of measured-window cycles
  std::uint64_t detailed_instructions = 0;  ///< retired inside windows
  /// Compression-pipeline accesses observed inside measured windows.
  std::uint64_t detailed_compression_accesses = 0;
  /// All instructions retired in detailed mode (windows + warmup + drain
  /// tails), measured phase only.
  std::uint64_t detailed_total_instructions = 0;
  std::uint64_t functional_instructions = 0;  ///< consumed by fast-forward
  /// Fast-forward share spent on the workload's own warmup phase (excluded
  /// from extrapolation).
  std::uint64_t functional_warmup_instructions = 0;
  /// Whole-workload measured-phase instruction count: detailed + functional.
  std::uint64_t total_instructions = 0;

  double cpi = 0.0;               ///< Σ window cycles / Σ window instructions
  double cpi_window_mean = 0.0;   ///< mean of per-window CPI samples
  /// 95% confidence half-width on the per-window CPI mean (normal
  /// approximation across windows; 0 with fewer than 2 windows).
  double cpi_ci95 = 0.0;
  double extrapolation = 1.0;     ///< total / detailed window instructions
  Cycle estimated_cycles{0};      ///< cpi x total_instructions
};

/// Drives one CmpSystem through a sampled execution. Constructed against a
/// freshly built (or checkpoint-restored) system; run() consumes the
/// workload to completion.
class SampledRun {
 public:
  SampledRun(CmpSystem& sys, const SamplingConfig& cfg);

  /// Execute the sampled run. `max_detailed_cycles` bounds the *detailed*
  /// cycles spent (the analogue of run()'s max_cycles); returns true when
  /// the workload completed within the budget and nothing aborted.
  bool run(Cycle max_detailed_cycles = Cycle{500'000'000});

  /// Run `probe` at every detailed <-> functional handoff, once the machine
  /// is drained for the functional phase and once it is unfenced after it
  /// (tests check the driver's derived work sets there).
  void set_handoff_probe(std::function<void()> probe) { probe_ = std::move(probe); }

  [[nodiscard]] const SamplingResult& result() const { return res_; }
  /// Accumulated measured-window registry (unscaled window events).
  [[nodiscard]] const StatRegistry& window_stats() const { return accum_; }
  /// Extrapolated registry: every counter scaled by the extrapolation
  /// factor; scalars and histograms are intensity distributions and stay
  /// unscaled (docs/checkpointing.md discusses the error model).
  [[nodiscard]] StatRegistry scaled_stats() const;

 private:
  /// Fence/unfence every core (the detailed <-> functional handoff).
  void fence_all(bool fenced);
  void handoff() {
    if (probe_) probe_();
  }
  /// Every core parked (done / drained / at a barrier) and the memory
  /// system + network fully quiescent: warm access becomes legal.
  [[nodiscard]] bool handoff_ready() const;
  /// Step the fenced machine until handoff_ready() (bounded; aborts the
  /// process if the machine cannot drain — a protocol bug, not a workload
  /// property).
  void drain();
  /// Detailed phase: step up to `budget` cycles. False when the run must
  /// stop (aborted, or the total detailed budget is exhausted).
  bool run_detailed(Cycle budget, Cycle max_total);
  /// Measured window: step until `instr_budget` instructions retire
  /// (aggregate, from `i0`) or the workload finishes. Same return contract
  /// as run_detailed.
  bool run_window(std::uint64_t i0, std::uint64_t instr_budget,
                  Cycle max_total);
  /// Functional phase: consume up to `period` instructions per core through
  /// the warm interfaces. Returns instructions consumed. With
  /// `stop_at_warmup_boundary`, halts every stream the moment the workload's
  /// warmup-boundary barrier releases (used to keep the measurement origin
  /// out of the windows).
  std::uint64_t fast_forward(bool stop_at_warmup_boundary = false);
  /// Functional end state of one load/store: L1 hit paths in place, misses
  /// through the home directory's warm_access, evictions written back.
  void warm_mem(unsigned core, LineAddr line, bool is_write);
  void finalize();

  CmpSystem& sys_;
  SamplingConfig cfg_;
  StatRegistry accum_;
  SamplingResult res_;
  std::vector<double> window_cpi_;
  Cycle total_detailed_{0};
  std::function<void()> probe_;
};

/// Paper-metric harvest of a sampled run: make_result over the scaled
/// registry with the extrapolated cycle/instruction totals.
[[nodiscard]] RunResult make_sampled_result(const CmpSystem& system,
                                            const SampledRun& run);

}  // namespace tcmp::cmp

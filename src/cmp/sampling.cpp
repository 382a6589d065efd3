#include "cmp/sampling.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

#include "common/check.hpp"
#include "core/core_model.hpp"
#include "protocol/directory.hpp"
#include "protocol/l1_cache.hpp"

namespace tcmp::cmp {
namespace {

/// Round-robin turn size in the functional phase: large enough to amortize
/// the per-core switch, small enough that barrier-coupled streams interleave
/// with realistic sharing (the warm cache contents depend on the order).
constexpr std::uint64_t kTurnInstructions = 256;

/// Hard bound on a single drain: a fenced machine that cannot reach a
/// quiescent point within this many cycles has a stuck transaction.
constexpr std::uint64_t kDrainLimitCycles = 1'000'000;

/// All of `v` as a decimal count (no sign, no junk, in range).
bool parse_u64(const std::string& v, std::uint64_t& out) {
  const char* const end = v.data() + v.size();
  const auto [stop, ec] = std::from_chars(v.data(), end, out);
  return !v.empty() && ec == std::errc{} && stop == end;
}

}  // namespace

std::optional<SamplingConfig> SamplingConfig::parse(const std::string& spec,
                                                    std::string& why) {
  SamplingConfig cfg;
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t comma = spec.find(',', at);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(at, comma - at);
    at = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      why = "expected key=value items, got '" + item + "'";
      return std::nullopt;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "mode") {
      if (val == "interval") continue;
      why = "the only supported mode is 'interval'";
      return std::nullopt;
    }
    if (key != "warmup" && key != "detail" && key != "period") {
      why = "unknown key '" + key + "' (mode, warmup, detail, period)";
      return std::nullopt;
    }
    std::uint64_t n = 0;
    if (!parse_u64(val, n)) {
      why = key + " must be a whole number of " +
            (key == "warmup" ? "cycles" : "instructions") + ", not '" + val + "'";
      return std::nullopt;
    }
    if (key == "warmup") {
      cfg.warmup = Cycle{n};
    } else if (key == "detail") {
      cfg.detail = n;
    } else {
      cfg.period = n;
    }
  }
  if (cfg.detail == 0 || cfg.period == 0) {
    why = cfg.detail == 0 ? "detail must be > 0" : "period must be > 0";
    return std::nullopt;
  }
  return cfg;
}

SampledRun::SampledRun(CmpSystem& sys, const SamplingConfig& cfg)
    : sys_(sys), cfg_(cfg) {
  TCMP_CHECK_MSG(sys_.n_parts_ == 1,
                 "interval sampling requires --threads 1 (the functional "
                 "phase touches every tile from one thread)");
  TCMP_CHECK_MSG(sys_.obs_ == nullptr,
                 "interval sampling does not support an attached observer");
}

void SampledRun::fence_all(bool fenced) {
  for (auto& t : sys_.tiles_) t->core->set_fenced(fenced);
}

bool SampledRun::handoff_ready() const {
  for (unsigned c = 0; c < sys_.cfg_.n_tiles; ++c) {
    // tcmplint: tile-seam (--sample requires --threads 1; reads between cycles)
    const core::Core& core = *sys_.tiles_[c]->core;
    if (!(core.done() || core.drained() || sys_.at_barrier_[c])) return false;
  }
  for (unsigned p = 0; p < sys_.n_parts_; ++p) {
    if (!sys_.partition_quiescent(p)) return false;
  }
  return sys_.network_->boundaries_empty();
}

void SampledRun::drain() {
  std::uint64_t guard = 0;
  while (!handoff_ready() && !sys_.aborted_) {
    TCMP_CHECK_MSG(guard < kDrainLimitCycles,
                   "sampling drain did not converge (stuck transaction)");
    sys_.step();
    ++guard;
  }
}

bool SampledRun::run_detailed(Cycle budget, Cycle max_total) {
  Cycle ran{0};
  while (ran < budget) {
    if (sys_.aborted_) return false;
    if (total_detailed_ >= max_total) return false;
    if (sys_.finished()) return true;
    sys_.step();
    ran += Cycle{1};
    total_detailed_ += Cycle{1};
  }
  return true;
}

bool SampledRun::run_window(std::uint64_t i0, std::uint64_t instr_budget,
                            Cycle max_total) {
  while (sys_.total_instructions() - i0 < instr_budget) {
    if (sys_.aborted_) return false;
    if (total_detailed_ >= max_total) return false;
    if (sys_.finished()) return true;
    sys_.step();
    total_detailed_ += Cycle{1};
  }
  return true;
}

std::uint64_t SampledRun::fast_forward(bool stop_at_warmup_boundary) {
  const unsigned n = sys_.cfg_.n_tiles;
  std::vector<std::uint64_t> remaining(n, cfg_.period);
  std::uint64_t consumed = 0;
  // The barrier controller's done count. Cores change state here outside
  // the cycle loop, so the driver's core sets are rebuilt at the end.
  unsigned done = sys_.done_cores();
  bool progress = true;
  while (progress) {
    progress = false;
    for (unsigned c = 0; c < n; ++c) {
      // tcmplint: tile-seam (functional fast-forward; single-threaded, drained)
      core::Core& core = *sys_.tiles_[c]->core;
      std::uint64_t turn = kTurnInstructions;
      while (turn > 0 && remaining[c] > 0 && !core.done() &&
             !sys_.at_barrier_[c] &&
             !(stop_at_warmup_boundary && sys_.warmup_done_)) {
        const core::Op op = sys_.workload_->next(c);
        progress = true;
        switch (op.kind) {
          case core::OpKind::kDone: {
            core.warm_mark_done();
            remaining[c] = 0;
            sys_.release_if_complete(++done);
            break;
          }
          case core::OpKind::kBarrier:
            // Same end state tick() reaches: the core waits, the controller
            // records the arrival (and releases — including the warmup
            // boundary — when the last stream gets here).
            core.warm_arrive_barrier();
            if (sys_.arrive(c, op.count, done)) {
              sys_.release_barrier();
            }
            break;
          case core::OpKind::kCompute: {
            core.warm_advance_istream(op.count);
            if (!sys_.warmup_done_) {
              res_.functional_warmup_instructions += op.count;
            }
            consumed += op.count;
            remaining[c] -= std::min<std::uint64_t>(op.count, remaining[c]);
            turn -= std::min<std::uint64_t>(op.count, turn);
            break;
          }
          case core::OpKind::kLoad:
          case core::OpKind::kStore:
            warm_mem(c, op.line, op.kind == core::OpKind::kStore);
            core.warm_advance_istream(1);
            if (!sys_.warmup_done_) ++res_.functional_warmup_instructions;
            ++consumed;
            --remaining[c];
            --turn;
            break;
        }
      }
    }
  }
  sys_.rebuild_core_sets();
  return consumed;
}

void SampledRun::warm_mem(unsigned core, LineAddr line, bool is_write) {
  using protocol::L1State;
  auto& tiles = sys_.tiles_;
  // tcmplint: tile-seam (functional warming; single-threaded, machine drained)
  protocol::L1Cache& l1 = *tiles[core]->l1;
  const auto st = l1.state_of(line);
  if (st.has_value()) {
    switch (*st) {
      case L1State::kM:
      case L1State::kE:
        if (is_write) {
          // Store hit: access()'s silent E->M and version bump.
          l1.warm_set_state(line, L1State::kM, l1.version_of(line) + 1);
        } else {
          l1.warm_touch(line);
        }
        return;
      case L1State::kS:
        if (!is_write) {
          l1.warm_touch(line);
          return;
        }
        break;  // store to Shared: upgrade through the home
    }
  }
  const unsigned n = sys_.cfg_.n_tiles;
  // tcmplint: tile-seam (functional warming; single-threaded, machine drained)
  protocol::Directory& home = *tiles[line.value() % n]->dir;
  const auto version = [&tiles](NodeId node, LineAddr l) {
    return tiles[node.value()]->l1->version_of(l);
  };
  const auto drop = [&tiles](NodeId node, LineAddr l) {
    tiles[node.value()]->l1->warm_drop(l);
  };
  const auto downgrade = [&tiles](NodeId node, LineAddr l) {
    // tcmplint: tile-seam (warm-callback from the home; single-threaded)
    protocol::L1Cache& owner = *tiles[node.value()]->l1;
    owner.warm_set_state(l, L1State::kS, owner.version_of(l));
  };
  const auto grant =
      home.warm_access(line, NodeId{core}, is_write, version, drop, downgrade);
  if (st.has_value()) {
    // Upgrade: the S copy stayed resident; adopt the granted state/version.
    l1.warm_set_state(line, grant.l1_state, grant.version);
    return;
  }
  if (auto ev = l1.warm_install(line, grant.l1_state, grant.version)) {
    if (ev->state == L1State::kM || ev->state == L1State::kE) {
      // tcmplint: tile-seam (victim writeback during warming; single-threaded)
      protocol::Directory& victim_home = *tiles[ev->line.value() % n]->dir;
      victim_home.warm_writeback(ev->line, NodeId{core},
                                 ev->state == L1State::kM, ev->version);
    }
    // Shared evictions are silent, exactly like the detailed protocol.
  }
}

bool SampledRun::run(Cycle max_detailed_cycles) {
  // Start (or resume — a checkpoint restores mid-flight machine state) from
  // a quiescent handoff point.
  fence_all(true);
  drain();
  handoff();
  // The workload's own warmup phase must never land inside a measured
  // window: end_warmup() restarts the cycle/instruction origin the full-
  // detail report measures from (and switches the directories off the
  // reduced warmup memory latency), so a window straddling the boundary
  // would mix pre-origin cycles — measured on a different machine — into
  // the post-origin extrapolation base. Consume it functionally, stopping
  // exactly at the boundary barrier. (Warmup-free workloads and restored
  // checkpoints start with warmup_done_ already true and skip this.)
  while (!sys_.warmup_done_ && !sys_.finished() && !sys_.aborted_) {
    res_.functional_instructions +=
        fast_forward(/*stop_at_warmup_boundary=*/true);
  }
  fence_all(false);
  handoff();
  // Detail-first: the measured phase opens with a measured window, so even
  // a workload shorter than one sampling period yields a CPI estimate — and
  // the post-warmup machine state the full-detail reference measures from
  // is inherited warm from the functional warmup, not approximated.
  while (!sys_.finished() && !sys_.aborted_) {
    // Detailed warmup re-trains timing state; its events are wiped by the
    // zero below, so the window measures a warmed machine.
    if (!run_detailed(cfg_.warmup, max_detailed_cycles)) break;
    const std::uint64_t i0 = sys_.total_instructions();
    const std::uint64_t x0 = sys_.compression_accesses();
    const Cycle c0 = sys_.now_;
    sys_.stats_.zero_all();
    const bool window_ok = run_window(
        i0, cfg_.detail * sys_.cfg_.n_tiles, max_detailed_cycles);
    // Measure at the fence point, symmetrically: misses still in flight
    // here lose their remaining stall cycles from this window, but the
    // window's head gained the mirror image — stalls of misses issued
    // during the (unmeasured) warmup whose retirements landed after c0.
    // In steady state the two boundary effects cancel. Extending dc to
    // full quiescence instead would pay every window's drain tail serially
    // — overlap the uninterrupted run never loses — and bias CPI high by
    // one drain per window.
    const Cycle dc = sys_.now_ - c0;
    const std::uint64_t di = sys_.total_instructions() - i0;
    // Counters are harvested at the same boundary as dc/di: events of
    // misses still in flight at the fence fall outside the window, but the
    // window's head holds their mirror image (completion traffic of misses
    // issued during the unmeasured warmup). Harvesting after the drain
    // instead would keep BOTH boundaries' events — double-counting one
    // handoff tail of traffic per window, which inflates every
    // per-instruction message rate the extrapolation scales up.
    accum_.merge_from(sys_.stats_);
    res_.detailed_cycles += dc;
    res_.detailed_instructions += di;
    res_.detailed_compression_accesses += sys_.compression_accesses() - x0;
    // The drain is handoff mechanics, outside the measurement entirely.
    fence_all(true);
    drain();
    handoff();
    if (di > 0) {
      window_cpi_.push_back(static_cast<double>(dc.value()) /
                            static_cast<double>(di));
    }
    ++res_.windows;
    if (!window_ok) break;
    if (sys_.finished() || sys_.aborted_) break;
    res_.functional_instructions += fast_forward();
    fence_all(false);
    handoff();
  }
  fence_all(false);
  finalize();
  res_.completed = sys_.finished() && !sys_.aborted_;
  return res_.completed;
}

void SampledRun::finalize() {
  res_.detailed_total_instructions = sys_.measured_instructions();
  const std::uint64_t functional_measured =
      res_.functional_instructions - res_.functional_warmup_instructions;
  res_.total_instructions =
      res_.detailed_total_instructions + functional_measured;
  if (res_.detailed_instructions > 0) {
    res_.cpi = static_cast<double>(res_.detailed_cycles.value()) /
               static_cast<double>(res_.detailed_instructions);
    res_.extrapolation = static_cast<double>(res_.total_instructions) /
                         static_cast<double>(res_.detailed_instructions);
  }
  const std::size_t n = window_cpi_.size();
  if (n > 0) {
    double sum = 0.0;
    for (double v : window_cpi_) sum += v;
    res_.cpi_window_mean = sum / static_cast<double>(n);
    if (n > 1) {
      double ss = 0.0;
      for (double v : window_cpi_) {
        const double d = v - res_.cpi_window_mean;
        ss += d * d;
      }
      const double var = ss / static_cast<double>(n - 1);
      res_.cpi_ci95 = 1.96 * std::sqrt(var / static_cast<double>(n));
    }
  }
  res_.estimated_cycles = Cycle{static_cast<std::uint64_t>(
      std::llround(res_.cpi * static_cast<double>(res_.total_instructions)))};
}

StatRegistry SampledRun::scaled_stats() const {
  StatRegistry out;
  const double f = res_.extrapolation;
  for (const auto& [name, v] : accum_.counters()) {
    out.counter(name) = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(v) * f));
  }
  for (const auto& [name, s] : accum_.scalars()) out.scalar(name) = s;
  for (const auto& [name, h] : accum_.histograms()) {
    out.histogram(name, h.bins().size(), h.bin_width()) = h;
  }
  return out;
}

RunResult make_sampled_result(const CmpSystem& system, const SampledRun& run) {
  const SamplingResult& s = run.result();
  const auto scaled_compression = static_cast<std::uint64_t>(std::llround(
      static_cast<double>(s.detailed_compression_accesses) * s.extrapolation));
  return make_result(system, run.scaled_stats(), s.estimated_cycles,
                     s.total_instructions, scaled_compression);
}

}  // namespace tcmp::cmp

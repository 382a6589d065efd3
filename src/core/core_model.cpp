#include "core/core_model.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace tcmp::core {

Core::Core(NodeId id, Workload* workload, protocol::L1Cache* l1, StatRegistry* stats)
    : id_(id), workload_(workload), l1_(l1), stats_(stats) {
  TCMP_CHECK(workload_ != nullptr && l1_ != nullptr && stats_ != nullptr);
  blocked_counter_ = stats_->counter_ref("core.blocked_cycles");
  ifetch_stalls_ = stats_->counter_ref("core.ifetch_stalls");
  miss_stalls_ = stats_->counter_ref("core.miss_stalls");
  finished_ = stats_->counter_ref("core.finished");
}

void Core::set_icache(protocol::ICache* icache, std::uint64_t code_lines) {
  icache_ = icache;
  code_lines_ = std::max<std::uint64_t>(code_lines, 16);
  pc_rng_.reseed(0xC0DE + id_ * 977u);
  code_cursor_ = pc_rng_.next_below(code_lines_);
}

LineAddr Core::next_code_line() {
  // SPMD text: execution lives in a hot loop nest that fits the I-cache,
  // with rare excursions (calls into cold helpers/libraries) across the full
  // program text. This yields the sub-percent I-miss rates real SPLASH codes
  // exhibit while still generating occasional instruction-fetch traffic.
  const std::uint64_t hot_lines = std::min<std::uint64_t>(code_lines_, 96);
  if (pc_rng_.chance(0.99)) {
    if (pc_rng_.chance(0.85)) {
      code_cursor_ = (code_cursor_ + 1) % hot_lines;
    } else {
      code_cursor_ = pc_rng_.next_below(hot_lines);
    }
  } else {
    code_cursor_ = pc_rng_.next_below(code_lines_);
  }
  return LineAddr{core::kCodeBaseLine.value() + code_cursor_};
}

void Core::warm_advance_istream(std::uint64_t n) {
  if (icache_ == nullptr) return;
  while (n > 0) {
    if (ifetch_budget_ == 0) {
      // Mirrors tick()'s front-end, including the re-fetch-same-line rule:
      // a line rolled before a stall is kept, not re-rolled.
      if (!have_pending_line_) pending_code_line_ = next_code_line();
      have_pending_line_ = false;
      icache_->warm_install(pending_code_line_);
      ifetch_budget_ = kIfetchInterval;
    }
    const auto step = std::min<std::uint64_t>(n, ifetch_budget_);
    ifetch_budget_ -= static_cast<unsigned>(step);
    n -= step;
  }
}

void Core::on_ifill() {
  TCMP_CHECK(wait_ifetch_);
  wait_ifetch_ = false;
}

void Core::on_fill(LineAddr line) {
  if (wait_fill_ && line == wait_line_) {
    wait_fill_ = false;
    if (fill_retires_instr_) {
      ++instructions_;
      fill_retires_instr_ = false;
    }
  }
}

void Core::barrier_release() {
  TCMP_CHECK(wait_barrier_);
  wait_barrier_ = false;
}

void Core::tick(Cycle now) {
  (void)now;
  if (done_) return;
  if (wait_fill_ || wait_barrier_ || wait_ifetch_) {
    ++blocked_counter_;
    return;
  }
  // Front-end: fetch the next instruction line when the previous one is
  // consumed. A miss stalls the whole in-order pipeline; after the fill the
  // SAME line is re-fetched (now a hit) rather than rolling a new target.
  if (icache_ != nullptr && ifetch_budget_ == 0) {
    if (!have_pending_line_) {
      pending_code_line_ = next_code_line();
      have_pending_line_ = true;
    }
    if (!icache_->fetch(pending_code_line_)) {
      wait_ifetch_ = true;
      ++ifetch_stalls_;
      return;
    }
    have_pending_line_ = false;
    ifetch_budget_ = kIfetchInterval;
  }

  for (unsigned slot = 0; slot < kIssueWidth; ++slot) {
    if (compute_left_ > 0) {
      --compute_left_;
      ++instructions_;
      if (ifetch_budget_ > 0) --ifetch_budget_;
      continue;
    }
    if (!has_op_) {
      if (fenced_) return;  // park at the op boundary (sampling fence)
      op_ = workload_->next(id_);
      has_op_ = true;
    }
    switch (op_.kind) {
      case OpKind::kCompute:
        compute_left_ = op_.count;
        has_op_ = false;
        continue;  // retire from the burst starting this slot next iteration
      case OpKind::kLoad:
      case OpKind::kStore: {
        const auto result = l1_->access(op_.line, op_.kind == OpKind::kStore);
        if (result == protocol::AccessResult::kHit) {
          has_op_ = false;
          ++instructions_;
          if (ifetch_budget_ > 0) --ifetch_budget_;
          continue;
        }
        wait_fill_ = true;
        wait_line_ = op_.line;
        if (result == protocol::AccessResult::kMiss) {
          has_op_ = false;
          fill_retires_instr_ = true;
        } else {
          // kRetry: keep the op; re-execute the access after the fill.
          fill_retires_instr_ = false;
        }
        ++miss_stalls_;
        return;
      }
      case OpKind::kBarrier: {
        wait_barrier_ = true;
        has_op_ = false;
        TCMP_CHECK(on_barrier_ != nullptr);
        on_barrier_(id_, op_.count);
        return;
      }
      case OpKind::kDone:
        done_ = true;
        ++finished_;
        return;
    }
  }
}

}  // namespace tcmp::core

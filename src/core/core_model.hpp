// In-order 2-way core timing model (Table 4). The core retires up to
// kIssueWidth instructions per cycle; a memory instruction that misses in
// the L1 blocks the pipeline until the fill returns (loads and stores both
// block: in-order issue with no store buffer, the conservative model also
// used by RSIM's simple-core mode).
//
// Thread compatibility: tile-owned, no internal locking. The core holds raw
// pointers to its *own tile's* L1/L1I (a sanctioned same-tile edge of the
// tile-escape lint, docs/static-analysis.md); it never touches another
// tile's state directly.
#pragma once

#include <functional>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/workload.hpp"
#include "protocol/icache.hpp"
#include "protocol/l1_cache.hpp"

namespace tcmp::core {

/// One core's stall state at the end of a simulated cycle, published into
/// the partitioned driver's double-buffered snapshot (docs/partitioning.md):
/// the cross-partition slack beneficiary probe reads this instead of the
/// live core.
struct StallSnapshot {
  LineAddr line{};      ///< meaningful only while `mem` is set
  bool mem = false;     ///< blocked on a data fill of `line`
  bool ifetch = false;  ///< blocked on an instruction fetch

  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(line);
    ar.field(mem);
    ar.field(ifetch);
  }
};

class Core final {
 public:
  /// Instructions retired per cycle at most.
  static constexpr unsigned kIssueWidth = 2;
  /// Instructions per I-cache line (64 B / ~4 B per instruction).
  static constexpr unsigned kIfetchInterval = 16;

  /// `on_barrier(core, id)` must eventually be answered by barrier_release().
  using BarrierFn = std::function<void(unsigned core, std::uint32_t id)>;

  Core(NodeId id, Workload* workload, protocol::L1Cache* l1, StatRegistry* stats);

  void set_barrier_handler(BarrierFn fn) { on_barrier_ = std::move(fn); }

  /// Attach the instruction cache (optional; without one the front-end
  /// never stalls). `code_lines` is the shared program-text footprint.
  void set_icache(protocol::ICache* icache, std::uint64_t code_lines);

  /// Called by the L1 fill callback.
  void on_fill(LineAddr line);
  /// Called by the I-cache fill callback.
  void on_ifill();
  /// Called by the barrier controller when every core arrived.
  void barrier_release();

  void tick(Cycle now);

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool blocked() const {
    return wait_fill_ || wait_barrier_ || wait_ifetch_;
  }
  [[nodiscard]] bool runnable() const { return !done_ && !blocked(); }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  /// Slack telemetry (obs/slack.hpp): is this core blocked at the head of
  /// its in-order pipeline waiting for a fill of exactly `line`? The next
  /// on_fill(line) is guaranteed to unstall it.
  [[nodiscard]] bool stalled_on(LineAddr line) const {
    return wait_fill_ && wait_line_ == line;
  }
  /// Slack telemetry: blocked on an instruction-fetch miss (the next
  /// on_ifill() unstalls it).
  [[nodiscard]] bool stalled_on_ifetch() const { return wait_ifetch_; }

  /// Write this core's stall state into the partitioned driver's
  /// double-buffered snapshot: the cross-partition slack beneficiary probe
  /// reads last cycle's published snapshot instead of this core's live state
  /// (docs/partitioning.md).
  void snapshot_stall(StallSnapshot& out) const {
    out.line = wait_line_;
    out.mem = wait_fill_;
    out.ifetch = wait_ifetch_;
  }

  /// Sampling fence (cmp/sampling.hpp): a fenced core finishes the
  /// operation it is executing (including any outstanding miss) but does
  /// not fetch the next one from the workload, parking at an op boundary
  /// where the functional fast-forward can take over the stream.
  void set_fenced(bool f) { fenced_ = f; }
  [[nodiscard]] bool fenced() const { return fenced_; }
  /// Fenced and parked at an op boundary (or finished). Cores waiting at a
  /// barrier are NOT drained — the sampling driver treats them as
  /// handoff-ready and completes the barrier functionally when their peers'
  /// streams reach it (docs/checkpointing.md).
  [[nodiscard]] bool drained() const {
    return done_ || (fenced_ && !has_op_ && compute_left_ == 0 && !blocked());
  }
  /// Functional fast-forward: this core's kDone was consumed outside the
  /// detailed model; mark it finished exactly as tick() would have.
  void warm_mark_done() {
    done_ = true;
    ++finished_;
  }
  /// Functional fast-forward: this core's stream reached a barrier op.
  /// Enter the same wait state tick() would have; the barrier controller's
  /// release_barrier() clears it via barrier_release().
  void warm_arrive_barrier() {
    TCMP_DCHECK(!wait_barrier_ && !has_op_);
    wait_barrier_ = true;
  }
  /// Functional fast-forward: advance the instruction-fetch walk as if `n`
  /// instructions retired. The walk is deterministic in instruction count
  /// (budget countdown + pc_rng_ draws), so this reproduces the exact
  /// line sequence the detailed front-end would have fetched, warming the
  /// I-cache silently along the way — the cursor, RNG, and I-cache contents
  /// all re-enter detailed mode consistent with the stream position.
  void warm_advance_istream(std::uint64_t n);

  /// Wake contract (docs/kernel.md): a runnable core issues every cycle, so
  /// it reports Cycle{0}, which the driver's wake scan reads as the very
  /// next cycle; a blocked or finished one does nothing until an external
  /// fill / barrier release arrives (which can only land on a cycle another
  /// wake source keeps live). A drained (fence-parked) core is likewise
  /// event-free until unfenced.
  [[nodiscard]] Cycle next_event() const {
    return runnable() && !drained() ? Cycle{0} : kNeverCycle;
  }
  [[nodiscard]] bool quiescent() const { return done_; }

  /// Bulk equivalent of ticking a blocked core `n` times: accrues the same
  /// blocked-cycle accounting the per-cycle loop would have, so dead-cycle
  /// skipping stays bit-identical. Callers must only skip cycles on which
  /// every core is blocked or done.
  void account_idle(Cycle n);

  /// Roll back the accounting of one blocked tick. The partitioned driver's
  /// barrier replay (docs/partitioning.md) provisionally ticks every core in
  /// the parallel phase; when a barrier release within the same cycle would
  /// have unblocked this core before its serial turn, the blocked tick is
  /// undone here and the core re-ticked after the release.
  void undo_blocked_tick() { --blocked_counter_; }

  /// Checkpoint serialization (common/snapshot.hpp): the full execution
  /// cursor — front-end state, in-progress op, wait flags, the instruction
  /// total and the PC random stream.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.section("core");
    ar.verify(id_);
    ar.verify(code_lines_);
    ar.field(pc_rng_);
    ar.field(code_cursor_);
    ar.field(ifetch_budget_);
    ar.field(pending_code_line_);
    ar.field(have_pending_line_);
    ar.field(wait_ifetch_);
    ar.field(done_);
    ar.field(wait_fill_);
    ar.field(wait_barrier_);
    ar.field(wait_line_);
    ar.field(fill_retires_instr_);
    ar.field(compute_left_);
    ar.field(has_op_);
    ar.field(op_);
    ar.field(instructions_);
    ar.field(fenced_);
  }

 private:
  NodeId id_;
  Workload* workload_;
  protocol::L1Cache* l1_;
  StatRegistry* stats_;
  // tcmplint: snapshot-exempt (callback wired by the system constructor)
  BarrierFn on_barrier_;

  [[nodiscard]] LineAddr next_code_line();

  protocol::ICache* icache_ = nullptr;
  std::uint64_t code_lines_ = 512;
  Rng pc_rng_{1};
  std::uint64_t code_cursor_ = 0;
  unsigned ifetch_budget_ = 0;
  LineAddr pending_code_line_{};     ///< line chosen for the in-progress fetch
  bool have_pending_line_ = false;
  bool wait_ifetch_ = false;

  bool done_ = false;
  bool wait_fill_ = false;
  bool wait_barrier_ = false;
  LineAddr wait_line_{};
  bool fill_retires_instr_ = false;  ///< the blocked memory op retires on fill
  std::uint32_t compute_left_ = 0;
  bool has_op_ = false;
  Op op_{};
  std::uint64_t instructions_ = 0;
  bool fenced_ = false;  ///< sampling fence: park at the next op boundary
  // Interned stat handles (hot path: every ticked cycle).
  CounterRef blocked_counter_;
  CounterRef ifetch_stalls_;
  CounterRef miss_stalls_;
  CounterRef finished_;
};

}  // namespace tcmp::core

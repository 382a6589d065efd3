// Full-CMP assembly and simulation driver: n_tiles tiles (core + L1 + L2/
// directory slice + NIC, 16 up to 256 via CmpConfig::with_tiles) over the
// (possibly heterogeneous) mesh, plus a global barrier controller. Parallel
// parameter sweeps still run one CmpSystem per configuration
// (common/parallel.hpp; bench/paper.cpp runs every paper table that way).
//
// run() skips globally dead cycles instead of ticking an idle machine: after
// each live cycle every partition reads its next wake straight from the
// components it ticks (partition_next_wake: its running cores, the network,
// its directories' and loopbacks' due cycles, and the sampler/check
// cadences). Each *live* cycle executes the classic step in the classic
// order, touching only components with work — running cores, due routers,
// directories and loopbacks; a blocked core's tick only counts a blocked
// cycle, which its partition adds for all of them at once — so results are
// bit-identical to the plain per-cycle loop (docs/kernel.md).
//
// There is one driver, the cycle lockstep of docs/partitioning.md. The tile
// array is split into K = CmpConfig::threads contiguous row-block partitions
// (sim/partition.hpp), each with its own StatRegistry shard, run on
// min(K, host cores) threads; K = 1 is one partition on the calling thread,
// with no worker threads and no barrier. A live cycle is every partition's
// phase, then one barrier crossing whose completion — run by the last
// thread to arrive — is the serial step: barrier replay, periodic check,
// end-of-run and dead-cycle-skip decision, and the next cycle's prologue.
// Cross-partition interaction is message-only: NoC flits/credits ride
// parity-buffered boundary channels under the >= 1-cycle link
// synchronization horizon, drained by their consumer at the start of its
// next phase; barrier arrivals are recorded as events and replayed serially
// in tile order; and at K > 1 the slack beneficiary probe reads a
// double-buffered stall snapshot.
// Simulation results are deterministic and independent of K — byte-identical
// to the seed's reports at K = 1, and byte-identical reports and metrics
// documents at any K: shard merges sum integers exactly, in any order
// (docs/partitioning.md; the one documented exception is slack
// *classification*, which at K > 1 reads the previous cycle's stall snapshot
// instead of live core state).
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cmp/config.hpp"
#include "common/cache_line.hpp"
#include "common/node_set.hpp"
#include "common/stats.hpp"
#include "core/core_model.hpp"
#include "core/workload.hpp"
#include "het/nic.hpp"
#include "noc/network.hpp"
#include "obs/flight_recorder.hpp"
#include "protocol/delay_queue.hpp"
#include "protocol/directory.hpp"
#include "protocol/icache.hpp"
#include "protocol/l1_cache.hpp"
#include "sim/partition.hpp"

namespace tcmp::obs {
class Observer;
class SlackTelemetry;
}
namespace tcmp::sim {
class SelfProfiler;
}

namespace tcmp::cmp {

class CmpSystem {
 public:
  CmpSystem(const CmpConfig& cfg, std::shared_ptr<core::Workload> workload);
  /// Unregisters the post-mortem abort hook, if one was installed.
  ~CmpSystem();
  CmpSystem(const CmpSystem&) = delete;
  CmpSystem& operator=(const CmpSystem&) = delete;

  /// Run until every core finished and the machine drained, or `max_cycles`
  /// elapsed. Returns true when the workload completed. Skips globally dead
  /// cycles (see set_dead_cycle_skipping and partition_next_wake).
  bool run(Cycle max_cycles = Cycle{500'000'000});

  /// Single simulation step (tests). Always advances exactly one cycle.
  void step();

  /// Disable/enable dead-cycle skipping in run(). Results are bit-identical
  /// either way; the per-cycle loop exists for A/B measurement
  /// (bench/micro_kernel.cpp) and as a determinism cross-check.
  void set_dead_cycle_skipping(bool on) { dead_cycle_skipping_ = on; }
  [[nodiscard]] bool dead_cycle_skipping() const { return dead_cycle_skipping_; }

  /// Earliest cycle after now at which partition p has work: now + 1 as soon
  /// as one of its running cores is not fence-parked, else the minimum over
  /// the network's share, the partition's directory and loopback due cycles
  /// and, on partition 0, the time-series sampler and periodic-check
  /// cadences (kNeverCycle: nothing will ever act without outside input).
  /// Any source at or before now + 1 ends the scan. kProfiled counts the
  /// per-source polls and hot exits of scan_stats() (same result).
  template <bool kProfiled = false>
  [[nodiscard]] Cycle partition_next_wake(unsigned p);
  /// Partitions the tile array is split into.
  [[nodiscard]] unsigned num_partitions() const { return n_parts_; }
  /// Due-array invariant (tests): no directory or loopback is due later than
  /// its next event, so none is skipped while it has work.
  [[nodiscard]] bool due_arrays_cover_work() const;
  /// Core-set invariant (tests): every runnable core's running bit is set,
  /// no blocked or done core has one, and each partition's done count is
  /// exact.
  [[nodiscard]] bool core_sets_match_cores() const;

  /// Measured cycles (excludes the functional-warmup phase, if any).
  [[nodiscard]] Cycle cycles() const { return now_ - measure_start_; }
  [[nodiscard]] Cycle total_cycles() const { return now_; }
  [[nodiscard]] bool warmup_done() const { return warmup_done_; }
  [[nodiscard]] bool finished() const;
  [[nodiscard]] std::uint64_t total_instructions() const;
  [[nodiscard]] std::uint64_t compression_accesses() const;
  /// Instruction / compression-access counts for the measured phase only.
  [[nodiscard]] std::uint64_t measured_instructions() const {
    return total_instructions() - warmup_instructions_;
  }
  [[nodiscard]] std::uint64_t measured_compression_accesses() const {
    return compression_accesses() - warmup_compression_accesses_;
  }

  [[nodiscard]] const CmpConfig& config() const { return cfg_; }
  [[nodiscard]] const StatRegistry& stats() const { return stats_; }
  [[nodiscard]] StatRegistry& stats() { return stats_; }
  /// Registry view for reports and exports: at K = 1 the registry itself; at
  /// K > 1 the partition shards folded together in partition-index order
  /// (StatRegistry::merge_from). The merge is recomputed on every call —
  /// references into a previous return value do not survive the next one —
  /// so call it at report time, not per cycle.
  [[nodiscard]] const StatRegistry& merged_stats() const;
  [[nodiscard]] core::Workload& workload() { return *workload_; }

  // Component access for tests and examples. These hand out references into
  // tile-owned state, which is exactly what the tile-escape lint polices:
  // they are sanctioned for single-threaded drivers (tests, examples,
  // verify scans) only and must never be called from sweep worker threads
  // or, later, across partition boundaries (docs/static-analysis.md).
  // tcmplint: tile-seam (single-threaded test/verify access)
  [[nodiscard]] protocol::L1Cache& l1(unsigned tile) { return *tiles_[tile]->l1; }
  // tcmplint: tile-seam (single-threaded test/verify access)
  [[nodiscard]] protocol::Directory& directory(unsigned tile) {
    return *tiles_[tile]->dir;
  }
  // tcmplint: tile-seam (single-threaded test/verify access)
  [[nodiscard]] core::Core& core(unsigned tile) { return *tiles_[tile]->core; }
  // tcmplint: tile-seam (single-threaded test/verify access)
  [[nodiscard]] het::TileNic& nic(unsigned tile) { return *tiles_[tile]->nic; }
  [[nodiscard]] noc::Network& network() { return *network_; }
  [[nodiscard]] const noc::Network& network() const { return *network_; }

  /// Human-readable machine-state snapshot (deadlock triage, debugging):
  /// per-core progress and block reasons, outstanding protocol transactions,
  /// network occupancy.
  void dump_state(std::ostream& out) const;

  /// Observe every remote (mesh-traversing) message at injection time.
  /// The paper driver's Fig. 2 probe feeds each scheme's compressors from it.
  using MsgHook = std::function<void(const protocol::CoherenceMsg&)>;
  void set_remote_msg_hook(MsgHook hook) { remote_hook_ = std::move(hook); }

  /// Install a periodic global check (the coherence-lint scanner): `check`
  /// runs every `interval` cycles at the end of step(); returning false
  /// aborts the run (aborted() turns true and run() stops). Interval 0 or a
  /// null function uninstalls.
  using PeriodicCheck = std::function<bool(Cycle)>;
  void set_periodic_check(Cycle interval, PeriodicCheck check);
  /// True when a periodic check failed; run() returns false from then on.
  [[nodiscard]] bool aborted() const { return aborted_; }

  /// Wire a message-lifecycle / telemetry observer into every component
  /// (network, routers, NICs, L1s, directories) and register the directory
  /// occupancy gauges. Null detaches. The observer must outlive the system
  /// (or be detached first). Attaching also enables the slack/criticality
  /// telemetry (enable_slack_telemetry). Observers are a single-threaded
  /// feature: attaching one requires threads == 1 (their trace/window state
  /// is shared across tiles). At K > 1 the only supported telemetry is slack.
  void attach_observer(obs::Observer* obs);

  /// Slack/criticality telemetry (obs/slack.hpp): messages are tagged at
  /// injection and realized slack is measured at core unstall. One
  /// SlackTelemetry per partition, registered on that partition's registry
  /// shard under the same stat names, so the report-time merge reassembles
  /// the whole-machine distributions. Idempotent; call before run().
  void enable_slack_telemetry();
  /// Flush deliveries still parked at the end of the run into the
  /// nonblocking counters. Call once the run is over, before any report or
  /// export reads the slack stats; idempotent, no-op when slack is off.
  void finalize_slack();
  /// Write the slack class x wire table (tcmpsim --slack-report) from the
  /// merged partition shards, finalizing first. No-op when slack is off.
  void write_slack_table(std::ostream& out);

  /// Attach an opt-in host-time self-profiler (sim/profiler.hpp): run()
  /// switches to an instrumented loop that attributes wall time per driver
  /// section and per kernel phase (pull scan / dead-cycle skip). Requires
  /// threads == 1. Null detaches (the unprofiled loop carries zero
  /// instrumentation). Results are bit-identical either way.
  void set_profiler(sim::SelfProfiler* prof);
  [[nodiscard]] sim::SelfProfiler* profiler() const { return prof_; }
  /// Pull-scan attribution of the profiled run, one row per wake source of
  /// partition_next_wake: how often it was polled, and how often it ended
  /// the scan by wanting the very next cycle (the hot exit).
  struct ScanStat {
    const char* name = nullptr;
    std::uint64_t polls = 0;
    std::uint64_t hot_exits = 0;
  };
  [[nodiscard]] std::span<const ScanStat> scan_stats() const { return scan_stats_; }
  /// Profiler table plus the pull-scan attribution.
  void write_self_profile(std::ostream& out) const;

  /// The always-on flight recorder: a bounded ring of recent
  /// message-lifecycle events per tile (obs/flight_recorder.hpp).
  [[nodiscard]] const obs::FlightRecorder& flight_recorder() const {
    return flight_;
  }
  /// Arm the crash post-mortem: on a TCMP_CHECK/TCMP_DCHECK abort (via the
  /// common/abort.hpp hooks) or an explicit dump_postmortem() call — e.g.
  /// after a coherence-lint abort — the flight recorder is dumped to `path`.
  /// Empty disarms.
  void set_postmortem_path(std::string path);
  [[nodiscard]] const std::string& postmortem_path() const {
    return postmortem_path_;
  }
  /// Dump the flight recorder to the armed path now (lint-abort path).
  /// Returns false when disarmed or the file could not be written.
  bool dump_postmortem() const;

  // --- Checkpoint/restore (docs/checkpointing.md) --------------------------
  // A checkpoint is taken between cycles and captures every bit of
  // simulation-visible state: cores, caches, directories, NIC compressor /
  // sequence state, routers, loopbacks, stat shards, RNGs, barrier
  // controller, and the workload's cursors (the workload must report
  // can_snapshot()). A restored run continues byte-identically to the
  // uninterrupted one at the same --threads K; the fingerprint refuses a
  // snapshot taken under a different config, workload, or K. Runtime
  // attachments (observer, periodic check, profiler, postmortem path) are
  // deliberately NOT captured — they are re-made by the driver.
  void save_checkpoint(std::ostream& out);
  void load_checkpoint(std::istream& in);
  /// Config/workload identity baked into the snapshot header.
  [[nodiscard]] std::string snapshot_fingerprint() const;

 private:
  /// One body for both archive directions (save/load_checkpoint dispatch).
  template <typename Ar>
  void snapshot_io(Ar& ar);

  friend class SampledRun;  // the sampling driver (cmp/sampling.cpp) drives
                            // fence/drain/warm phases through private state
  struct Tile {
    std::unique_ptr<protocol::L1Cache> l1;
    std::unique_ptr<protocol::ICache> l1i;
    std::unique_ptr<protocol::Directory> dir;
    std::unique_ptr<core::Core> core;
    std::unique_ptr<het::TileNic> nic;
    /// Tile-internal messages (L1 <-> local L2 slice) bypass the mesh.
    /// FIFO pipe: pushed with kLoopbackLatency at non-decreasing now_, so
    /// deadlines are monotone and the head is the tile's next loopback wake.
    protocol::FifoDelayQueue<protocol::CoherenceMsg> loopback;
  };
  /// The tile-internal L1 <-> L2 hop.
  static constexpr Cycle kLoopbackLatency{1};

  /// A core's barrier arrival or done transition observed during the
  /// parallel phase; replayed serially in tile order.
  struct BarrierEvent {
    unsigned core = 0;
    std::uint32_t id = 0;   ///< barrier id (arrivals only)
    bool done = false;      ///< true: done transition, false: barrier arrival
  };

  /// One partition's private simulation state (docs/partitioning.md), on
  /// cache lines of its own: only the owning thread writes it during the
  /// phase, and the serial step reads it.
  /// Partition 0's shard aliases stats_, so at K = 1 the single partition
  /// owns the single registry.
  struct alignas(kCacheLine) Partition {
    std::unique_ptr<StatRegistry> owned_shard;  ///< null for partition 0
    StatRegistry* shard = nullptr;              ///< == &stats_ for partition 0
    /// Interned per-shard handles for the driver-level message counters
    /// (route_outgoing runs on the owning partition's thread).
    std::array<CounterRef, protocol::kNumMsgTypes> msg_counters{};
    CounterRef local_count;
    CounterRef remote_count;
    CounterRef remote_bytes;
    /// Barrier arrivals / done transitions recorded (tile-ordered) during
    /// the parallel phase, replayed serially (replay_barrier_events).
    std::vector<BarrierEvent> events;
    /// Slack shard (enable_slack_telemetry); null when slack is off.
    std::unique_ptr<obs::SlackTelemetry> slack;
    /// Due cycles of the partition's directories and loopbacks, indexed by
    /// tile - plan_.first(p): never later than the component's next event.
    /// Lowered by Directory::deliver and the loopback push, reset from
    /// next_event() / next_ready() after a tick or pop; parallel_phase runs
    /// only due entries.
    CacheLineVector<Cycle> dir_due;
    CacheLineVector<Cycle> loop_due;
    /// Bit tile - plan_.first(p) is set while that core is runnable: set at
    /// every unblock site (fill, I-fill, barrier release, replay re-tick),
    /// cleared when a tick blocks or finishes the core. Derived state,
    /// rebuilt by rebuild_core_sets.
    NodeSet running;
    /// The partition's finished cores.
    unsigned done = 0;
    /// The shard's core.blocked_cycles, which every core of the partition
    /// bumps: blocked cores are counted here in bulk instead of ticked.
    CounterRef blocked_cycles;
    // Published at the end of the phase for the serial step.
    bool finished = false;
    Cycle next_wake{0};
    /// Earliest arrival of the flits pushed into other partitions this live
    /// cycle (Network::pushed_earliest).
    Cycle pushed{kNeverCycle};

    /// Cores neither running nor done: blocked on a fill or at a barrier.
    [[nodiscard]] unsigned blocked(unsigned count) const {
      return count - running.count() - done;
    }
  };

  void route_outgoing(NodeId tile, protocol::CoherenceMsg msg);
  void deliver_local(NodeId tile, const protocol::CoherenceMsg& msg);
  /// Slack telemetry: is the core that benefits from `msg` (the requester
  /// whose miss it serves) currently stalled waiting for it? At K > 1 this
  /// reads the previous cycle's published stall snapshot — the cross-
  /// partition form of the probe (docs/partitioning.md).
  [[nodiscard]] bool beneficiary_stalled(const protocol::CoherenceMsg& msg) const;
  /// The slack telemetry sink for events on `tile`: the owning partition's
  /// shard; null when slack is off.
  [[nodiscard]] obs::SlackTelemetry* slack_for(unsigned tile) const {
    return parts_[part_of_[tile]]->slack.get();
  }
  [[nodiscard]] std::vector<std::string> wire_class_names() const;
  // --- The cycle lockstep (docs/partitioning.md) --------------------------
  /// Partition p's tiles: tile ids plan_.first(p) onwards.
  [[nodiscard]] std::span<const std::unique_ptr<Tile>> tiles_of(unsigned p) const {
    return std::span(tiles_).subspan(plan_.first(p), plan_.count(p));
  }
  /// The due-array entries of `tile` in its owning partition.
  [[nodiscard]] Cycle& dir_due(unsigned tile) {
    return parts_[part_of_[tile]]->dir_due[tile - plan_.first(part_of_[tile])];
  }
  [[nodiscard]] Cycle& loop_due(unsigned tile) {
    return parts_[part_of_[tile]]->loop_due[tile - plan_.first(part_of_[tile])];
  }
  /// Reset every due entry to its component's next event (checkpoint load).
  void rebuild_due_arrays();
  /// Reset every partition's running set and done count from its cores
  /// (construction, checkpoint load, after sampling's functional phase).
  void rebuild_core_sets();
  /// Set `tile`'s running bit when its core is runnable (the unblock sites).
  void mark_if_runnable(unsigned tile);
  /// run() body, compiled with or without self-profiler laps (results are
  /// bit-identical in both): T = min(K, host cores) threads — T - 1 workers
  /// plus this thread — each running every T-th partition's phase, then
  /// crossing the spin barrier, whose last arrival runs the serial step
  /// (epilogue, dead-cycle skip, next prologue). T = 1 runs the serial step
  /// inline.
  template <bool kProfiled>
  bool run_partitioned(Cycle max_cycles);
  /// Before the cycle's phases: advance the clock, publish it to the
  /// network, take a time-series sample when one is due.
  template <bool kProfiled>
  void serial_prologue();
  /// Partition p's share of one live cycle: drain the boundary events its
  /// neighbours pushed last live cycle, tick the partition's due routers and
  /// busy lanes, pop the due loopbacks, tick the due directories and the
  /// running cores (recording barrier events), publish the stall snapshot,
  /// the partition's finished flag, next wake and pushed-flit horizon.
  template <bool kProfiled>
  void parallel_phase(unsigned p);
  /// After every partition's phase: barrier-event replay (only when some
  /// partition recorded events), stall-snapshot swap, periodic check.
  /// Returns the earliest next live cycle (kNeverCycle when nothing is
  /// pending) and sets epilogue_finished_.
  template <bool kProfiled>
  Cycle serial_epilogue();
  /// Replay the parallel phase's barrier arrivals / done transitions in tile
  /// order, reproducing mid-cycle releases as a tick-by-tick walk would see
  /// them (undo the provisionally blocked ticks, release, re-tick). Returns
  /// true when any release happened.
  bool replay_barrier_events();
  /// Serial-order handling of one barrier arrival during replay.
  void replay_arrival(unsigned core, std::uint32_t id);
  /// Every core of partition p done and its memory system, loopbacks and
  /// network share quiescent (the done count short-circuits).
  [[nodiscard]] bool partition_finished(unsigned p) const;
  /// Partition p's memory system, NICs, loopbacks and network share hold no
  /// work.
  [[nodiscard]] bool partition_quiescent(unsigned p) const;
  /// The cores' barrier handler: records the arrival for replay, or applies
  /// it directly while replaying.
  void on_barrier(unsigned core, std::uint32_t id);
  [[nodiscard]] unsigned done_cores() const;
  /// Barrier-controller bookkeeping of one arrival; true when, with `done`
  /// finished cores, it completes the barrier (the caller releases).
  bool arrive(unsigned core, std::uint32_t id, unsigned done);
  /// Release the pending barrier when every core is waiting or one of the
  /// `done` finished ones; true when it released.
  bool release_if_complete(unsigned done);
  void release_barrier();
  void end_warmup();
  /// Jump the clock to `target`, bulk-accounting the blocked-core cycles the
  /// per-cycle loop would have accrued (a running core in a dead span is
  /// fence-parked, whose tick counts nothing). Only valid when every cycle
  /// in (now_, target] is globally dead.
  void advance_idle(Cycle target);

  CmpConfig cfg_;
  // Serialized through the per-partition shard pointers in the checkpoint's
  // stats section, which alias this registry.
  // tcmplint: snapshot-exempt (saved via the aliasing per-partition shards)
  StatRegistry stats_;
  // tcmplint: snapshot-exempt (config-derived; rebuilt by the constructor)
  sim::PartitionPlan plan_;
  unsigned n_parts_ = 1;
  // tcmplint: snapshot-exempt (derived from plan_; rebuilt by the ctor)
  std::vector<unsigned> part_of_;  ///< [tile] owning partition
  std::vector<std::unique_ptr<Partition>> parts_;
  /// Merge cache behind merged_stats() (K > 1 report path).
  // tcmplint: snapshot-exempt (cache; recomputed on demand after restore)
  mutable StatRegistry merged_;
  // tcmplint: snapshot-exempt (config toggle, not simulation state)
  bool dead_cycle_skipping_ = true;
  /// Hoisted per-cycle conditions: the next cycle at which the time-series
  /// sampler / the periodic check may fire (kNeverCycle when detached).
  /// step() compares against these instead of re-testing obs_ != nullptr and
  /// now_ % check_interval_ every cycle; both are also partition 0's wake
  /// sources.
  // tcmplint: snapshot-exempt (re-derived by attach_observer after restore)
  Cycle obs_sample_due_{kNeverCycle};
  // tcmplint: snapshot-exempt (re-anchored by load_checkpoint)
  Cycle check_due_{kNeverCycle};
  // tcmplint: snapshot-exempt (runtime attachment; set_periodic_check)
  Cycle check_interval_{0};
  // tcmplint: snapshot-exempt (runtime attachment; set_periodic_check)
  PeriodicCheck periodic_check_;
  // tcmplint: snapshot-exempt (save_checkpoint refuses aborted runs)
  bool aborted_ = false;
  // Interned stat handles for the serially-handled barrier controller
  // (shard 0; the per-message counters live in Partition::msg_counters).
  CounterRef barrier_arrivals_;
  CounterRef barriers_completed_;
  std::shared_ptr<core::Workload> workload_;
  // tcmplint: snapshot-exempt (runtime attachment, re-installed after restore)
  MsgHook remote_hook_;
  obs::Observer* obs_ = nullptr;
  /// Always-on bounded message-lifecycle history (crash post-mortems).
  // tcmplint: snapshot-exempt (host-side debugging ring, never sim input)
  obs::FlightRecorder flight_;
  // tcmplint: snapshot-exempt (host-side crash plumbing, never sim input)
  std::string postmortem_path_;
  // tcmplint: snapshot-exempt (process-local abort registration)
  std::uint64_t abort_token_ = 0;  ///< common/abort.hpp registration
  /// Opt-in self-profiler and its registered scope ids (set_profiler).
  sim::SelfProfiler* prof_ = nullptr;
  // tcmplint: snapshot-exempt (profiler scope ids; set_profiler re-registers)
  unsigned sc_obs_ = 0, sc_net_ = 0, sc_loopback_ = 0, sc_dirs_ = 0,
           sc_cores_ = 0, sc_barrier_ = 0, sc_check_ = 0, sc_drain_ = 0,
           sc_scan_ = 0, sc_idle_ = 0;
  /// partition_next_wake's wake sources, in scan order (scan_stats rows).
  enum ScanSource : unsigned { kScanCore, kScanNetwork, kScanDir, kScanLoopback,
                               kScanSampler, kScanCheck, kNumScanSources };
  // tcmplint: snapshot-exempt (host-side self-profiling, not machine state)
  std::array<ScanStat, kNumScanSources> scan_stats_{
      {{"core"}, {"network"}, {"dir"}, {"loopback"}, {"obs.sampler"},
       {"periodic.check"}}};
  std::unique_ptr<noc::Network> network_;
  std::vector<std::unique_ptr<Tile>> tiles_;
  Cycle now_{0};

  // Barrier controller, touched only serially (the parallel phase records
  // events; replay_barrier_events applies them).
  std::vector<bool> at_barrier_;
  unsigned waiting_ = 0;
  std::uint32_t pending_barrier_id_ = 0;
  /// on_barrier applies arrivals directly (inside replay_barrier_events)
  /// instead of recording them. Written only in the serial step, so
  /// phase reads are race-free.
  // tcmplint: snapshot-exempt (epilogue scratch, false between cycles)
  bool replaying_ = false;
  // replay_barrier_events working state (serial epilogue only): scratch that
  // is always consumed before the between-cycles checkpoint boundary.
  // tcmplint: snapshot-exempt (epilogue scratch, idle between cycles)
  unsigned replay_done_count_ = 0;
  // tcmplint: snapshot-exempt (epilogue scratch, idle between cycles)
  std::vector<bool> replay_retick_;
  // tcmplint: snapshot-exempt (epilogue scratch, idle between cycles)
  bool replay_any_action_ = false;
  // tcmplint: snapshot-exempt (epilogue scratch, recomputed every cycle)
  bool epilogue_finished_ = false;
  /// Double-buffered per-tile stall snapshots for the K > 1 slack probe:
  /// the phase writes next (own tiles only), the serial epilogue swaps,
  /// beneficiary_stalled reads published. Sized only when slack telemetry
  /// is enabled at K > 1.
  std::vector<core::StallSnapshot> stall_published_;
  std::vector<core::StallSnapshot> stall_next_;

  // Warmup/measurement boundary.
  Cycle measure_start_{0};
  bool warmup_done_ = false;
  std::uint64_t warmup_instructions_ = 0;
  std::uint64_t warmup_compression_accesses_ = 0;
};

}  // namespace tcmp::cmp

#include "cmp/system.hpp"

#include <algorithm>
#include <ostream>
#include <thread>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/abort.hpp"
#include "common/check.hpp"
#include "noc/channel.hpp"
#include "obs/observer.hpp"
#include "obs/slack.hpp"
#include "sim/profiler.hpp"

namespace tcmp::cmp {

using protocol::CoherenceMsg;

namespace {

/// Off-chip latency while the functional warmup fills the caches; the
/// measured phase runs at CmpConfig::l2.memory_latency.
constexpr Cycle kWarmupMemoryLatency{40};

/// Keep freed heap memory in the process for the next system. Sweeps build
/// systems back to back, one alive at a time, and a system's directory
/// arrays alone take 288 KiB per tile (4096 lines of 72 B). glibc's default
/// policy hands the top of the heap back to the kernel once it passes a
/// threshold it derives from past allocations, so each new system would
/// fault all of that memory in again. Fixed thresholds (the cap of glibc's
/// own dynamic mmap threshold, and 128 MiB of free heap top) keep it for
/// reuse. Process-wide; set once.
void retain_freed_heap() {
#ifdef __GLIBC__
  static const bool kSet = mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 &&
                           mallopt(M_TRIM_THRESHOLD, 128 << 20) == 1;
  static_cast<void>(kSet);
#endif
}

}  // namespace

CmpSystem::CmpSystem(const CmpConfig& cfg, std::shared_ptr<core::Workload> workload)
    : cfg_(cfg),
      plan_(cfg.mesh_width, cfg.mesh_height, cfg.threads),
      workload_(std::move(workload)),
      flight_(cfg.n_tiles) {
  retain_freed_heap();
  TCMP_CHECK(workload_ != nullptr);
  TCMP_CHECK(cfg_.n_tiles == cfg_.mesh_width * cfg_.mesh_height);
  TCMP_CHECK(cfg_.threads >= 1);
  n_parts_ = plan_.num_partitions();
  part_of_.resize(cfg_.n_tiles);
  for (unsigned t = 0; t < cfg_.n_tiles; ++t) part_of_[t] = plan_.part_of(t);

  // Partition shards. Partition 0 aliases stats_, so the K = 1 machine has
  // the seed's single registry; every shard registers the same stat names,
  // and merged_stats() folds them back.
  std::vector<StatRegistry*> shards;
  for (unsigned p = 0; p < n_parts_; ++p) {
    auto part = std::make_unique<Partition>();
    if (p == 0) {
      part->shard = &stats_;
    } else {
      part->owned_shard = std::make_unique<StatRegistry>();
      part->shard = part->owned_shard.get();
    }
    for (unsigned i = 0; i < protocol::kNumMsgTypes; ++i) {
      const auto type = static_cast<protocol::MsgType>(i);
      part->msg_counters[i] = part->shard->counter_ref(
          "msg." + std::string(protocol::to_string(type)));
    }
    part->local_count = part->shard->counter_ref("msg_local.count");
    part->remote_count = part->shard->counter_ref("msg_remote.count");
    part->remote_bytes =
        part->shard->counter_ref("msg_remote.uncompressed_bytes");
    part->dir_due.assign(plan_.count(p), kNeverCycle);
    part->loop_due.assign(plan_.count(p), kNeverCycle);
    part->blocked_cycles = part->shard->counter_ref("core.blocked_cycles");
    shards.push_back(part->shard);
    parts_.push_back(std::move(part));
  }
  // The barrier controller always runs serially; its counters live on shard 0.
  barrier_arrivals_ = stats_.counter_ref("sync.barrier_arrivals");
  barriers_completed_ = stats_.counter_ref("sync.barriers_completed");

  noc::NocConfig ncfg;
  ncfg.width = cfg_.mesh_width;
  ncfg.height = cfg_.mesh_height;
  ncfg.topology = cfg_.topology;
  ncfg.channels = noc::make_channels(cfg_.link);
  ncfg.single_cycle_router = cfg_.single_cycle_router;
  network_ = std::make_unique<noc::Network>(ncfg, plan_, shards);

  at_barrier_.assign(cfg_.n_tiles, false);

  for (unsigned t = 0; t < cfg_.n_tiles; ++t) {
    auto tile = std::make_unique<Tile>();
    const auto id = static_cast<NodeId>(t);
    StatRegistry* const shard = shards[part_of_[t]];
    auto sink = [this, id](CoherenceMsg msg) { route_outgoing(id, msg); };
    tile->l1 = std::make_unique<protocol::L1Cache>(
        id, cfg_.l1, cfg_.n_tiles, cfg_.reply_partitioning, shard, sink);
    tile->dir = std::make_unique<protocol::Directory>(
        id, cfg_.l2, cfg_.n_tiles, cfg_.reply_partitioning, shard, sink);
    tile->nic = std::make_unique<het::TileNic>(id, cfg_.scheme, cfg_.link.style,
                                               cfg_.n_tiles, network_.get(),
                                               shard);
    tile->l1i = std::make_unique<protocol::ICache>(id, protocol::ICache::Config{},
                                                   cfg_.n_tiles, shard, sink);
    tile->core = std::make_unique<core::Core>(id, workload_.get(),
                                              tile->l1.get(), shard);
    tile->core->set_icache(tile->l1i.get(), workload_->code_lines());
    tile->core->set_barrier_handler(
        [this](unsigned c, std::uint32_t b) { on_barrier(c, b); });
    // Fill callbacks wrap the core notification with the slack-telemetry
    // unstall probe: when the core was provably stalled on this line, the
    // fill resolves every delivery parked against the stall (realized slack
    // = unstall cycle - delivery cycle). The partition's slack shard is null
    // unless telemetry is enabled, so the probe costs one branch.
    tile->l1->set_fill_callback(
        // tcmplint: tile-seam (same-tile fill callback wired at construction; never crosses a partition)
        [this, core = tile->core.get(), id](LineAddr line) {
          const bool was_stalled = core->stalled_on(line);
          core->on_fill(line);
          mark_if_runnable(id);
          obs::SlackTelemetry* const sl = slack_for(id);
          if (was_stalled && sl != nullptr) [[unlikely]] {
            sl->on_unstall(id, line, now_);
          }
        });
    // tcmplint: tile-seam (same-tile fill callback wired at construction; never crosses a partition)
    tile->l1i->set_fill_callback([this, core = tile->core.get(), id] {
      const bool was_stalled = core->stalled_on_ifetch();
      core->on_ifill();
      mark_if_runnable(id);
      obs::SlackTelemetry* const sl = slack_for(id);
      if (was_stalled && sl != nullptr) [[unlikely]] {
        sl->on_unstall_ifetch(id, now_);
      }
    });
    tiles_.push_back(std::move(tile));
  }
  rebuild_core_sets();

  network_->set_deliver([this](NodeId node, const CoherenceMsg& msg) {
    tiles_[node]->nic->receive(
        msg, now_, [this, node](const CoherenceMsg& m) { deliver_local(node, m); });
  });

  if (workload_->has_warmup()) {
    // Functional warmup: fill caches quickly, then measure the steady
    // parallel phase at the real memory latency.
    for (auto& t : tiles_) t->dir->set_memory_latency(kWarmupMemoryLatency);
  } else {
    warmup_done_ = true;
  }
}

CmpSystem::~CmpSystem() {
  if (abort_token_ != 0) AbortHooks::remove(abort_token_);
}

void CmpSystem::set_postmortem_path(std::string path) {
  if (abort_token_ != 0) {
    AbortHooks::remove(abort_token_);
    abort_token_ = 0;
  }
  postmortem_path_ = std::move(path);
  if (!postmortem_path_.empty()) {
    abort_token_ = AbortHooks::add([this] { dump_postmortem(); });
  }
}

bool CmpSystem::dump_postmortem() const {
  if (postmortem_path_.empty()) return false;
  return flight_.dump_to_file(postmortem_path_);
}

void CmpSystem::set_profiler(sim::SelfProfiler* prof) {
  TCMP_CHECK_MSG(prof == nullptr || n_parts_ == 1,
                 "the self-profiler times the single partition's phases "
                 "(threads == 1)");
  prof_ = prof;
  if (prof == nullptr) return;
  // Scope registration order is presentation order (the laps follow the
  // cycle's phases, see run_partitioned).
  sc_obs_ = prof->register_scope("obs.sample");
  sc_net_ = prof->register_scope("network");
  sc_loopback_ = prof->register_scope("loopback");
  sc_dirs_ = prof->register_scope("directories");
  sc_cores_ = prof->register_scope("cores");
  sc_barrier_ = prof->register_scope("barrier");
  sc_check_ = prof->register_scope("periodic.check");
  sc_drain_ = prof->register_scope("drain.check");
  sc_scan_ = prof->register_scope("kernel.scan");
  sc_idle_ = prof->register_scope("idle.skip");
}

void CmpSystem::write_self_profile(std::ostream& out) const {
  if (prof_ == nullptr) {
    out << "self-profile: no profiler attached\n";
    return;
  }
  prof_->write_table(out);
  std::uint64_t total_polls = 0;
  for (const ScanStat& s : scan_stats_) total_polls += s.polls;
  out << "kernel pull-scan (" << total_polls << " polls):\n";
  for (const ScanStat& s : scan_stats_) {
    out << "  " << s.name << ": polls=" << s.polls
        << " hot_exits=" << s.hot_exits << "\n";
  }
}

void CmpSystem::attach_observer(obs::Observer* obs) {
  TCMP_CHECK_MSG(obs == nullptr || n_parts_ == 1,
                 "observers are single-threaded (threads == 1); at K > 1 the "
                 "only supported telemetry is enable_slack_telemetry()");
  if (obs_ != nullptr && obs != obs_) obs_->set_clock(nullptr);
  obs_ = obs;
  network_->set_observer(obs);
  for (auto& t : tiles_) {
    t->nic->set_observer(obs);
    t->l1->set_hooks(obs);
    t->dir->set_hooks(obs);
  }
  if (obs == nullptr) {
    obs_sample_due_ = kNeverCycle;
    return;
  }
  // Slack telemetry rides every level that samples stats at all.
  enable_slack_telemetry();
  // The observer reads the system clock directly: hooks stay timestamped
  // without a per-cycle tick, and step() only calls into the observer when
  // a time-series sample is actually due.
  obs->set_clock(&now_);
  obs_sample_due_ = obs->timeseries().next_boundary();
  obs->label_tiles(cfg_.n_tiles);
  if (!warmup_done_) obs->set_warmup_pending();
  obs->add_gauge("dir_busy_lines", [this] {
    double total = 0;
    for (unsigned t = 0; t < cfg_.n_tiles; ++t) total += directory(t).busy_lines();
    return total;
  });
  obs->add_gauge("dir_queued_msgs", [this] {
    double total = 0;
    for (unsigned t = 0; t < cfg_.n_tiles; ++t) total += directory(t).queued_msgs();
    return total;
  });
}

void CmpSystem::route_outgoing(NodeId tile, CoherenceMsg msg) {
  Partition& P = *parts_[part_of_[tile]];
  ++P.msg_counters[static_cast<unsigned>(msg.type)];
  if (slack_for(tile) != nullptr) [[unlikely]] {
    // Tag at injection with the requesting core's state; the tag travels
    // with the message (telemetry-only field) and is read back at delivery.
    msg.slack_class = static_cast<std::uint8_t>(
        obs::classify(msg.type, beneficiary_stalled(msg)));
  }
  if (msg.dst == tile) {
    // Tile-internal hop (e.g. the local L2 slice is the home): no mesh
    // traversal, no compression, a fixed short latency. The queue head is a
    // wake source of partition_next_wake, through the tile's due entry.
    msg.wire_class = static_cast<std::uint8_t>(network_->num_channels());
    flight_.record(obs::FlightEventKind::kSendLocal, tile, msg, now_);
    const Cycle due = now_ + kLoopbackLatency;
    tiles_[tile]->loopback.push(due, msg);
    Cycle& loop = loop_due(tile);
    loop = std::min(loop, due);
    ++P.local_count;
    return;
  }
  ++P.remote_count;
  P.remote_bytes += protocol::uncompressed_bytes(msg.type);
  flight_.record(obs::FlightEventKind::kSendRemote, tile, msg, now_);
  if (remote_hook_) remote_hook_(msg);
  tiles_[tile]->nic->send(msg, now_);
}

bool CmpSystem::beneficiary_stalled(const CoherenceMsg& msg) const {
  if (!protocol::is_critical(msg.type)) return false;
  // The beneficiary is the core whose miss this message serves: the
  // requester when the protocol stamped one (forwards, acks, most replies),
  // else the sender for directory-bound requests or the receiver for
  // L1-bound replies.
  const NodeId b = msg.requester != kInvalidNode
                       ? msg.requester
                       : (msg.dst_unit == protocol::Unit::kDir ? msg.src
                                                               : msg.dst);
  if (b >= tiles_.size()) return false;
  const bool want_ifetch = msg.type == protocol::MsgType::kGetInstr ||
                           msg.dst_unit == protocol::Unit::kL1I;
  if (n_parts_ > 1) {
    // Cross-partition form of the probe: the beneficiary may live in another
    // partition, so read the previous cycle's published stall snapshot
    // instead of the live core. Used for every beneficiary at K > 1 so the
    // classification does not depend on the partition count — the one
    // documented divergence from K = 1 (docs/partitioning.md).
    const core::StallSnapshot& snap = stall_published_[b];
    return want_ifetch ? snap.ifetch : (snap.mem && snap.line == msg.line);
  }
  if (want_ifetch) return tiles_[b]->core->stalled_on_ifetch();
  return tiles_[b]->core->stalled_on(msg.line);
}

void CmpSystem::deliver_local(NodeId tile, const CoherenceMsg& msg) {
  flight_.record(obs::FlightEventKind::kDeliver, tile, msg, now_);
  obs::SlackTelemetry* const sl = slack_for(tile);
  if (sl != nullptr) [[unlikely]] {
    // Record BEFORE the handler runs: a reply that completes the miss
    // synchronously fires the fill callback (and the unstall probe) inside
    // the deliver below, resolving this very delivery with zero slack.
    const bool parked =
        obs::can_unstall_dst(msg.type, msg.dst_unit) &&
        (msg.dst_unit == protocol::Unit::kL1I
             ? tiles_[tile]->core->stalled_on_ifetch()
             : tiles_[tile]->core->stalled_on(msg.line));
    sl->on_delivered(tile, msg, parked, now_);
  }
  switch (msg.dst_unit) {
    case protocol::Unit::kDir: {
      Cycle& due = dir_due(tile);
      due = std::min(due, tiles_[tile]->dir->deliver(msg, now_));
      break;
    }
    case protocol::Unit::kL1I:
      tiles_[tile]->l1i->deliver(msg);
      break;
    case protocol::Unit::kL1:
      tiles_[tile]->l1->deliver(msg);
      break;
  }
  // Close the lifecycle span at protocol-handler completion, not ejection:
  // the gap between the two is delivery/handler time.
  if (obs_ != nullptr && msg.trace_id != 0) [[unlikely]] {
    obs_->msg_completed(msg, tile, now_);
  }
}

void CmpSystem::on_barrier(unsigned core, std::uint32_t id) {
  if (replaying_) {
    replay_arrival(core, id);
    return;
  }
  // Parallel phase: queue the arrival; the serial step replays the
  // per-partition lists in global tile order (docs/partitioning.md).
  parts_[part_of_[core]]->events.push_back(BarrierEvent{core, id, false});
}

unsigned CmpSystem::done_cores() const {
  unsigned done = 0;
  for (const auto& part : parts_) done += part->done;
  return done;
}

bool CmpSystem::arrive(unsigned core, std::uint32_t id, unsigned done) {
  TCMP_CHECK(!at_barrier_[core]);
  at_barrier_[core] = true;
  pending_barrier_id_ = id;
  ++waiting_;
  ++barrier_arrivals_;
  return waiting_ + done == cfg_.n_tiles;
}

bool CmpSystem::release_if_complete(unsigned done) {
  if (waiting_ == 0 || waiting_ + done != cfg_.n_tiles) return false;
  release_barrier();
  return true;
}

void CmpSystem::release_barrier() {
  const bool warmup_boundary =
      pending_barrier_id_ == core::kWarmupBarrierId && !warmup_done_;
  for (unsigned c = 0; c < cfg_.n_tiles; ++c) {
    if (at_barrier_[c]) {
      at_barrier_[c] = false;
      tiles_[c]->core->barrier_release();
      mark_if_runnable(c);
    }
  }
  waiting_ = 0;
  ++barriers_completed_;
  if (warmup_boundary) end_warmup();
}

void CmpSystem::end_warmup() {
  warmup_done_ = true;
  measure_start_ = now_;
  warmup_instructions_ = total_instructions();
  warmup_compression_accesses_ = compression_accesses();
  for (auto& t : tiles_) t->dir->set_memory_latency(cfg_.l2.memory_latency);
  // Flush the warmup telemetry window before the counters it snapshots are
  // zeroed, so measured-phase window deltas sum exactly to the final report.
  if (obs_ != nullptr) {
    obs_->on_registry_zeroed(now_);
    // phase_boundary moved the sampling window; refresh the hoisted check.
    obs_sample_due_ = obs_->timeseries().next_boundary();
  }
  for (auto& part : parts_) part->shard->zero_all();
}

void CmpSystem::set_periodic_check(Cycle interval, PeriodicCheck check) {
  if (interval == Cycle{0} || !check) {
    check_interval_ = Cycle{0};
    check_due_ = kNeverCycle;
    periodic_check_ = nullptr;
    return;
  }
  check_interval_ = interval;
  // First firing at the next multiple of the interval strictly after now_
  // (the per-cycle loop fired whenever now_ % interval == 0).
  check_due_ = Cycle{(now_.value() / interval.value() + 1) * interval.value()};
  periodic_check_ = std::move(check);
}

void CmpSystem::step() {
  serial_prologue<false>();
  // Sequential execution of the phases is equivalent to the threaded run:
  // the phases only exchange state through the parity-buffered boundary
  // channels, which a consumer drains in its next phase, and the stall
  // snapshots, which the epilogue swaps.
  for (unsigned p = 0; p < n_parts_; ++p) parallel_phase<false>(p);
  serial_epilogue<false>();
}

bool CmpSystem::finished() const {
  for (unsigned p = 0; p < n_parts_; ++p) {
    if (!partition_finished(p)) return false;
  }
  return network_->boundaries_empty();
}

void CmpSystem::advance_idle(Cycle target) {
  TCMP_DCHECK(target > now_);
  const Cycle skipped = target - now_;
  // The only side effect a dead cycle has in the per-cycle loop is blocked-
  // core accounting (every other component's tick is a provable no-op, which
  // is what made the cycles skippable in the first place).
  for (unsigned p = 0; p < n_parts_; ++p) {
    Partition& P = *parts_[p];
    P.blocked_cycles += skipped.value() * P.blocked(plan_.count(p));
  }
  now_ = target;
}

bool CmpSystem::run(Cycle max_cycles) {
  if (prof_ == nullptr) return run_partitioned<false>(max_cycles);
  // Lap-based attribution: the laps tile the whole loop contiguously, so the
  // table accounts for (nearly) all of run()'s wall time.
  prof_->start_run();
  const bool ok = run_partitioned<true>(max_cycles);
  prof_->stop_run();
  return ok;
}

// --- The cycle lockstep (docs/partitioning.md) ------------------------------

bool CmpSystem::due_arrays_cover_work() const {
  for (unsigned t = 0; t < cfg_.n_tiles; ++t) {
    const Partition& P = *parts_[part_of_[t]];
    const unsigned i = t - plan_.first(part_of_[t]);
    if (P.dir_due[i] > tiles_[t]->dir->next_event() ||
        P.loop_due[i] > tiles_[t]->loopback.next_ready()) {
      return false;
    }
  }
  return true;
}

void CmpSystem::rebuild_due_arrays() {
  for (unsigned t = 0; t < cfg_.n_tiles; ++t) {
    // tcmplint: tile-seam (single-threaded checkpoint load, between cycles)
    dir_due(t) = tiles_[t]->dir->next_event();
    loop_due(t) = tiles_[t]->loopback.next_ready();
  }
}

bool CmpSystem::core_sets_match_cores() const {
  for (unsigned p = 0; p < n_parts_; ++p) {
    const Partition& P = *parts_[p];
    const auto tiles = tiles_of(p);
    unsigned done = 0;
    for (unsigned i = 0; i < tiles.size(); ++i) {
      // tcmplint: tile-seam (single-threaded test check, between cycles)
      const bool runnable = tiles[i]->core->runnable();
      if (P.running.test(i) != runnable) return false;
      if (tiles[i]->core->done()) ++done;
    }
    if (done != P.done) return false;
  }
  return true;
}

void CmpSystem::rebuild_core_sets() {
  for (unsigned p = 0; p < n_parts_; ++p) {
    Partition& P = *parts_[p];
    const auto tiles = tiles_of(p);
    P.running.clear();
    P.done = 0;
    for (unsigned i = 0; i < tiles.size(); ++i) {
      if (tiles[i]->core->runnable()) P.running.set(i);
      if (tiles[i]->core->done()) ++P.done;
    }
  }
}

void CmpSystem::mark_if_runnable(unsigned tile) {
  const unsigned p = part_of_[tile];
  if (tiles_[tile]->core->runnable()) parts_[p]->running.set(tile - plan_.first(p));
}

bool CmpSystem::partition_finished(unsigned p) const {
  return parts_[p]->done == plan_.count(p) && partition_quiescent(p);
}

bool CmpSystem::partition_quiescent(unsigned p) const {
  for (const auto& tile : tiles_of(p)) {
    if (!tile->l1->quiescent() || !tile->l1i->quiescent() ||
        !tile->dir->quiescent() || !tile->nic->quiescent() ||
        !tile->loopback.empty()) {
      return false;
    }
  }
  return network_->quiescent_partition(p);
}

template <bool kProfiled>
Cycle CmpSystem::partition_next_wake(unsigned p) {
  // Scan order puts the likeliest hot sources first. The L1s, I-caches and
  // NICs act only on a delivery, which lands on a cycle one of these
  // sources already keeps live, so they are never wake sources.
  const Cycle next_cycle = now_ + 1;
  Cycle nxt = kNeverCycle;
  const auto hot = [&](ScanSource src, Cycle at) {
    if constexpr (kProfiled) ++scan_stats_[src].polls;
    if (at <= next_cycle) {
      if constexpr (kProfiled) ++scan_stats_[src].hot_exits;
      return true;
    }
    nxt = std::min(nxt, at);
    return false;
  };
  const Partition& P = *parts_[p];
  const auto tiles = tiles_of(p);
  // Only a running core can want the next cycle (Core::next_event); the
  // first one that is not fence-parked ends the scan.
  const auto hot_core = [&](unsigned i) { return hot(kScanCore, tiles[i]->core->next_event()); };
  if (P.running.any_of(hot_core)) return next_cycle;
  if (hot(kScanNetwork, network_->next_event_partition(p))) return next_cycle;
  for (const Cycle due : P.dir_due) {
    if (hot(kScanDir, due)) return next_cycle;
  }
  for (const Cycle due : P.loop_due) {
    if (hot(kScanLoopback, due)) return next_cycle;
  }
  if (p == 0 && (hot(kScanSampler, obs_sample_due_) || hot(kScanCheck, check_due_))) {
    return next_cycle;
  }
  return nxt;
}
template Cycle CmpSystem::partition_next_wake<false>(unsigned);

template <bool kProfiled>
void CmpSystem::serial_prologue() {
  ++now_;
  network_->begin_cycle(now_);
  // Hoisted from the seed's per-cycle `obs_ != nullptr` branch: the observer
  // reads the clock through set_clock, so it only needs a call when a
  // time-series sample is due (obs_sample_due_ is kNeverCycle when detached).
  if (now_ >= obs_sample_due_) [[unlikely]] {
    obs_->sample_tick(now_);
    obs_sample_due_ = obs_->timeseries().next_boundary();
  }
  if constexpr (kProfiled) prof_->lap(sc_obs_);
}

template <bool kProfiled>
void CmpSystem::parallel_phase(unsigned p) {
  Partition& P = *parts_[p];
  const auto tiles = tiles_of(p);
  const unsigned lo = plan_.first(p);
  // Apply the boundary events the neighbours pushed in the last live
  // cycle, then run the classic component sequence, cut to this
  // partition's tiles and routers.
  network_->drain_boundary(p);
  network_->tick_partition(p, now_);
  if constexpr (kProfiled) prof_->lap(sc_net_);
  // A loopback or directory that is not due has nothing ready: popping or
  // ticking it would be a no-op. Deliveries made here lower due entries: a
  // loopback's to now + 1, a directory's to now + its L2 latency, which the
  // directory loop below still sees.
  for (unsigned i = 0; i < tiles.size(); ++i) {
    if (P.loop_due[i] > now_) continue;
    while (auto msg = tiles[i]->loopback.pop_ready(now_)) deliver_local(msg->dst, *msg);
    P.loop_due[i] = tiles[i]->loopback.next_ready();
  }
  if constexpr (kProfiled) prof_->lap(sc_loopback_);
  for (unsigned i = 0; i < tiles.size(); ++i) {
    if (P.dir_due[i] > now_) continue;
    tiles[i]->dir->tick(now_);
    // tcmplint: tile-seam (same-tile: the owning partition reads its own directory)
    P.dir_due[i] = tiles[i]->dir->next_event();
  }
  if constexpr (kProfiled) prof_->lap(sc_dirs_);
  // Only running cores tick. A blocked core's tick would only count a
  // blocked cycle, into the shard slot every core of the partition bumps,
  // so the partition counts them all at once; a done core's tick is a
  // no-op. A tick that blocks or finishes its core drops it from the set,
  // recording the run->done transition, which the barrier replay needs at
  // the core's position in serial tile order.
  P.blocked_cycles += P.blocked(static_cast<unsigned>(tiles.size()));
  P.running.for_each([&](unsigned i) {
    // tcmplint: tile-seam (same-tile: the owning partition ticks its own core)
    core::Core& core = *tiles[i]->core;
    core.tick(now_);
    if (core.runnable()) return;
    P.running.reset(i);
    if (core.done()) {
      ++P.done;
      P.events.push_back(BarrierEvent{lo + i, 0, true});
    }
  });
  if (!stall_next_.empty()) {
    for (unsigned i = 0; i < tiles.size(); ++i) {
      tiles[i]->core->snapshot_stall(stall_next_[lo + i]);
    }
  }
  if constexpr (kProfiled) prof_->lap(sc_cores_);
  P.finished = partition_finished(p);
  P.pushed = network_->pushed_earliest(p);
  if constexpr (kProfiled) prof_->lap(sc_drain_);
  // The next wake only feeds the dead-cycle skip.
  if (!dead_cycle_skipping_) return;
  P.next_wake = partition_next_wake<kProfiled>(p);
  if constexpr (kProfiled) prof_->lap(sc_scan_);
}

void CmpSystem::replay_arrival(unsigned core, std::uint32_t id) {
  if (!arrive(core, id, replay_done_count_)) return;
  // This arrival completes the barrier. Cores after `core` in tile order
  // that were already waiting ticked blocked in the parallel phase, but in
  // tile order they are released before their tick: undo the provisional
  // blocked tick and re-tick them at their replay position.
  for (unsigned w = core + 1; w < cfg_.n_tiles; ++w) {
    if (at_barrier_[w]) {
      tiles_[w]->core->undo_blocked_tick();
      replay_retick_[w] = true;
    }
  }
  release_barrier();
  replay_any_action_ = true;
}

bool CmpSystem::replay_barrier_events() {
  // Cores done *before this cycle*: total done now minus the run->done
  // transitions the parallel phases recorded. A tile-order walk counts a
  // core as done only once it has passed the core's transition; the cursor
  // walk below adds them back one by one.
  unsigned done_events = 0;
  for (const auto& part : parts_) {
    for (const BarrierEvent& e : part->events)
      if (e.done) ++done_events;
  }
  replay_done_count_ = done_cores() - done_events;
  replay_any_action_ = false;
  // Concatenating the per-partition lists yields global tile order:
  // partitions own contiguous tile ranges and record in tile order.
  std::vector<BarrierEvent> ev;
  for (auto& part : parts_) {
    ev.insert(ev.end(), part->events.begin(), part->events.end());
    part->events.clear();
  }
  replay_retick_.assign(cfg_.n_tiles, false);
  replaying_ = true;
  std::size_t cursor = 0;
  for (unsigned t = 0; t < cfg_.n_tiles; ++t) {
    if (replay_retick_[t]) {
      // Released by an earlier arrival this cycle: this is the core's real
      // tick for the cycle (its provisional blocked tick was undone). It
      // can arrive at the next barrier or finish right here; both route
      // back through the replay bookkeeping, and either drops it from its
      // partition's running set (unless its arrival released it again).
      // tcmplint: tile-seam (single-threaded serial step, every phase parked)
      core::Core& core = *tiles_[t]->core;
      core.tick(now_);
      if (!core.runnable()) {
        Partition& P = *parts_[part_of_[t]];
        P.running.reset(t - plan_.first(part_of_[t]));
        if (core.done()) {
          ++P.done;
          ++replay_done_count_;
        }
      }
      replay_any_action_ = true;
    }
    while (cursor < ev.size() && ev[cursor].core == t) {
      if (ev[cursor].done) {
        ++replay_done_count_;
      } else {
        replay_arrival(t, ev[cursor].id);
      }
      ++cursor;
    }
  }
  replaying_ = false;
  // The post-tick check: a core finishing can release a barrier every other
  // core is already in.
  if (release_if_complete(replay_done_count_)) replay_any_action_ = true;
  return replay_any_action_;
}

template <bool kProfiled>
Cycle CmpSystem::serial_epilogue() {
  // A barrier completes only on an arrival or a done transition, and the
  // phases record both: with no event this cycle no release is possible.
  bool events = false;
  for (const auto& part : parts_) events |= !part->events.empty();
  const bool action = events && replay_barrier_events();
  if constexpr (kProfiled) prof_->lap(sc_barrier_);
  // Publish this cycle's stall snapshots for the next cycle's slack probes.
  if (!stall_next_.empty()) stall_published_.swap(stall_next_);
  // Hoisted from the seed's `now_ % check_interval_ == 0` test: check_due_
  // tracks the next multiple of the interval (kNeverCycle when uninstalled).
  if (now_ >= check_due_) [[unlikely]] {
    if (!periodic_check_(now_)) aborted_ = true;
    check_due_ += check_interval_;
  }
  if constexpr (kProfiled) prof_->lap(sc_check_);
  if (action) {
    // Barrier releases / re-ticks may have produced new work anywhere; the
    // partitions' next wakes are stale. Run the next cycle live.
    epilogue_finished_ = finished();
    return now_ + 1;
  }
  // Flits pushed across a boundary this cycle keep the run going and bound
  // the skip: their consumers' next wakes do not know about them yet.
  bool fin = true;
  Cycle nxt = kNeverCycle;
  for (const auto& part : parts_) {
    fin = fin && part->finished && part->pushed == kNeverCycle;
    nxt = std::min({nxt, part->next_wake, part->pushed});
  }
  epilogue_finished_ = fin;
  return nxt;
}

template <bool kProfiled>
bool CmpSystem::run_partitioned(Cycle max_cycles) {
  // K partitions run on T = min(K, host cores) threads: thread j runs the
  // phases of partitions j, j + T, ... in index order. The phases share
  // nothing within a cycle (step() runs them all on one thread), and more
  // spinning participants than cores would pay a scheduler round at every
  // barrier. K = 1 runs on this thread: no workers, no barrier.
  const unsigned n_threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, n_parts_);
  bool completed = false;
  bool stop = now_ >= max_cycles || aborted_;
  // The serial step between two live cycles, run by the last thread to
  // reach the barrier while the others wait: this cycle's epilogue, the
  // dead-cycle skip and the next cycle's prologue.
  const auto between_cycles = [&] {
    const Cycle nxt = serial_epilogue<kProfiled>();
    if constexpr (kProfiled) prof_->lap(sc_drain_);
    if (epilogue_finished_) {
      completed = stop = true;
      return;
    }
    if (dead_cycle_skipping_) {
      // Every cycle in (now_, nxt) is globally dead — every partition's
      // next wake and pushed-flit horizon agree: jump to just before the
      // next live cycle. kNeverCycle (deadlock: nothing will ever act
      // again) clamps to the horizon, replicating the seed's spin to
      // max_cycles — including its blocked-core accounting. At the horizon
      // there is nothing to skip.
      const Cycle target = std::min(Cycle{nxt.value() - 1}, max_cycles);
      if (target > now_) {
        advance_idle(target);
        if constexpr (kProfiled) prof_->lap(sc_idle_);
      }
    }
    stop = now_ >= max_cycles || aborted_;
    if (!stop) serial_prologue<kProfiled>();
  };
  if (!stop) serial_prologue<kProfiled>();
  if (n_threads == 1) {
    while (!stop) {
      for (unsigned p = 0; p < n_parts_; ++p) parallel_phase<kProfiled>(p);
      between_cycles();
    }
  } else if (!stop) {
    sim::SpinBarrier barrier(n_threads);
    // One barrier crossing per live cycle; `stop` is written only by the
    // crossing's completion, which every thread sees once it leaves.
    const auto lockstep = [&](unsigned j) {
      do {
        for (unsigned p = j; p < n_parts_; p += n_threads) parallel_phase<false>(p);
        barrier.arrive_and_wait(between_cycles);
      } while (!stop);
    };
    std::vector<std::thread> workers;
    for (unsigned j = 1; j < n_threads; ++j) workers.emplace_back(lockstep, j);
    lockstep(0);
    for (auto& w : workers) w.join();
  }
  return (completed || finished()) && !aborted_;
}

const StatRegistry& CmpSystem::merged_stats() const {
  if (n_parts_ == 1) return stats_;
  merged_ = StatRegistry{};
  for (const auto& part : parts_) merged_.merge_from(*part->shard);
  return merged_;
}

std::vector<std::string> CmpSystem::wire_class_names() const {
  // The network's channel planes plus a "local" pseudo-class for
  // tile-internal loopback traffic, which never touches a wire.
  std::vector<std::string> wires;
  for (unsigned c = 0; c < network_->num_channels(); ++c) {
    wires.push_back(network_->channel(c).name);
  }
  wires.emplace_back("local");
  return wires;
}

void CmpSystem::enable_slack_telemetry() {
  if (parts_[0]->slack != nullptr) return;
  const std::vector<std::string> wires = wire_class_names();
  for (auto& part : parts_) {
    part->slack = std::make_unique<obs::SlackTelemetry>();
    part->slack->init(part->shard, wires);
  }
  // At K = 1 the beneficiary probe reads the live core instead.
  if (n_parts_ > 1) {
    stall_published_.assign(cfg_.n_tiles, core::StallSnapshot{});
    stall_next_.assign(cfg_.n_tiles, core::StallSnapshot{});
  }
}

void CmpSystem::finalize_slack() {
  for (auto& part : parts_) {
    if (part->slack != nullptr) part->slack->finalize();
  }
}

void CmpSystem::write_slack_table(std::ostream& out) {
  if (parts_[0]->slack == nullptr) return;
  finalize_slack();
  // Fold the shards and read the table through a throwaway telemetry bound
  // to the merged registry: init() re-interns the same stat names, so the
  // view sees the reassembled distributions.
  StatRegistry folded;
  for (const auto& part : parts_) folded.merge_from(*part->shard);
  obs::SlackTelemetry view;
  view.init(&folded, wire_class_names());
  view.write_table(out);
}

void CmpSystem::dump_state(std::ostream& out) const {
  out << "=== CmpSystem @ cycle " << now_.value() << " (" << cfg_.name()
      << ") ===\n";
  out << "warmup_done=" << warmup_done_ << " waiting_at_barrier=" << waiting_
      << " network_quiescent=" << network_->quiescent() << "\n";
  for (unsigned tidx = 0; tidx < cfg_.n_tiles; ++tidx) {
    const Tile& t = *tiles_[tidx];
    out << "tile " << tidx << ": core "
        << (t.core->done() ? "done" : t.core->blocked() ? "blocked" : "running")
        << " instr=" << t.core->instructions()
        << " | l1 " << (t.l1->quiescent() ? "idle" : "busy")
        << " l1i " << (t.l1i->quiescent() ? "idle" : "busy")
        << " dir " << (t.dir->quiescent() ? "idle" : "busy")
        << " loopback=" << t.loopback.size() << "\n";
  }
}

std::uint64_t CmpSystem::total_instructions() const {
  std::uint64_t total = 0;
  // tcmplint: tile-seam (single-threaded aggregation at report/warmup boundaries, between partition phases)
  for (const auto& t : tiles_) total += t->core->instructions();
  return total;
}

std::uint64_t CmpSystem::compression_accesses() const {
  std::uint64_t total = 0;
  // tcmplint: tile-seam (single-threaded aggregation at report/warmup boundaries, between partition phases)
  for (const auto& t : tiles_) total += t->nic->compression_accesses();
  return total;
}

}  // namespace tcmp::cmp

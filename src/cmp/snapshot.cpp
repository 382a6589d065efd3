// CmpSystem checkpoint/restore (docs/checkpointing.md).
//
// One snapshot_io walk serializes the complete simulation-visible state in a
// fixed order: driver clock and warmup boundary, barrier controller, every
// tile's components, the network, the per-partition stat shards, and finally
// the workload's cursors. Partition shards are saved per-shard (not merged):
// a shard holds its partition's sums, which cannot be re-split over another
// partition plan, so restore requires the same --threads K, enforced via the
// fingerprint and the n_parts_ verify. That is a rule of the shard layout,
// not of floating-point order: shard merges are exact at any K
// (docs/partitioning.md).
//
// Deliberately NOT captured (host-side / re-attachable state): observers and
// their sampling cadence, periodic checks, the self-profiler, the flight
// recorder ring, and the postmortem path. All of these either do not affect
// simulation results or are re-installed by the driver after restore.

#include <istream>
#include <ostream>
#include <sstream>

#include "cmp/system.hpp"
#include "common/check.hpp"
#include "common/snapshot.hpp"

namespace tcmp::cmp {

std::string CmpSystem::snapshot_fingerprint() const {
  std::ostringstream fp;
  fp << cfg_.name() << "|tiles=" << cfg_.n_tiles << "|threads=" << cfg_.threads
     << "|workload=" << workload_->name();
  return fp.str();
}

template <typename Ar>
void CmpSystem::snapshot_io(Ar& ar) {
  ar.section("cmp");
  ar.verify(cfg_.n_tiles);
  ar.verify(n_parts_);

  // Driver clock and the warmup/measurement boundary.
  ar.field(now_);
  ar.field(measure_start_);
  ar.field(warmup_done_);
  ar.field(warmup_instructions_);
  ar.field(warmup_compression_accesses_);

  // Barrier controller (between cycles the replay scratch state is idle).
  ar.field(at_barrier_);
  ar.field(waiting_);
  ar.field(pending_barrier_id_);

  // K > 1 slack telemetry publishes double-buffered stall snapshots; their
  // presence depends on enable_slack_telemetry(), which both runs must have
  // called identically.
  ar.verify(stall_published_.size());
  ar.field(stall_published_);
  ar.field(stall_next_);

  // Hoisted periodic-check cadence: meaningful only when the restoring run
  // installed the same check, which set_periodic_check recomputes from now_.
  // The sampler cadence (obs_sample_due_) belongs to the observer and is
  // re-derived by attach_observer.

  for (auto& t : tiles_) {
    ar.field(*t->core);
    ar.field(*t->l1);
    ar.field(*t->l1i);
    ar.field(*t->dir);
    ar.field(*t->nic);
    ar.field(t->loopback);
  }

  ar.field(*network_);

  // Stat shards, per partition: interned refs survive because
  // StatRegistry::load assigns in place.
  ar.section("stats");
  for (auto& part : parts_) {
    if constexpr (Ar::kIsWriter) {
      part->shard->save(ar);
    } else {
      part->shard->load(ar);
    }
  }

  ar.section("workload");
  if constexpr (Ar::kIsWriter) {
    static_cast<const core::Workload&>(*workload_).save(ar);
  } else {
    workload_->load(ar);
  }
}

void CmpSystem::save_checkpoint(std::ostream& out) {
  TCMP_CHECK_MSG(!aborted_, "cannot checkpoint an aborted run");
  TCMP_CHECK_MSG(workload_->can_snapshot(),
                 "this workload does not support checkpointing");
  // A checkpoint lands between cycles, after the serial epilogue published
  // this cycle's boundary events. Apply them now — the identical write the
  // next cycle's drain phase would make (deadlines are all in the future),
  // so the continuing run and the snapshot agree — leaving the boundary
  // channels provably empty.
  for (unsigned p = 0; p < n_parts_; ++p) network_->drain_boundary(p);
  // Barrier-replay scratch lists are consumed within the epilogue.
  for (const auto& part : parts_) TCMP_CHECK(part->events.empty());
  TCMP_CHECK(network_->boundaries_empty());
  SnapshotWriter w(out);
  write_snapshot_header(w, snapshot_fingerprint());
  snapshot_io(w);
  TCMP_CHECK_MSG(w.good(), "checkpoint write failed");
}

void CmpSystem::load_checkpoint(std::istream& in) {
  SnapshotReader r(in);
  read_snapshot_header(r, snapshot_fingerprint());
  snapshot_io(r);
  TCMP_CHECK_MSG(r.good(), "checkpoint read failed");
  rebuild_due_arrays();
  // The restored clock invalidates any hoisted cadence computed before the
  // load; a check installed pre-restore is re-anchored here.
  if (periodic_check_ != nullptr && check_interval_ != Cycle{0}) {
    set_periodic_check(check_interval_, periodic_check_);
  }
}

}  // namespace tcmp::cmp

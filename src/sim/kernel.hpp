// Event-scheduled simulation kernel: a wake calendar over Scheduled
// components that lets a cycle-driven driver skip globally dead cycles.
//
// The kernel does not call tick() itself — the driver (CmpSystem::run) keeps
// executing its ordinary full step at every *live* cycle, which is what makes
// the refactor bit-identical to the seed loop: a live cycle runs exactly the
// code the per-cycle loop ran, in the same order, and a skipped cycle is one
// the per-cycle loop would have spent ticking components that provably do
// nothing. The kernel's only job is answering "what is the next live cycle?"
// from two sources:
//
//   * pull — registered components, scanned in registration order (put the
//     components most likely to be hot first; the scan early-exits as soon
//     as anything wants the very next cycle);
//   * push — explicit one-shot wake(Cycle) requests kept in a min-heap
//     calendar (used for timed hand-offs that no component surfaces, e.g.
//     the tile-internal loopback latency), with adjacent duplicates
//     coalesced at insert and stale entries drained lazily.
//
// Thread compatibility: single-owner. add_component() is the one sanctioned
// path that hands component pointers out of their owning tile (the
// tile-escape lint allowlists it, docs/static-analysis.md); the kernel only
// ever *reads* next_event()/quiescent() through them. A partitioned mesh
// (docs/partitioning.md) runs one kernel per partition over that
// partition's components.
#pragma once

#include <algorithm>
#include <cstddef>
#include <queue>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "sim/scheduled.hpp"

namespace tcmp::sim {

class SimKernel {
 public:
  /// Register a component. Registration order is the scan order of
  /// next_wake(); hot components (cores) should come first. `name` labels
  /// the component in the self-profiler's pull-scan attribution (a static
  /// string; same-named components aggregate into one row).
  void add_component(Scheduled* c, const char* name = "component") {
    components_.push_back(c);
    scan_stats_.push_back(ScanStat{name, 0, 0});
  }

  /// One-shot wake request: guarantees cycle `at` is treated as live.
  /// Requests at or before the clock handed to the last next_wake() call are
  /// already satisfied and dropped lazily; duplicates coalesce.
  void wake(Cycle at) {
    if (!calendar_.empty() && calendar_.top() == at) return;  // coalesce
    calendar_.push(at);
  }

  /// Per-component pull-scan attribution (filled by next_wake<true>):
  /// how often a component was polled, and how often its next_event() ended
  /// the scan by demanding the very next cycle.
  struct ScanStat {
    const char* name = nullptr;
    std::uint64_t polls = 0;
    std::uint64_t hot_exits = 0;
  };

  /// Earliest live cycle strictly after `now`: the minimum over every
  /// component's next_event() (values <= now clamp to now + 1) and the wake
  /// calendar. kNeverCycle means the machine is globally dead — no component
  /// will ever act again without external input. kCounted adds per-component
  /// scan accounting (bit-identical result), used by the self-profiled run
  /// loop (sim/profiler.hpp) so "who keeps cycles live" is attributable.
  template <bool kCounted = false>
  [[nodiscard]] Cycle next_wake(Cycle now) {
    while (!calendar_.empty() && calendar_.top() <= now) calendar_.pop();
    const Cycle next_cycle = now + 1;
    Cycle nxt = calendar_.empty() ? kNeverCycle : calendar_.top();
    if (nxt <= next_cycle) return next_cycle;
    for (std::size_t i = 0; const Scheduled* c : components_) {
      const Cycle e = c->next_event();
      if constexpr (kCounted) ++scan_stats_[i].polls;
      if (e <= next_cycle) {  // hot: no point scanning on
        if constexpr (kCounted) ++scan_stats_[i].hot_exits;
        return next_cycle;
      }
      if (e < nxt) nxt = e;
      ++i;
    }
    return nxt;
  }

  /// The scan stats aggregated by component name (16 cores -> one "core"
  /// row), in first-registration order.
  [[nodiscard]] std::vector<ScanStat> scan_stats() const {
    std::vector<ScanStat> agg;
    for (const ScanStat& s : scan_stats_) {
      auto it = std::find_if(agg.begin(), agg.end(), [&](const ScanStat& a) {
        return std::string_view(a.name) == s.name;
      });
      if (it == agg.end()) {
        agg.push_back(s);
      } else {
        it->polls += s.polls;
        it->hot_exits += s.hot_exits;
      }
    }
    return agg;
  }

  /// True when every registered component reports quiescent and no wake
  /// request is outstanding (the machine has fully drained).
  [[nodiscard]] bool quiescent() const {
    for (const Scheduled* c : components_) {
      if (!c->quiescent()) return false;
    }
    return calendar_.empty();
  }

  [[nodiscard]] std::size_t num_components() const { return components_.size(); }
  /// Pending one-shot wake requests (coalescing/drain tests).
  [[nodiscard]] std::size_t calendar_size() const { return calendar_.size(); }

  /// Checkpoint serialization (common/snapshot.hpp): only the wake calendar
  /// is state — components re-register at construction, and the scan stats
  /// are host-side attribution, not simulation state. The heap is drained
  /// from a copy in pop order (a total order on Cycle values).
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    if constexpr (Ar::kIsWriter) {
      ar.raw_u64(calendar_.size());
      auto copy = calendar_;
      while (!copy.empty()) {
        ar.field(copy.top());
        copy.pop();
      }
    } else {
      calendar_ = {};
      for (std::uint64_t n = ar.raw_u64(); n > 0; --n) {
        Cycle c{};
        ar.field(c);
        calendar_.push(c);
      }
    }
  }

 private:
  // tcmplint: snapshot-exempt (component pointers re-registered at ctor)
  std::vector<Scheduled*> components_;
  // tcmplint: snapshot-exempt (host-side self-profiling, not machine state)
  std::vector<ScanStat> scan_stats_;  ///< parallel to components_
  std::priority_queue<Cycle, std::vector<Cycle>, std::greater<>> calendar_;
};

/// Adapter exposing a plain next-event function as a Scheduled component —
/// for recurring driver events (telemetry window boundaries, periodic
/// verification sweeps) that live outside any one component.
template <typename NextFn>
class ScheduledEvent final : public Scheduled {
 public:
  explicit ScheduledEvent(NextFn next) : next_(std::move(next)) {}
  [[nodiscard]] Cycle next_event() const override { return next_(); }
  [[nodiscard]] bool quiescent() const override { return true; }

 private:
  NextFn next_;
};

}  // namespace tcmp::sim

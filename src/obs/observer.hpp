// Observability front-end: one object that the driver attaches to a
// CmpSystem (or a bare Network) to get message-lifecycle tracing and
// time-series telemetry out of a run.
//
// Levels:
//   kOff        — nothing; components see a null pointer, hooks cost one
//                 branch.
//   kTimeseries — periodic StatRegistry sampling + windowed latency
//                 quantiles; no per-message events.
//   kTrace      — everything above plus Chrome trace-event spans: inject →
//                 per-hop router traversal → eject → protocol-handler
//                 completion per message, plus L1 miss lifetimes.
//
// The observer implements ProtocolHooks (the header-only interface the
// protocol layer reports into) and exposes concrete methods for the noc/het
// layers, which sit above obs in the library stack.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/hooks.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace tcmp::obs {

enum class Level { kOff = 0, kTimeseries = 1, kTrace = 2 };

struct ObsConfig {
  Level level = Level::kTimeseries;
  Cycle sample_interval{10'000};
  std::string trace_path;       ///< written by finalize_to_files; empty = skip
  std::string timeseries_path;  ///< written by finalize_to_files; empty = skip
};

class Observer final : public ProtocolHooks {
 public:
  Observer(const ObsConfig& cfg, const StatRegistry* stats);
  /// Unregisters the flush-on-abort hook installed for the configured
  /// output paths (common/abort.hpp).
  ~Observer();
  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  [[nodiscard]] bool tracing() const { return cfg_.level >= Level::kTrace; }
  [[nodiscard]] Cycle now() const { return clock_ != nullptr ? *clock_ : now_; }

  /// Share the driver's cycle counter so hooks stay correctly timestamped
  /// without a per-cycle call (the driver only calls sample_tick() at
  /// window boundaries). Null reverts to the internal clock.
  void set_clock(const Cycle* clock) { clock_ = clock; }

  /// Driver hook: called only when a sample may be due (the driver tracks
  /// the boundary via TimeSeries::next_boundary, a wake source of its
  /// dead-cycle skip).
  void sample_tick(Cycle now) {
    now_ = now;
    ts_.maybe_sample(now);
  }

  /// Name the per-tile trace tracks (called once when attached to a system).
  void label_tiles(unsigned n_tiles);

  // --- network-facing hooks (the network passes its own clock) ---
  /// A message entered an injection lane. Returns the trace id to stamp into
  /// the message (0 when not tracing); opens the message's async span.
  std::uint32_t msg_injected(const protocol::CoherenceMsg& msg,
                             const std::string& channel, unsigned wire_bytes,
                             Cycle now);
  /// The message's tail flit traversed a router's switch.
  void msg_hop(const protocol::CoherenceMsg& msg, NodeId router, Cycle now);
  /// Packet fully received at the destination NI, with the latency
  /// decomposition (total = queue + router + wire).
  void msg_ejected(const protocol::CoherenceMsg& msg, Cycle now, Cycle total,
                   Cycle queue, Cycle wire);
  /// The destination protocol handler consumed the message: span closes.
  void msg_completed(const protocol::CoherenceMsg& msg, NodeId tile, Cycle now);

  // --- NIC hooks (use the observer clock) ---
  void nic_send(const protocol::CoherenceMsg& msg, bool compressed,
                unsigned channel, unsigned wire_bytes);
  void nic_reorder_hold(const protocol::CoherenceMsg& msg);

  // --- verify hooks ---
  /// A runtime coherence-lint scan found an invariant violation. Emitted as
  /// a forced instant event so it survives the trace-capacity cap and lands
  /// next to the message-lifecycle spans that led up to it.
  void lint_violation(Cycle cycle, LineAddr line, const std::string& invariant,
                      const std::string& detail);

  // --- ProtocolHooks (protocol layer; use the observer clock) ---
  void l1_miss_begin(NodeId tile, LineAddr line, bool is_write) override;
  void l1_miss_end(NodeId tile, LineAddr line) override;
  void dir_msg_processed(NodeId tile, const protocol::CoherenceMsg& msg) override;

  // --- time-series wiring ---
  [[nodiscard]] TimeSeries& timeseries() { return ts_; }
  void add_gauge(std::string column, std::function<double()> fn);
  /// The attached system still has a functional-warmup phase ahead.
  void set_warmup_pending() { ts_.set_phase('w'); }
  /// Call immediately BEFORE StatRegistry::zero_all at the warmup boundary.
  void on_registry_zeroed(Cycle now) { ts_.phase_boundary(now); }

  /// Close still-open spans and flush the final time-series window.
  /// Idempotent; called automatically by finalize_to_files / write_trace.
  void finalize(Cycle now);
  void write_trace(std::ostream& out) const { trace_.write(out); }
  void write_timeseries(std::ostream& out) const { ts_.write_csv(out); }
  /// finalize() + write the configured output files (empty paths skipped).
  /// Returns false when a file could not be written.
  bool finalize_to_files(Cycle now);

  [[nodiscard]] const TraceWriter& trace() const { return trace_; }

 private:
  [[nodiscard]] bool at_capacity() const { return trace_.full(); }

  ObsConfig cfg_;
  const StatRegistry* stats_;
  /// Flush-on-abort registration (0 = none): a TCMP_CHECK abort mid-run
  /// flushes partial trace/time-series output instead of truncating it.
  std::uint64_t abort_token_ = 0;
  Cycle now_{0};
  const Cycle* clock_ = nullptr;  ///< driver clock (see set_clock)
  TimeSeries ts_;
  TraceWriter trace_;
  std::uint32_t next_trace_id_ = 1;
  /// Open async spans: id -> category (needed to emit a matching close).
  std::unordered_map<std::uint64_t, const char*> open_msgs_;
  std::unordered_map<std::uint64_t, const char*> open_misses_;
  /// Windowed network latency (all classes) feeding the time-series
  /// quantile columns; cleared at every window boundary.
  Histogram window_latency_{96, 2};  // tcmplint: allow-local-stat (windowed, not a report stat)
  bool finalized_ = false;
};

}  // namespace tcmp::obs

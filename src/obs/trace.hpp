// Chrome trace-event JSON writer (the format chrome://tracing and Perfetto
// load). Events are buffered compactly in memory during the run and dumped
// in one pass; the buffer is capped so a pathological run cannot exhaust
// memory (overflow is counted and reported in the trace metadata).
//
// Conventions used by the observer:
//   * pid 1 is the simulated chip; tid N is tile N (one track per tile);
//   * message lifetimes are async spans ("ph":"b"/"e") matched by
//     (cat, id, pid) — one span per mesh-traversing message;
//   * per-hop router traversals and protocol-handler completions are
//     instant events ("ph":"i") on the router/handler tile's track;
//   * timestamps are simulator cycles written as integer "ts" values
//     (1 cycle renders as 1 us in the viewer).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace tcmp::obs {

struct TraceEvent {
  const char* name = "";   ///< static string (no escaping performed)
  const char* cat = "";    ///< static string; async b/e pairs match on it
  char ph = 'i';           ///< 'b'/'e' async span, 'i' instant, 'C' counter
  std::uint32_t pid = 1;
  std::uint32_t tid = 0;
  Cycle ts{0};
  std::uint64_t id = 0;    ///< async span id (b/e only)
  const char* cname = nullptr;  ///< optional chrome color name
  std::string args;        ///< preformatted JSON object body, may be empty
};

/// Events a run's trace holds before further ones are dropped (~500 MB of
/// JSON).
inline constexpr std::uint64_t kMaxTraceEvents = 4'000'000;

class TraceWriter {
 public:
  explicit TraceWriter(std::uint64_t max_events = kMaxTraceEvents)
      : max_events_(max_events) {}

  /// Label a track ("thread_name" metadata event).
  void set_track_name(std::uint32_t pid, std::uint32_t tid, std::string name);
  void set_process_name(std::uint32_t pid, std::string name);

  /// Append an event; returns false (and counts a drop) once the cap is
  /// hit. `force` bypasses the cap — used for the close events of spans
  /// that were opened before the cap, keeping begin/end balanced.
  bool add(TraceEvent e, bool force = false);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  /// At the cap: add() drops every event it is not forced to keep.
  [[nodiscard]] bool full() const { return events_.size() >= max_events_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// Emit the complete JSON document (one event per line, metadata first).
  void write(std::ostream& out) const;

 private:
  struct TrackName {
    std::uint32_t pid = 0;
    std::uint32_t tid = 0;
    bool is_process = false;
    std::string name;
  };

  std::uint64_t max_events_;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
  std::vector<TrackName> names_;
};

}  // namespace tcmp::obs

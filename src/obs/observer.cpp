#include "obs/observer.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "common/abort.hpp"
#include "common/check.hpp"

namespace tcmp::obs {

namespace {

// One category (and chrome color) per protocol message class (= virtual
// network): requests, forwarded commands, responses. Async begin/end pairs
// match on the category, so these must be stable static strings.
constexpr const char* kNetCat[protocol::kNumVnets] = {"net.req", "net.fwd",
                                                      "net.resp"};
constexpr const char* kNetColor[protocol::kNumVnets] = {
    "thread_state_running", "thread_state_iowait", "thread_state_runnable"};

std::uint64_t miss_span_id(NodeId tile, LineAddr line) {
  // (tile, line) is unique among open misses (one MSHR per line per tile);
  // fold the tile into the high bits well above any realistic line address.
  return (static_cast<std::uint64_t>(tile) + 1) << 48 ^ line.value();
}

std::string msg_args(const protocol::CoherenceMsg& msg) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "\"type\":\"%s\",\"src\":%u,\"dst\":%u,\"line\":\"0x%" PRIx64
                "\",\"critical\":%d",
                protocol::to_string(msg.type), static_cast<unsigned>(msg.src),
                static_cast<unsigned>(msg.dst), msg.line.value(),
                protocol::is_critical(msg.type) ? 1 : 0);
  return buf;
}

}  // namespace

Observer::Observer(const ObsConfig& cfg, const StatRegistry* stats)
    : cfg_(cfg), stats_(stats), ts_(stats, cfg.sample_interval),
      trace_(cfg.max_trace_events) {
  TCMP_CHECK(stats != nullptr);
  trace_.set_process_name(1, "tcmp chip");

  // Default telemetry columns. Counters that a given configuration never
  // touches (e.g. noc.VL.* on the homogeneous baseline) read as zero.
  ts_.add_counter("vl_flits", "noc.VL.flits_injected");
  ts_.add_counter("b_flits", "noc.B.flits_injected");
  ts_.add_counter("vl_packets", "noc.VL.packets");
  ts_.add_counter("b_packets", "noc.B.packets");
  ts_.add_counter("compressed", "compression.compressed");
  ts_.add_counter("uncompressed", "compression.uncompressed");
  ts_.add_counter("remote_msgs", "msg_remote.count");
  ts_.add_counter("local_msgs", "msg_local.count");
  ts_.add_counter("l1_accesses", "l1.accesses");
  ts_.add_counter("l1_read_misses", "l1.read_misses");
  ts_.add_counter("l1_write_misses", "l1.write_misses");
  ts_.add_counter("mem_reads", "mem.reads");
  ts_.add_ratio("coverage", {"compression.compressed"},
                {"compression.compressed", "compression.uncompressed"});
  ts_.add_ratio("l1_miss_rate",
                {"l1.read_misses", "l1.write_misses", "l1.upgrade_misses"},
                {"l1.accesses"});
  ts_.add_windowed_histogram("net_lat", &window_latency_);

  // Flush-on-abort: if a TCMP_CHECK (or the coherence lint's hard path)
  // kills the run mid-flight, write out whatever trace/time-series history
  // was collected instead of leaving the files missing or truncated. The
  // hook is best-effort by contract and removed in the destructor.
  if (!cfg_.trace_path.empty() || !cfg_.timeseries_path.empty()) {
    abort_token_ = AbortHooks::add([this] { finalize_to_files(now()); });
  }
}

Observer::~Observer() {
  if (abort_token_ != 0) AbortHooks::remove(abort_token_);
}

void Observer::label_tiles(unsigned n_tiles) {
  for (unsigned t = 0; t < n_tiles; ++t) {
    trace_.set_track_name(1, t, "tile " + std::to_string(t));
  }
}

void Observer::add_gauge(std::string column, std::function<double()> fn) {
  ts_.add_gauge(std::move(column), std::move(fn));
}

std::uint32_t Observer::msg_injected(const protocol::CoherenceMsg& msg,
                                     const std::string& channel,
                                     unsigned wire_bytes, Cycle now) {
  if (!tracing() || at_capacity()) return 0;
  const unsigned vnet = protocol::vnet_of(msg.type);
  const std::uint32_t id = next_trace_id_++;
  TraceEvent e;
  e.name = protocol::to_string(msg.type);
  e.cat = kNetCat[vnet];
  e.ph = 'b';
  e.tid = msg.src;
  e.ts = now;
  e.id = id;
  e.cname = kNetColor[vnet];
  e.args = msg_args(msg) + ",\"wire\":\"" + channel +
           "\",\"bytes\":" + std::to_string(wire_bytes);
  if (!trace_.add(std::move(e))) return 0;
  open_msgs_.emplace(id, kNetCat[vnet]);
  return id;
}

void Observer::msg_hop(const protocol::CoherenceMsg& msg, NodeId router,
                       Cycle now) {
  if (msg.trace_id == 0) return;
  TraceEvent e;
  e.name = "hop";
  e.cat = kNetCat[protocol::vnet_of(msg.type)];
  e.ph = 'i';
  e.tid = router;
  e.ts = now;
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"msg\":%u,\"type\":\"%s\"", msg.trace_id,
                protocol::to_string(msg.type));
  e.args = buf;
  trace_.add(std::move(e));
}

void Observer::msg_ejected(const protocol::CoherenceMsg& msg, Cycle now,
                           Cycle total, Cycle queue, Cycle wire) {
  window_latency_.add(total.value());
  if (msg.trace_id == 0) return;
  TraceEvent e;
  e.name = "eject";
  e.cat = kNetCat[protocol::vnet_of(msg.type)];
  e.ph = 'i';
  e.tid = msg.dst;
  e.ts = now;
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "\"msg\":%u,\"lat\":%llu,\"queue\":%llu,\"router\":%llu,"
                "\"wire\":%llu",
                msg.trace_id, static_cast<unsigned long long>(total.value()),
                static_cast<unsigned long long>(queue.value()),
                static_cast<unsigned long long>((total - queue - wire).value()),
                static_cast<unsigned long long>(wire.value()));
  e.args = buf;
  trace_.add(std::move(e));
}

void Observer::msg_completed(const protocol::CoherenceMsg& msg, NodeId tile,
                             Cycle now) {
  if (msg.trace_id == 0) return;
  auto it = open_msgs_.find(msg.trace_id);
  if (it == open_msgs_.end()) return;
  TraceEvent e;
  e.name = protocol::to_string(msg.type);
  e.cat = it->second;
  e.ph = 'e';
  e.tid = msg.src;
  e.ts = now;
  e.id = msg.trace_id;
  e.args = "\"handled_at\":" + std::to_string(tile);
  trace_.add(std::move(e), /*force=*/true);
  open_msgs_.erase(it);
}

void Observer::nic_send(const protocol::CoherenceMsg& msg, bool compressed,
                        unsigned channel, unsigned wire_bytes) {
  if (!tracing()) return;
  TraceEvent e;
  e.name = "nic.send";
  e.cat = "nic";
  e.ph = 'i';
  e.tid = msg.src;
  e.ts = now();
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "\"type\":\"%s\",\"compressed\":%d,\"ch\":%u,\"bytes\":%u",
                protocol::to_string(msg.type), compressed ? 1 : 0, channel,
                wire_bytes);
  e.args = buf;
  trace_.add(std::move(e));
}

void Observer::lint_violation(Cycle cycle, LineAddr line,
                              const std::string& invariant,
                              const std::string& detail) {
  if (!tracing()) return;
  TraceEvent e;
  e.name = "lint.violation";
  e.cat = "verify";
  e.ph = 'i';
  e.ts = cycle;
  e.cname = "terrible";
  char buf[96];
  std::snprintf(buf, sizeof buf, "\"invariant\":\"%s\",\"line\":\"0x%" PRIx64 "\"",
                invariant.c_str(), line.value());
  e.args = std::string(buf) + ",\"detail\":\"" + detail + "\"";
  trace_.add(std::move(e), /*force=*/true);
}

void Observer::nic_reorder_hold(const protocol::CoherenceMsg& msg) {
  if (!tracing()) return;
  TraceEvent e;
  e.name = "nic.hold";
  e.cat = "nic";
  e.ph = 'i';
  e.tid = msg.dst;
  e.ts = now();
  char buf[64];
  std::snprintf(buf, sizeof buf, "\"src\":%u,\"seq\":%u",
                static_cast<unsigned>(msg.src), msg.seq);
  e.args = buf;
  trace_.add(std::move(e));
}

void Observer::l1_miss_begin(NodeId tile, LineAddr line, bool is_write) {
  if (!tracing() || at_capacity()) return;
  const std::uint64_t id = miss_span_id(tile, line);
  TraceEvent e;
  e.name = is_write ? "miss.write" : "miss.read";
  e.cat = "l1miss";
  e.ph = 'b';
  e.tid = tile;
  e.ts = now();
  e.id = id;
  e.cname = "rail_load";
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"line\":\"0x%" PRIx64 "\"", line.value());
  e.args = buf;
  if (trace_.add(std::move(e))) open_misses_.emplace(id, "l1miss");
}

void Observer::l1_miss_end(NodeId tile, LineAddr line) {
  if (!tracing()) return;
  const std::uint64_t id = miss_span_id(tile, line);
  auto it = open_misses_.find(id);
  if (it == open_misses_.end()) return;
  TraceEvent e;
  e.name = "miss";
  e.cat = it->second;
  e.ph = 'e';
  e.tid = tile;
  e.ts = now();
  e.id = id;
  trace_.add(std::move(e), /*force=*/true);
  open_misses_.erase(it);
}

void Observer::dir_msg_processed(NodeId tile, const protocol::CoherenceMsg& msg) {
  if (!tracing()) return;
  TraceEvent e;
  e.name = "dir.handle";
  e.cat = "dir";
  e.ph = 'i';
  e.tid = tile;
  e.ts = now();
  char buf[48];
  std::snprintf(buf, sizeof buf, "\"type\":\"%s\",\"src\":%u",
                protocol::to_string(msg.type), static_cast<unsigned>(msg.src));
  e.args = buf;
  trace_.add(std::move(e));
}

void Observer::finalize(Cycle now) {
  if (finalized_) return;
  finalized_ = true;
  ts_.finalize(now);
  // Close spans still open at end of simulation so every begin has an end.
  auto close_all = [&](std::unordered_map<std::uint64_t, const char*>& open) {
    // Emit in id order so the trace does not depend on hash-bucket layout.
    // tcmplint: order-insensitive (snapshot is sorted by id before emission)
    std::vector<std::pair<std::uint64_t, const char*>> spans(open.begin(),
                                                             open.end());
    std::sort(spans.begin(), spans.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [id, cat] : spans) {
      TraceEvent e;
      e.name = "unterminated";
      e.cat = cat;
      e.ph = 'e';
      e.ts = now;
      e.id = id;
      e.args = "\"unterminated\":1";
      trace_.add(std::move(e), /*force=*/true);
    }
    open.clear();
  };
  close_all(open_msgs_);
  close_all(open_misses_);
}

bool Observer::finalize_to_files(Cycle now) {
  finalize(now);
  if (tracing() && !cfg_.trace_path.empty()) {
    std::ofstream out(cfg_.trace_path);
    if (!out) return false;
    trace_.write(out);
    if (!out.good()) return false;
  }
  if (!cfg_.timeseries_path.empty()) {
    std::ofstream out(cfg_.timeseries_path);
    if (!out) return false;
    ts_.write_csv(out);
    if (!out.good()) return false;
  }
  return true;
}

}  // namespace tcmp::obs

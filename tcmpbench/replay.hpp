// Message capture and standalone replays for the traced pass.
//
// The traced pass times the NoC, the NIC and the address compressor from
// outside the program: it records every remote message a run injects (the
// public CmpSystem::set_remote_msg_hook), then feeds the capture again
// through a standalone noc::Network with one het::TileNic per tile, and
// through bare compression::make_compressor pairs, timing the calls into
// each layer's public functions.
//
// The hook fires before the NIC sends, so everything the run counts at send
// or injection time (compression outcomes, wire-class choices, per-channel
// packets and payload bytes) is reproduced exactly; replay counts cover the
// measured window by zeroing the replay registry at the first message sent
// after the warmup reset. Flit pumping and delivery happen a cycle late for
// messages the run sent from inside its own network tick (the hook cannot
// tell those apart), so pump-time counters such as flits_injected are
// reported, not compared.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cmp/system.hpp"

namespace tcmpbench {

struct CapturedMsg {
  tcmp::Cycle at{0};     ///< CmpSystem::total_cycles() when it was sent
  bool measured = false;  ///< sent after the warmup statistics reset
  tcmp::protocol::CoherenceMsg msg;
};

/// Calls into one layer function: how many, and their summed host time.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;
  CallStats& operator+=(const CallStats& o) {
    calls += o.calls;
    nanos += o.nanos;
    return *this;
  }
};

/// Install a capture hook on `sys` (threads == 1: the hook runs on the
/// simulating thread). `out` must outlive the run.
void capture_remote_messages(tcmp::cmp::CmpSystem& sys,
                             std::vector<CapturedMsg>& out);

struct NocReplay {
  CallStats send;     ///< TileNic::send
  CallStats tick;     ///< Network::tick, including the nested receives
  CallStats receive;  ///< TileNic::receive, called from the deliver callback
  std::uint64_t flits = 0;  ///< every flit the replay network pumped
  /// Measured-window counters of the replay registry, by stat name.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// Replay `msgs` through a network built from `sys.network().config()` and
/// the run's compression scheme and link style.
[[nodiscard]] NocReplay replay_noc(const tcmp::cmp::CmpSystem& sys,
                                   const std::vector<CapturedMsg>& msgs);

struct CompressionReplay {
  CallStats msgs;  ///< one call per remote message (eligibility test included)
  std::uint64_t compressed = 0;  ///< measured-window compressed sends
  std::uint64_t mismatches = 0;  ///< decoded line != sent line
};

/// Replay `msgs` through bare sender/receiver pairs of the run's scheme, one
/// pair per (tile, message class), in send order.
[[nodiscard]] CompressionReplay replay_compression(
    const tcmp::cmp::CmpConfig& cfg, const std::vector<CapturedMsg>& msgs);

}  // namespace tcmpbench

#include "replay.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>

#include "compression/compressor.hpp"
#include "het/nic.hpp"
#include "het/wire_policy.hpp"

namespace tcmpbench {

using tcmp::Cycle;
using tcmp::NodeId;
using tcmp::protocol::CoherenceMsg;
using Clock = std::chrono::steady_clock;

namespace {

std::uint64_t nanos_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

}  // namespace

void capture_remote_messages(tcmp::cmp::CmpSystem& sys,
                             std::vector<CapturedMsg>& out) {
  TCMP_CHECK_MSG(sys.num_partitions() == 1,
                 "message capture needs the single-partition driver");
  sys.set_remote_msg_hook([&sys, &out](const CoherenceMsg& msg) {
    out.push_back(CapturedMsg{sys.total_cycles(), sys.warmup_done(), msg});
  });
}

NocReplay replay_noc(const tcmp::cmp::CmpSystem& sys,
                     const std::vector<CapturedMsg>& msgs) {
  const tcmp::cmp::CmpConfig& cfg = sys.config();
  const tcmp::noc::NocConfig& ncfg = sys.network().config();
  tcmp::StatRegistry reg;
  tcmp::noc::Network net(ncfg, &reg);
  std::vector<std::unique_ptr<tcmp::het::TileNic>> nics;
  for (unsigned t = 0; t < ncfg.nodes(); ++t) {
    nics.push_back(std::make_unique<tcmp::het::TileNic>(
        static_cast<NodeId>(t), cfg.scheme, cfg.link.style, ncfg.nodes(), &net,
        &reg));
  }

  NocReplay r;
  Cycle now{0};
  const tcmp::het::TileNic::DeliverFn discard = [](const CoherenceMsg&) {};
  net.set_deliver([&](NodeId node, const CoherenceMsg& msg) {
    const auto t0 = Clock::now();
    nics[node]->receive(msg, now, discard);
    r.receive.nanos += nanos_between(t0, Clock::now());
    ++r.receive.calls;
  });

  std::vector<tcmp::CounterRef> flit_counters;
  for (const auto& ch : ncfg.channels) {
    flit_counters.push_back(reg.counter_ref("noc." + ch.name + ".flits_injected"));
  }
  auto flits_so_far = [&] {
    std::uint64_t f = 0;
    for (const auto& c : flit_counters) f += c.value();
    return f;
  };

  // Same cycle discipline as the run's kernel: the network ticks only on
  // cycles its own next_event() names; messages stamped with cycle c are
  // sent after tick(c), as the run's directories and cores send them.
  bool zeroed = false;
  std::size_t i = 0;
  Cycle last{0};
  while (i < msgs.size() || !net.quiescent()) {
    const Cycle next_msg = i < msgs.size() ? msgs[i].at : tcmp::kNeverCycle;
    const Cycle next_net =
        net.quiescent() ? tcmp::kNeverCycle : std::max(net.next_event(), last + 1);
    now = std::min(next_msg, next_net);
    TCMP_CHECK_MSG(now != tcmp::kNeverCycle, "replay network holds work it never schedules");
    if (next_net == now) {
      const auto t0 = Clock::now();
      net.tick(now);
      r.tick.nanos += nanos_between(t0, Clock::now());
      ++r.tick.calls;
    }
    if (i < msgs.size() && msgs[i].at == now) {
      const auto t0 = Clock::now();
      for (; i < msgs.size() && msgs[i].at == now; ++i) {
        if (msgs[i].measured && !zeroed) {
          r.flits += flits_so_far();
          reg.zero_all();
          zeroed = true;
        }
        nics[msgs[i].msg.src]->send(msgs[i].msg, now);
        ++r.send.calls;
      }
      r.send.nanos += nanos_between(t0, Clock::now());
    }
    last = now;
  }
  r.flits += flits_so_far();
  if (!zeroed) reg.zero_all();  // nothing was sent in the measured window

  for (const auto& ch : ncfg.channels) {
    for (const char* stat : {".packets", ".payload_bytes"}) {
      const std::string name = "noc." + ch.name + stat;
      r.counters.emplace_back(name, reg.counter_value(name));
    }
  }
  for (const char* name : {"het.b_messages", "het.vl_messages",
                           "compression.compressed", "compression.uncompressed"}) {
    r.counters.emplace_back(name, reg.counter_value(name));
  }
  return r;
}

CompressionReplay replay_compression(const tcmp::cmp::CmpConfig& cfg,
                                     const std::vector<CapturedMsg>& msgs) {
  using tcmp::compression::CompressorPair;
  // [tile][class]: the sender half serves the tile's sends, the receiver
  // half decodes what other tiles sent to it.
  std::vector<std::array<CompressorPair, tcmp::compression::kNumMsgClasses>>
      pairs(cfg.n_tiles);
  for (auto& per_class : pairs) {
    for (auto& p : per_class) p = tcmp::compression::make_compressor(cfg.scheme, cfg.n_tiles);
  }

  CompressionReplay r;
  const auto t0 = Clock::now();
  for (const CapturedMsg& c : msgs) {
    const CoherenceMsg& m = c.msg;
    if (!tcmp::het::wants_compression(m.type, cfg.scheme, cfg.link.style)) continue;
    const auto cls = static_cast<unsigned>(tcmp::protocol::compression_class(m.type));
    const tcmp::compression::Encoding enc = pairs[m.src][cls].sender->compress(m.dst, m.line);
    if (pairs[m.dst][cls].receiver->decode(m.src, enc, m.line) != m.line) ++r.mismatches;
    if (c.measured && enc.compressed) ++r.compressed;
  }
  r.msgs.nanos = nanos_between(t0, Clock::now());
  r.msgs.calls = msgs.size();
  return r;
}

}  // namespace tcmpbench

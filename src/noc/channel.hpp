// Physical channel description. The baseline network has one 75-byte B-Wire
// channel; the heterogeneous network adds a narrow VL-Wire channel and
// shrinks the B channel to 34 bytes (paper Sec. 4.3). Each channel is a
// physically separate router+link plane; they share only the network
// interfaces.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "wire/link_design.hpp"
#include "wire/wire_spec.hpp"

namespace tcmp::noc {

struct ChannelSpec {
  std::string name;       ///< "B" or "VL"
  Bytes width_bytes{75};  ///< flit width
  unsigned link_cycles = 3;  ///< link traversal latency (cycles per hop)
  wire::WireSpec wires;      ///< per-wire energy characteristics

  [[nodiscard]] unsigned width_bits() const { return width_bytes * 8; }
  [[nodiscard]] Flits flits_for(Bytes bytes) const {
    return Flits{(bytes + width_bytes - 1) / width_bytes};
  }
};

/// Channel set for a link partition: links of wire::kLinkLengthMm at the
/// technology clock (wire::TechParams::itrs65().freq).
[[nodiscard]] std::vector<ChannelSpec> make_channels(
    const wire::LinkPartition& partition);

/// Channel index conventions. Channel 0 is always the B channel. For the
/// paper's VL+B style, channel 1 is the VL bundle. For the Cheng [6]
/// three-subnet style, channel 1 is the L subnet and channel 2 the PW subnet.
inline constexpr unsigned kBChannel = 0;
inline constexpr unsigned kVlChannel = 1;
inline constexpr unsigned kLChannel = 1;
inline constexpr unsigned kPwChannel = 2;

}  // namespace tcmp::noc

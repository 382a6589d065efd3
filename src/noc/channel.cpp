#include "noc/channel.hpp"

#include "common/check.hpp"
#include "wire/technology.hpp"

namespace tcmp::noc {

std::vector<ChannelSpec> make_channels(const wire::LinkPartition& partition) {
  const units::Hertz freq = wire::TechParams::itrs65().freq;
  std::vector<ChannelSpec> channels;
  const wire::WireSpec b = wire::paper_spec(wire::WireClass::kB8X);
  ChannelSpec bch;
  bch.name = "B";
  bch.width_bytes = partition.b_bytes;
  bch.link_cycles = b.link_cycles(wire::kLinkLengthMm, freq);
  bch.wires = b;
  channels.push_back(bch);

  if (partition.style == wire::LinkStyle::kVlHet) {
    const wire::WireSpec vl = wire::paper_spec(wire::WireClass::kVL, partition.vl_bytes);
    ChannelSpec vch;
    vch.name = "VL";
    vch.width_bytes = partition.vl_bytes;
    vch.link_cycles = vl.link_cycles(wire::kLinkLengthMm, freq);
    vch.wires = vl;
    channels.push_back(vch);
    TCMP_CHECK(vch.link_cycles < bch.link_cycles);
  } else if (partition.style == wire::LinkStyle::kCheng3Way) {
    const wire::WireSpec l = wire::paper_spec(wire::WireClass::kL8X);
    ChannelSpec lch;
    lch.name = "L";
    lch.width_bytes = partition.l_bytes;
    lch.link_cycles = l.link_cycles(wire::kLinkLengthMm, freq);
    lch.wires = l;
    channels.push_back(lch);
    const wire::WireSpec pw = wire::paper_spec(wire::WireClass::kPW4X);
    ChannelSpec pch;
    pch.name = "PW";
    pch.width_bytes = partition.pw_bytes;
    pch.link_cycles = pw.link_cycles(wire::kLinkLengthMm, freq);
    pch.wires = pw;
    channels.push_back(pch);
    TCMP_CHECK(lch.link_cycles < bch.link_cycles);
    TCMP_CHECK(pch.link_cycles > bch.link_cycles);
  }
  return channels;
}

}  // namespace tcmp::noc

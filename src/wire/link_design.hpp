// Area-matched heterogeneous link partitioning (paper Sec. 4.3).
//
// The baseline unidirectional link is 75 bytes of B-Wires = 600 wire tracks.
// The heterogeneous link re-partitions the same metal area into a VL bundle
// (3, 4 or 5 bytes at 14x/10x/8x tracks per wire) plus 34 bytes of B-Wires
// (272 wires): 24*14 + 272 = 608, 32*10 + 272 = 592, 40*8 + 272 = 592 — all
// within ~1.3% of the 600-track budget, as in the paper.
#pragma once

#include "common/types.hpp"
#include "wire/wire_spec.hpp"

namespace tcmp::wire {

/// How the 600-track link budget is spent.
enum class LinkStyle {
  kBaseline,   ///< one 75-byte B-Wire channel (the paper's baseline)
  kVlHet,      ///< the paper's proposal: VL bundle + 34 B of B-Wires
  kCheng3Way,  ///< Cheng et al. [6]: L-Wires + B-Wires + PW-Wires subnets
};

struct LinkPartition {
  LinkStyle style = LinkStyle::kBaseline;

  // VL bundle (kVlHet only).
  Bytes vl_bytes{0};
  unsigned vl_wires = 0;
  double vl_tracks = 0.0;  ///< B-wire-equivalent tracks used by the bundle

  // L / PW subnets (kCheng3Way only).
  Bytes l_bytes{0};
  unsigned l_wires = 0;
  double l_tracks = 0.0;
  Bytes pw_bytes{0};
  unsigned pw_wires = 0;
  double pw_tracks = 0.0;

  Bytes b_bytes{75};
  unsigned b_wires = 600;
  double total_tracks = 600.0;

  /// The paper's proposal (VL channel present).
  [[nodiscard]] bool heterogeneous() const { return style == LinkStyle::kVlHet; }
  /// Fractional deviation from the 600-track baseline budget (signed).
  [[nodiscard]] double area_overshoot() const { return total_tracks / 600.0 - 1.0; }

  friend bool operator==(const LinkPartition&, const LinkPartition&) = default;
};

/// The baseline homogeneous 75-byte B-Wire link.
[[nodiscard]] LinkPartition baseline_link();

/// The paper's heterogeneous partition for a given VL width (3, 4 or 5 bytes):
/// VL bundle + 34 bytes of B-Wires.
[[nodiscard]] LinkPartition paper_het_link(unsigned vl_bytes);

/// General area-matched partition: given a VL width, spend as much of the
/// 600-track budget on B-Wires as fits alongside the VL bundle (whole bytes).
/// Used by the VL-width ablation bench.
[[nodiscard]] LinkPartition computed_het_link(unsigned vl_bytes,
                                              double track_budget = 600.0);

/// Cheng et al. [6]'s three-subnet link inside the same 600-track budget:
/// an 11-byte L-Wire subnet carries short critical messages uncompressed in
/// one fast flit (88 wires x 4 tracks = 352), a 17-byte B-Wire subnet
/// carries data (136 tracks), and a 28-byte PW-Wire subnet on the 4X plane
/// carries non-critical traffic at low power (224 wires x 0.5 = 112 tracks).
/// Total 600. This is the comparison point the paper reports "insignificant
/// performance improvements" for on direct topologies.
[[nodiscard]] LinkPartition cheng3way_link();

}  // namespace tcmp::wire

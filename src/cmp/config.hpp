// Whole-system configuration (Table 4) and the named configurations the
// paper evaluates: the homogeneous 75-byte B-Wire baseline, and the
// heterogeneous VL+B link paired with an address compression scheme.
#pragma once

#include <string>

#include "compression/scheme.hpp"
#include "protocol/directory.hpp"
#include "protocol/l1_cache.hpp"
#include "noc/network.hpp"
#include "wire/link_design.hpp"

namespace tcmp::cmp {

/// What a run may vary. The machine itself is fixed (Table 4): the clock is
/// wire::TechParams::itrs65().freq, links are wire::kLinkLengthMm long,
/// routers have noc::kVcsPerPort VCs of noc::kVcDepth flits per port, and
/// the report charges the default power::RouterEnergyModel and
/// power::ChipPowerModel.
struct CmpConfig {
  unsigned n_tiles = 16;
  unsigned mesh_width = 4;
  unsigned mesh_height = 4;

  /// Worker threads for the partitioned driver (docs/partitioning.md).
  /// 1 = one partition on the calling thread, byte-identical output; K > 1
  /// splits the mesh into K row-blocks, each on its own thread.
  unsigned threads = 1;

  protocol::L1Cache::Config l1{128, 4};  ///< 32 KB, 4-way
  /// 256 KB/core, 6+2 cycles, 400-cycle memory.
  protocol::Directory::Config l2{1024, 4, Cycle{8}, Cycle{400}};

  compression::SchemeConfig scheme = compression::SchemeConfig::none();
  wire::LinkPartition link = wire::baseline_link();

  noc::Topology topology = noc::Topology::kMesh2D;
  /// Single-cycle routers (lookahead routing + speculative allocation), the
  /// aggressive design point of the paper's era; false = 3-stage pipeline
  /// (see `paper router-pipeline`, bench/paper.cpp).
  bool single_cycle_router = true;
  /// Enable the Reply Partitioning extension [9] on top of the current link
  /// configuration (`paper reply-partitioning`, bench/paper.cpp).
  bool reply_partitioning = false;

  double switching_activity = 0.5;  ///< alpha for link dynamic energy

  [[nodiscard]] bool heterogeneous() const { return link.heterogeneous(); }
  [[nodiscard]] std::string name() const;

  /// Paper baseline: single 75-byte B-Wire link, no compression.
  static CmpConfig baseline();
  /// Paper proposal: VL bundle sized by the scheme (Sec. 4.3) + 34 B B-Wires.
  static CmpConfig heterogeneous(const compression::SchemeConfig& scheme);
  /// Cheng et al. [6]'s three-subnet interconnect (L + B + PW), the related
  /// work the paper compares against; no address compression.
  static CmpConfig cheng3way();

  /// Canonical mesh shape for a tile count: 16 -> 4x4, 32 -> 8x4 (the
  /// paper-era sizes), 64 -> 8x8, 256 -> 16x16. Power-of-two counts above 16
  /// get the squarest factorization with width >= height.
  CmpConfig& with_tiles(unsigned tiles) {
    n_tiles = tiles;
    mesh_height = 4;
    while (mesh_height * mesh_height * 4 <= tiles) mesh_height *= 2;
    mesh_width = (tiles + mesh_height - 1) / mesh_height;
    if (tiles <= 16) {
      mesh_width = 4;
      mesh_height = 4;
    }
    return *this;
  }

  /// Member-wise, so two configurations are equal only when every field
  /// agrees (the paper driver merges equal (app, config) runs).
  friend bool operator==(const CmpConfig&, const CmpConfig&) = default;
};

}  // namespace tcmp::cmp

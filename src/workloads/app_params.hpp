// Parameterized application models standing in for the paper's 13 benchmarks
// (Table 4, bottom). Each parameter set encodes the documented memory
// behaviour of the original program — sharing pattern, footprint, spatial
// locality, allocation layout, synchronization density — which is what
// determines message mix (Fig. 5), compression coverage (Fig. 2) and
// interconnect sensitivity (Fig. 6). See DESIGN.md for the substitution
// rationale and workloads/apps.cpp for per-application notes.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace tcmp::workloads {

/// How cores touch the shared region.
enum class SharePattern {
  kNeighbor,    ///< grid stencil: own block + edges of mesh neighbours (Ocean)
  kMigratory,   ///< objects move core-to-core with read-modify-write (MP3D)
  kProducerConsumer,  ///< core c writes segment c, reads segment c-1 (LU)
  kReadMostly,  ///< widely read, rarely written (Raytrace scene, Barnes body tree)
  kTranspose,   ///< phased all-to-all (FFT transpose, Radix ranking)
  kUniformRandom,     ///< scattered accesses over the whole region (Radix perm.)
  kIrregularGraph,    ///< pointer-chasing over an irregular structure (EM3D,
                      ///  Unstructured, Barnes tree walk)
};

/// Virtual-address layout of each core's data. Contiguous keeps a core's
/// footprint in one dense region (compressible addresses); scattered spreads
/// 4 KB chunks pseudo-randomly over a large VA space (the "non-contiguous
/// allocation" of LU-noncont / Ocean-noncont, and heap-allocated pointer
/// structures) which defeats small compression caches.
enum class Layout { kContiguous, kScattered };

struct AppParams {
  std::string name;
  std::uint64_t ops_per_core = 20000;  ///< memory operations per core
  double write_frac = 0.3;
  double shared_frac = 0.2;        ///< accesses hitting the shared region
  std::uint64_t private_lines = 4096;   ///< per-core footprint (64 B lines)
  std::uint64_t shared_lines = 8192;    ///< global shared footprint
  SharePattern pattern = SharePattern::kUniformRandom;
  Layout layout = Layout::kContiguous;
  double spatial_locality = 0.9;   ///< P(next access continues sequentially)
  double line_dwell = 6.0;         ///< mean accesses to a line before moving on
  /// Fraction of shared accesses that hit the hot subset (1/16 of the
  /// region): real programs concentrate coherence traffic on hot structures
  /// (locks, frontiers, boundary rows). 0 disables (uniform traffic).
  double shared_hot_frac = 0.75;
  /// Concurrent private data structures (arrays) each core walks, placed in
  /// separate address regions (loops touch several arrays per iteration);
  /// this is what limits small compression caches on 1-byte-LO windows.
  unsigned num_streams = 4;
  unsigned barrier_interval = 0;   ///< memory ops between barriers (0 = none)
  double compute_per_mem = 2.0;    ///< mean ALU instructions between mem ops
  std::uint64_t base_line = 0x10000000;  ///< region base (line address)  // tcmplint: allow-raw-unit (layout arithmetic seed)
  double warmup_frac = 0.3;        ///< warmup ops (fraction of ops_per_core)
  /// VA window (in lines) that scattered layouts spread chunks over; larger
  /// windows mean more distinct high-order address regions and therefore
  /// lower compression coverage.
  std::uint64_t scatter_lines = 1ULL << 19;
  /// Program-text footprint in lines (shared by all cores; drives I-fetches).
  std::uint64_t code_lines = 512;
  std::uint64_t seed = 1;

  [[nodiscard]] std::uint64_t warmup_ops() const {
    return static_cast<std::uint64_t>(warmup_frac * static_cast<double>(ops_per_core));
  }

  /// ops_per_core * factor is a finite, non-negative op count that fits in
  /// 64 bits (scaled() checks it: the cast of any other value is undefined).
  [[nodiscard]] bool scale_fits(double factor) const {
    const double ops = static_cast<double>(ops_per_core) * factor;
    return std::isfinite(ops) && ops >= 0 && ops < 0x1p64;
  }

  [[nodiscard]] AppParams scaled(double factor) const {
    TCMP_CHECK_MSG(scale_fits(factor), "scaled op count does not fit in 64 bits");
    AppParams p = *this;
    p.ops_per_core = static_cast<std::uint64_t>(static_cast<double>(ops_per_core) * factor);
    if (p.ops_per_core < 200) p.ops_per_core = 200;
    return p;
  }

  friend bool operator==(const AppParams&, const AppParams&) = default;
};

/// The 13 applications of Table 4, in the paper's order.
[[nodiscard]] const std::vector<AppParams>& all_apps();

/// Lookup by name (aborts if unknown).
[[nodiscard]] const AppParams& app(const std::string& name);

}  // namespace tcmp::workloads

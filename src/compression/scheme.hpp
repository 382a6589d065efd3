// Compression scheme configuration (paper Sec. 3.1).
//
// Compression operates on the 64-bit *line* address carried by requests and
// coherence commands. A scheme splits the line address into `low_bytes` of
// uncompressed low-order bits plus a high-order part that is either matched
// in a compression cache (DBRC) or differenced against a base register
// (Stride). On a hit, only the low-order bytes (plus a small index folded
// into the 3-byte control header) travel on the wire.
#pragma once

#include <string>

namespace tcmp::compression {

enum class SchemeKind { kNone, kStride, kDbrc, kPerfect };

/// Requests and coherence commands use separate hardware structures "to
/// avoid destructive interferences between both address streams" (Sec. 3.1).
enum class MsgClass : unsigned { kRequest = 0, kCommand = 1 };
inline constexpr unsigned kNumMsgClasses = 2;

struct SchemeConfig {
  SchemeKind kind = SchemeKind::kNone;
  unsigned entries = 4;    ///< DBRC compression-cache entries (4/16/64)
  unsigned low_bytes = 2;  ///< uncompressed low-order bytes (1 or 2)
  /// DBRC mirror model. true (default, the paper's model): receiver register
  /// files are assumed synchronized with the sender cache, so any tag hit
  /// compresses. false: conservative point-to-point design where each entry
  /// tracks which destinations hold it (per-destination valid bits) and the
  /// first send of an entry to each destination goes uncompressed — see
  /// `paper dbrc-mirrors` (bench/paper.cpp) for its coverage cost.
  bool idealized_mirrors = true;

  [[nodiscard]] std::string name() const;

  /// Address bytes on the wire when compression succeeds (0 for Perfect).
  [[nodiscard]] unsigned compressed_addr_bytes() const;

  /// VL bundle width this scheme requires: 3-byte control header +
  /// compressed address (paper Sec. 4.3: 4-5 bytes; 3 bytes for Perfect).
  [[nodiscard]] unsigned vl_width_bytes() const { return 3 + compressed_addr_bytes(); }

  [[nodiscard]] bool enabled() const { return kind != SchemeKind::kNone; }

  // Named configurations evaluated in the paper.
  static SchemeConfig none() { return {SchemeKind::kNone, 0, 0}; }
  static SchemeConfig stride(unsigned low_bytes) {
    return {SchemeKind::kStride, 0, low_bytes};
  }
  static SchemeConfig dbrc(unsigned entries, unsigned low_bytes) {
    return {SchemeKind::kDbrc, entries, low_bytes};
  }
  static SchemeConfig perfect(unsigned vl_bytes = 3) {
    // Perfect compression with a chosen VL width: the paper's three solid
    // lines in Fig. 6 are perfect coverage at 3/4/5-byte VL bundles.
    return {SchemeKind::kPerfect, 0, vl_bytes - 3};
  }

  friend bool operator==(const SchemeConfig&, const SchemeConfig&) = default;
};

}  // namespace tcmp::compression

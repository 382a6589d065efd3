// Versioned binary snapshot archives for checkpoint/restore
// (docs/checkpointing.md).
//
// SnapshotWriter and SnapshotReader are symmetric: a class serializes itself
// with ONE member template,
//
//   template <typename Ar> void snapshot_io(Ar& ar) { ar.field(a_); ... }
//
// instantiated with either archive, so the save and load walks can never
// drift apart field-by-field. field() handles integral/enum/bool/floating
// scalars, the strong types from common/types.hpp (anything exposing
// .value() plus explicit construction from its Rep), std::string, and the
// containers the simulator state lives in (vector, deque, array, optional,
// pair, map, unordered_map). Unordered maps are written in sorted-key order
// so the byte stream is independent of hash-bucket layout; reinserting on
// load is behaviorally safe because the nondet-iteration lint guarantees no
// simulator behavior depends on iteration order.
//
// Two guard mechanisms keep a stale or mismatched snapshot from silently
// corrupting a run:
//   * section("name") writes/checks a tag hash, so a save/load walk that
//     drifts fails at the section boundary, not five hundred fields later;
//   * verify(v) writes the value and on load CHECKs it equals the restoring
//     object's construction-time value — used for config shape baked into
//     objects (set counts, capacities, port counts).
// On any mismatch the reader TCMP_CHECKs: a snapshot is trusted input
// produced by the same binary family, not an attack surface to limp past.
//
// File layout: a snapshot stream starts with the magic, a format version and
// a caller-supplied config fingerprint string (write_snapshot_header /
// read_snapshot_header); docs/checkpointing.md records the version policy.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace tcmp {

/// Bumped when the stream layout changes incompatibly. Readers accept only
/// their own version: there is no migration from older layouts (v1 carried
/// a wake-calendar section v2 dropped; v3 stores flits as routing records
/// with packet slabs and credit FIFOs; v4 stores the router's fixed-size VC
/// arrays without per-VC output indices or route flags, lanes without a VC,
/// cores without a blocked-cycle copy and directories with their
/// reply-partitioning switch; v5 stores each directory's parked requests in
/// one table instead of a queue per entry and per fill; v6 stores each cache
/// array as its set index and the blocks of the sets it built, in touch
/// order, instead of every line; see docs/checkpointing.md).
inline constexpr std::uint32_t kSnapshotFormatVersion = 6;

namespace snapshot_detail {

inline constexpr char kMagic[8] = {'T', 'C', 'M', 'P', 'S', 'N', 'P', '\0'};

[[nodiscard]] constexpr std::uint64_t fnv1a(const char* s) {
  std::uint64_t h = 1469598103934665603ull;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ull;
  }
  return h;
}

/// The strong scalar family (Cycle, LineAddr, NodeId, ...): a nested Rep,
/// a value() observer, explicit construction back from Rep.
template <typename T>
concept StrongScalar = requires(const T& v) {
  typename T::Rep;
  { v.value() } -> std::convertible_to<typename T::Rep>;
  requires std::is_integral_v<typename T::Rep>;
  requires std::is_constructible_v<T, typename T::Rep>;
};

template <typename T, typename Ar>
concept HasSnapshotIo = requires(T& v, Ar& ar) { v.snapshot_io(ar); };

}  // namespace snapshot_detail

class SnapshotWriter {
 public:
  static constexpr bool kIsWriter = true;

  explicit SnapshotWriter(std::ostream& out) : out_(out) {}

  /// Tag hash marking a save/load phase boundary.
  void section(const char* name) { raw_u64(snapshot_detail::fnv1a(name)); }

  /// Construction-time config shape: written like a field; the reader
  /// CHECKs it against the restoring object instead of assigning.
  template <typename T>
  void verify(const T& v) {
    field(v);
  }

  template <typename T>
  void field(const T& v) {
    using snapshot_detail::StrongScalar;
    if constexpr (snapshot_detail::HasSnapshotIo<T, SnapshotWriter>) {
      // snapshot_io is non-const (the reader instantiation assigns); the
      // writer instantiation only reads.
      const_cast<T&>(v).snapshot_io(*this);
    } else if constexpr (std::is_same_v<T, bool>) {
      raw_u64(v ? 1 : 0);
    } else if constexpr (std::is_enum_v<T>) {
      raw_u64(static_cast<std::uint64_t>(
          static_cast<std::underlying_type_t<T>>(v)));
    } else if constexpr (std::is_integral_v<T>) {
      raw_u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
    } else if constexpr (std::is_floating_point_v<T>) {
      raw_u64(std::bit_cast<std::uint64_t>(static_cast<double>(v)));
    } else if constexpr (StrongScalar<T>) {
      raw_u64(static_cast<std::uint64_t>(v.value()));
    } else {
      write_composite(v);
    }
  }

  void raw_u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out_.write(b, 8);
  }

  void raw_bytes(const char* p, std::size_t n) {
    out_.write(p, static_cast<std::streamsize>(n));
  }

  [[nodiscard]] bool good() const { return out_.good(); }

 private:
  void write_composite(const std::string& v) {
    raw_u64(v.size());
    raw_bytes(v.data(), v.size());
  }
  template <typename T>
  void write_composite(const std::vector<T>& v) {
    raw_u64(v.size());
    for (const T& e : v) field(e);
  }
  void write_composite(const std::vector<bool>& v) {
    raw_u64(v.size());
    for (const bool b : v) field(b);
  }
  template <typename T>
  void write_composite(const std::deque<T>& v) {
    raw_u64(v.size());
    for (const T& e : v) field(e);
  }
  template <typename T, std::size_t N>
  void write_composite(const std::array<T, N>& v) {
    for (const T& e : v) field(e);
  }
  template <typename T>
  void write_composite(const std::optional<T>& v) {
    field(v.has_value());
    if (v.has_value()) field(*v);
  }
  template <typename A, typename B>
  void write_composite(const std::pair<A, B>& v) {
    field(v.first);
    field(v.second);
  }
  template <typename K, typename V>
  void write_composite(const std::map<K, V>& ordered) {
    raw_u64(ordered.size());
    for (const auto& [k, v] : ordered) {
      field(k);
      field(v);
    }
  }
  template <typename K, typename V, typename H, typename E>
  void write_composite(const std::unordered_map<K, V, H, E>& m) {
    // Sorted-key order: the stream must not depend on hash-bucket layout.
    std::vector<const K*> keys;
    keys.reserve(m.size());
    // tcmplint: order-insensitive (collects every key, then sorts below)
    for (const auto& kv : m) keys.push_back(&kv.first);
    std::sort(keys.begin(), keys.end(),
              [](const K* a, const K* b) { return *a < *b; });
    raw_u64(m.size());
    for (const K* k : keys) {
      field(*k);
      field(m.at(*k));
    }
  }

  std::ostream& out_;
};

class SnapshotReader {
 public:
  static constexpr bool kIsWriter = false;

  explicit SnapshotReader(std::istream& in) : in_(in) {}

  void section(const char* name) {
    const std::uint64_t tag = raw_u64();
    TCMP_CHECK_MSG(tag == snapshot_detail::fnv1a(name),
                   "snapshot section tag mismatch (stream drifted from the "
                   "save walk, or the snapshot is from an incompatible build)");
  }

  /// Read the recorded value and CHECK it matches the restoring object's
  /// construction-time value (config shape must agree, never be assigned).
  template <typename T>
  void verify(const T& v) {
    std::remove_const_t<T> recorded{};
    field(recorded);
    TCMP_CHECK_MSG(recorded == v,
                   "snapshot config-shape mismatch: the restoring run was "
                   "constructed with different parameters than the saved one");
  }

  template <typename T>
  void field(T& v) {
    using snapshot_detail::StrongScalar;
    if constexpr (snapshot_detail::HasSnapshotIo<T, SnapshotReader>) {
      v.snapshot_io(*this);
    } else if constexpr (std::is_same_v<T, bool>) {
      v = raw_u64() != 0;
    } else if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(
          static_cast<std::underlying_type_t<T>>(raw_u64()));
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(static_cast<std::int64_t>(raw_u64()));
    } else if constexpr (std::is_floating_point_v<T>) {
      v = static_cast<T>(std::bit_cast<double>(raw_u64()));
    } else if constexpr (StrongScalar<T>) {
      v = T{static_cast<typename T::Rep>(raw_u64())};
    } else {
      read_composite(v);
    }
  }

  [[nodiscard]] std::uint64_t raw_u64() {
    char b[8];
    in_.read(b, 8);
    TCMP_CHECK_MSG(in_.good(), "snapshot stream truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
           << (8 * i);
    return v;
  }

  void raw_bytes(char* p, std::size_t n) {
    in_.read(p, static_cast<std::streamsize>(n));
    TCMP_CHECK_MSG(n == 0 || in_.good(), "snapshot stream truncated");
  }

  [[nodiscard]] bool good() const { return in_.good(); }

 private:
  void read_composite(std::string& v) {
    v.resize(raw_u64());
    raw_bytes(v.data(), v.size());
  }
  template <typename T>
  void read_composite(std::vector<T>& v) {
    v.clear();
    v.resize(raw_u64());
    for (T& e : v) field(e);
  }
  void read_composite(std::vector<bool>& v) {
    v.clear();
    v.resize(raw_u64());
    for (std::size_t i = 0; i < v.size(); ++i) {
      bool b = false;
      field(b);
      v[i] = b;
    }
  }
  template <typename T>
  void read_composite(std::deque<T>& v) {
    v.clear();
    v.resize(raw_u64());
    for (T& e : v) field(e);
  }
  template <typename T, std::size_t N>
  void read_composite(std::array<T, N>& v) {
    for (T& e : v) field(e);
  }
  template <typename T>
  void read_composite(std::optional<T>& v) {
    bool has = false;
    field(has);
    if (has) {
      v.emplace();
      field(*v);
    } else {
      v.reset();
    }
  }
  template <typename A, typename B>
  void read_composite(std::pair<A, B>& v) {
    field(v.first);
    field(v.second);
  }
  template <typename K, typename V>
  void read_composite(std::map<K, V>& m) {
    m.clear();
    const std::uint64_t n = raw_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      field(k);
      V val{};
      field(val);
      m.emplace_hint(m.end(), std::move(k), std::move(val));
    }
  }
  template <typename K, typename V, typename H, typename E>
  void read_composite(std::unordered_map<K, V, H, E>& m) {
    m.clear();
    const std::uint64_t n = raw_u64();
    m.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      field(k);
      V val{};
      field(val);
      m.emplace(std::move(k), std::move(val));
    }
  }

  std::istream& in_;
};

/// Open a snapshot stream: magic, format version, config fingerprint. The
/// fingerprint is any string both sides derive from their construction
/// parameters (config name + tiles + threads + workload identity); restore
/// refuses a snapshot whose fingerprint differs.
inline void write_snapshot_header(SnapshotWriter& w,
                                  const std::string& fingerprint) {
  w.raw_bytes(snapshot_detail::kMagic, sizeof snapshot_detail::kMagic);
  w.raw_u64(kSnapshotFormatVersion);
  w.field(fingerprint);
}

inline void read_snapshot_header(SnapshotReader& r,
                                 const std::string& expected_fingerprint) {
  char magic[sizeof snapshot_detail::kMagic] = {};
  r.raw_bytes(magic, sizeof magic);
  TCMP_CHECK_MSG(std::equal(std::begin(magic), std::end(magic),
                            std::begin(snapshot_detail::kMagic)),
                 "not a tcmp snapshot (bad magic)");
  const std::uint64_t version = r.raw_u64();
  TCMP_CHECK_MSG(version == kSnapshotFormatVersion,
                 "snapshot format version not supported by this build");
  std::string fingerprint;
  r.field(fingerprint);
  TCMP_CHECK_MSG(fingerprint == expected_fingerprint,
                 "snapshot fingerprint mismatch: the snapshot was taken under "
                 "a different config/workload than the restoring run");
}

}  // namespace tcmp

// Fixed-width set of mesh nodes: four 64-bit words in a std::array, no heap,
// trivially copyable. The seed capped meshes at 32 tiles because its two
// full-map bit vectors (directory sharer sets, DBRC per-destination valid
// bits) were single uint32_t fields; NodeSet widens both to 256 nodes — the
// ceiling of the partitioned driver (16x16 mesh, docs/partitioning.md) —
// while staying cheap enough to live inline in cache-array payloads.
// Constructors that size against a node count CHECK n_nodes <= kMaxNodes so
// an oversized config fails loudly instead of silently truncating the map.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace tcmp {

class NodeSet {
 public:
  static constexpr unsigned kMaxNodes = 256;

  constexpr NodeSet() = default;

  /// Set with exactly the bits `a` and `b` (the directory's BusyShared
  /// resolution path lists the old owner and the forward requester).
  [[nodiscard]] static constexpr NodeSet of(unsigned a, unsigned b) {
    NodeSet m;
    m.set(a);
    m.set(b);
    return m;
  }

  constexpr void set(unsigned n) { words_[n / 64] |= word_bit(n); }
  constexpr void reset(unsigned n) { words_[n / 64] &= ~word_bit(n); }
  constexpr void clear() { words_ = {}; }

  [[nodiscard]] constexpr bool test(unsigned n) const {
    return (words_[n / 64] & word_bit(n)) != 0;
  }

  [[nodiscard]] constexpr bool none() const {
    for (const std::uint64_t w : words_)
      if (w != 0) return false;
    return true;
  }

  [[nodiscard]] constexpr unsigned count() const {
    unsigned c = 0;
    for (const std::uint64_t w : words_) c += static_cast<unsigned>(std::popcount(w));
    return c;
  }

  /// Copy of this set with bit `n` cleared (the "other sharers" set).
  [[nodiscard]] constexpr NodeSet without(unsigned n) const {
    NodeSet m = *this;
    m.reset(n);
    return m;
  }

  friend constexpr bool operator==(const NodeSet&, const NodeSet&) = default;

  /// Checkpoint serialization (common/snapshot.hpp).
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(words_);
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t word_bit(unsigned n) {
    return std::uint64_t{1} << (n % 64);
  }

  std::array<std::uint64_t, kMaxNodes / 64> words_{};
};

}  // namespace tcmp

// Generic set-associative array with true-LRU replacement, parameterized by a
// per-line payload (L1 stores an L1 state; the L2 slice stores data-presence
// plus the directory entry) and by the strong key type it is indexed with
// (LineAddr for caches, DirKey for the home-stripped directory array). Only
// metadata is tracked — the simulator models addresses and states, not data
// values.
//
// Sets are built on first touch (docs/performance.md, "Sparse cache arrays"):
// a run touches only part of a 256 KB slice's sets (a tenth to two thirds on
// the benchmark's workloads), so the array keeps an index from set to block
// and appends a set's `ways` lines to a pool the first time victim() or
// set_lines() needs them. An untouched set holds exactly what a dense array
// would hold there (`ways` invalid lines), so lookups, victims and LRU order
// are the dense array's.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace tcmp::protocol {

/// A strong integer key: explicit construction from its representation and
/// explicit `.value()` read-out (LineAddr, DirKey, ...).
template <typename K>
concept StrongKey = requires(K k, std::uint64_t v) {
  K{v};
  { k.value() } -> std::convertible_to<std::uint64_t>;
};

template <typename Payload, StrongKey Key = LineAddr>
class CacheArray {
 public:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru_stamp = 0;
    bool valid = false;
    Payload payload{};

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(tag);
      ar.field(lru_stamp);
      ar.field(valid);
      ar.field(payload);
    }
  };

  CacheArray(unsigned sets, unsigned ways)
      : sets_(sets), ways_(ways), block_of_(sets, kUntouched) {
    TCMP_CHECK_MSG(std::has_single_bit(sets), "set count must be a power of two");
    TCMP_CHECK(ways >= 1);
    // Room for every set up front: appending a block never reallocates, so
    // no Line* a caller holds ever moves, and the pages of blocks a run
    // never builds are never faulted in.
    lines_.reserve(std::size_t{sets} * ways);
    set_of_block_.reserve(sets);
  }
  // A copy would not carry the reservation, so its lines could move.
  CacheArray(const CacheArray&) = delete;
  CacheArray& operator=(const CacheArray&) = delete;

  /// Geometry helper: total bytes / line size / ways -> sets.
  static CacheArray from_geometry(std::size_t capacity_bytes, unsigned ways) {
    const std::size_t lines = capacity_bytes / kLineBytes;
    return CacheArray(static_cast<unsigned>(lines / ways), ways);
  }

  [[nodiscard]] unsigned sets() const { return sets_; }
  [[nodiscard]] unsigned ways() const { return ways_; }
  /// Sets built so far (first touched by victim() or set_lines()).
  [[nodiscard]] unsigned touched_sets() const {
    return static_cast<unsigned>(set_of_block_.size());
  }

  /// Find the line holding `key`; returns nullptr on miss. Does not touch
  /// LRU (use `touch` on an actual access) and builds no set.
  [[nodiscard]] Line* find(Key key) {
    const std::uint32_t block = block_of_[set_of(key)];
    if (block == kUntouched) return nullptr;
    const std::uint64_t tag = tag_of(key);
    Line* const set = &lines_[std::size_t{block} * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
      if (set[w].valid && set[w].tag == tag) return &set[w];
    }
    return nullptr;
  }
  [[nodiscard]] const Line* find(Key key) const {
    return const_cast<CacheArray*>(this)->find(key);
  }

  void touch(Line& line) { line.lru_stamp = ++clock_; }

  /// The line that would be evicted to make room for `key` (invalid lines
  /// first, then LRU). Never returns nullptr.
  [[nodiscard]] Line* victim(Key key) {
    const std::span<Line> set = set_lines(key);
    Line* best = set.data();
    for (Line& l : set) {
      if (!l.valid) return &l;
      if (l.lru_stamp < best->lru_stamp) best = &l;
    }
    return best;
  }

  /// Install `key` into `slot` (which must belong to its set).
  void fill(Line& slot, Key key) {
    TCMP_DCHECK(block_of_[set_of(key)] != kUntouched &&
                static_cast<std::size_t>(&slot - lines_.data()) / ways_ ==
                    block_of_[set_of(key)]);
    slot.valid = true;
    slot.tag = tag_of(key);
    slot.payload = Payload{};
    touch(slot);
  }

  void invalidate(Line& slot) { slot.valid = false; }

  /// Reconstruct the full key of an (assumed valid) slot.
  [[nodiscard]] Key address_of(const Line& slot) const {
    const auto block = static_cast<std::size_t>(&slot - lines_.data()) / ways_;
    return Key{(slot.tag * sets_) + set_of_block_[block]};
  }

  /// All ways of the set `key` maps to (victim policies, tests); builds the
  /// set if it was untouched.
  [[nodiscard]] std::span<Line> set_lines(Key key) {
    const unsigned set = set_of(key);
    std::uint32_t& block = block_of_[set];
    if (block == kUntouched) {
      block = touched_sets();
      set_of_block_.push_back(set);
      lines_.resize(lines_.size() + ways_);
    }
    return {&lines_[std::size_t{block} * ways_], ways_};
  }

  /// Visit every valid line in set order (tests / invariant checks).
  template <typename Fn>
  void for_each_valid(Fn&& fn) {
    walk_valid(*this, fn);
  }
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    walk_valid(*this, fn);
  }

  [[nodiscard]] unsigned set_of(Key key) const {
    return static_cast<unsigned>(key.value() & (sets_ - 1));
  }
  [[nodiscard]] std::uint64_t tag_of(Key key) const { return key.value() / sets_; }

  /// Checkpoint serialization (common/snapshot.hpp): geometry is verified
  /// (construction-time shape); the set index, the built blocks in touch
  /// order and the LRU clock restore exactly.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.verify(sets_);
    ar.verify(ways_);
    ar.field(block_of_);
    ar.field(lines_);
    ar.field(clock_);
    if constexpr (!Ar::kIsWriter) {
      // Within the reservation, so the pool did not move; every block must
      // be named by exactly one set.
      TCMP_CHECK_MSG(block_of_.size() == sets_ && lines_.size() % ways_ == 0 &&
                         lines_.size() <= std::size_t{sets_} * ways_,
                     "snapshot cache array does not fit its geometry");
      set_of_block_.assign(lines_.size() / ways_, kUntouched);
      for (unsigned set = 0; set < sets_; ++set) {
        const std::uint32_t block = block_of_[set];
        if (block == kUntouched) continue;
        TCMP_CHECK_MSG(block < set_of_block_.size() && set_of_block_[block] == kUntouched,
                       "snapshot cache array index names a block twice or past the pool");
        set_of_block_[block] = set;
      }
      for (const std::uint32_t set : set_of_block_) {
        TCMP_CHECK_MSG(set != kUntouched, "snapshot cache array block owned by no set");
      }
    }
  }

 private:
  static constexpr std::uint32_t kUntouched = std::numeric_limits<std::uint32_t>::max();

  template <typename Self, typename Fn>
  static void walk_valid(Self& self, Fn& fn) {
    for (const std::uint32_t block : self.block_of_) {
      if (block == kUntouched) continue;
      for (unsigned w = 0; w < self.ways_; ++w) {
        auto& l = self.lines_[std::size_t{block} * self.ways_ + w];
        if (l.valid) fn(l);
      }
    }
  }

  unsigned sets_;
  unsigned ways_;
  /// Set -> its block in `lines_`, or kUntouched.
  std::vector<std::uint32_t> block_of_;
  /// Block -> its set (address_of); derived, rebuilt on load.
  std::vector<std::uint32_t> set_of_block_;
  /// The built blocks, `ways_` lines each, in the order their sets were
  /// first touched.
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

}  // namespace tcmp::protocol

// CacheArray unit tests: geometry, lookup, LRU victimization, address
// reconstruction, and the sparse layout: sets built on first touch behave
// exactly like a dense array, never move a line, and restore from a
// snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "protocol/cache_array.hpp"

namespace tcmp::protocol {
namespace {

struct Tag {
  int value = 0;

  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.field(value);
  }
};
using Array = CacheArray<Tag>;

TEST(CacheArray, GeometryFromCapacity) {
  // 32 KB, 4-way, 64 B lines -> 128 sets.
  const auto a = Array::from_geometry(32 * 1024, 4);
  EXPECT_EQ(a.sets(), 128u);
  EXPECT_EQ(a.ways(), 4u);
}

TEST(CacheArrayDeathTest, RejectsNonPowerOfTwoSets) {
  EXPECT_DEATH(Array(3, 4), "power of two");
}

TEST(CacheArray, FindMissesOnEmpty) {
  Array a(16, 2);
  EXPECT_EQ(a.find(LineAddr{0x123}), nullptr);
}

TEST(CacheArray, FillThenFind) {
  Array a(16, 2);
  auto* slot = a.victim(LineAddr{0x123});
  a.fill(*slot, LineAddr{0x123});
  slot->payload.value = 42;
  auto* found = a.find(LineAddr{0x123});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->payload.value, 42);
  EXPECT_EQ(a.find(LineAddr{0x124}), nullptr);  // different line, different set
}

TEST(CacheArray, AddressReconstruction) {
  Array a(16, 4);
  for (LineAddr line : {LineAddr{0x5}, LineAddr{0x15}, LineAddr{0x25}, LineAddr{0xFFF5}}) {
    auto* slot = a.victim(line);
    a.fill(*slot, line);
    EXPECT_EQ(a.address_of(*slot), line);
  }
}

TEST(CacheArray, LruVictimSelection) {
  Array a(1, 4);  // single set
  for (LineAddr line : {LineAddr{0}, LineAddr{1}, LineAddr{2}, LineAddr{3}}) {
    a.fill(*a.victim(line), line);
  }
  // Touch 0 so 1 becomes LRU.
  a.touch(*a.find(LineAddr{0}));
  auto* v = a.victim(LineAddr{99});
  EXPECT_EQ(a.address_of(*v), LineAddr{1});
}

TEST(CacheArray, InvalidWaysPreferredOverLru) {
  Array a(1, 2);
  a.fill(*a.victim(LineAddr{0}), LineAddr{0});
  a.fill(*a.victim(LineAddr{1}), LineAddr{1});
  a.invalidate(*a.find(LineAddr{0}));
  auto* v = a.victim(LineAddr{2});
  EXPECT_FALSE(v->valid);  // the invalidated way, not LRU line 1
  EXPECT_NE(a.find(LineAddr{1}), nullptr);
}

TEST(CacheArray, SetLinesSpansExactlyTheWays) {
  Array a(8, 4);
  auto span = a.set_lines(LineAddr{0x10});  // set = 0x10 & 7 = 0
  EXPECT_EQ(span.size(), 4u);
  for (auto& l : span) EXPECT_FALSE(l.valid);
}

TEST(CacheArray, ConflictingTagsCoexistAcrossWays) {
  Array a(4, 2);
  // Lines 0x3, 0x7, 0xB map to set 3; only two fit.
  a.fill(*a.victim(LineAddr{0x3}), LineAddr{0x3});
  a.fill(*a.victim(LineAddr{0x7}), LineAddr{0x7});
  EXPECT_NE(a.find(LineAddr{0x3}), nullptr);
  EXPECT_NE(a.find(LineAddr{0x7}), nullptr);
  auto* v = a.victim(LineAddr{0xB});
  EXPECT_TRUE(v->valid);  // must evict one of them
}

TEST(CacheArray, ForEachValidVisitsAll) {
  Array a(8, 2);
  std::set<LineAddr> filled{LineAddr{0x1}, LineAddr{0x9}, LineAddr{0x12},
                            LineAddr{0x33}};
  for (LineAddr l : filled) a.fill(*a.victim(l), l);
  std::set<LineAddr> seen;
  a.for_each_valid([&](Array::Line& l) { seen.insert(a.address_of(l)); });
  EXPECT_EQ(seen, filled);
}

// ---- the sparse layout ---------------------------------------------------

/// Reference: every set built at construction, lines at set * ways + way —
/// the layout the sparse array must be indistinguishable from.
class DenseArray {
 public:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru_stamp = 0;
    bool valid = false;
    Tag payload{};
  };

  DenseArray(unsigned sets, unsigned ways) : sets_(sets), ways_(ways), lines_(sets * ways) {}

  Line* find(LineAddr key) {
    for (Line& l : set_lines(key))
      if (l.valid && l.tag == key.value() / sets_) return &l;
    return nullptr;
  }
  Line* victim(LineAddr key) {
    Line* best = set_lines(key).data();
    for (Line& l : set_lines(key)) {
      if (!l.valid) return &l;
      if (l.lru_stamp < best->lru_stamp) best = &l;
    }
    return best;
  }
  void touch(Line& l) { l.lru_stamp = ++clock_; }
  void fill(Line& l, LineAddr key) {
    l = Line{key.value() / sets_, 0, true, Tag{}};
    touch(l);
  }
  LineAddr address_of(const Line& l) const {
    const auto set = static_cast<std::uint64_t>(&l - lines_.data()) / ways_;
    return LineAddr{l.tag * sets_ + set};
  }
  std::span<Line> set_lines(LineAddr key) {
    return {&lines_[(key.value() & (sets_ - 1)) * ways_], ways_};
  }
  std::vector<Line>& lines() { return lines_; }

 private:
  unsigned sets_;
  unsigned ways_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

/// (address, payload, LRU stamp) of every valid line, in visit order.
using ValidLines = std::vector<std::tuple<LineAddr, int, std::uint64_t>>;

ValidLines valid_lines(const Array& a) {
  ValidLines out;
  a.for_each_valid([&](const Array::Line& l) {
    out.emplace_back(a.address_of(l), l.payload.value, l.lru_stamp);
  });
  return out;
}

ValidLines valid_lines(DenseArray& d) {
  ValidLines out;
  for (const DenseArray::Line& l : d.lines())
    if (l.valid) out.emplace_back(d.address_of(l), l.payload.value, l.lru_stamp);
  return out;
}

TEST(CacheArray, MatchesADenseArrayUnderRandomOperations) {
  constexpr unsigned kSets = 64, kWays = 4, kTags = 8;
  // Accesses reach only the first 48 sets, so 16 stay untouched; lookups
  // probe all 64.
  constexpr unsigned kAccessedSets = 48;
  Array sparse(kSets, kWays);
  DenseArray dense(kSets, kWays);
  Rng rng(0x5EED);
  std::set<unsigned> accessed;
  for (int op = 0; op < 20'000; ++op) {
    SCOPED_TRACE(op);
    const auto any_key = LineAddr{rng.next_below(kSets * kTags)};
    const auto accessed_key =
        LineAddr{rng.next_below(kTags) * kSets + rng.next_below(kAccessedSets)};
    switch (rng.next_below(4)) {
      case 0: {  // lookup, then touch on a hit
        Array::Line* s = sparse.find(any_key);
        DenseArray::Line* d = dense.find(any_key);
        ASSERT_EQ(s != nullptr, d != nullptr);
        if (s == nullptr) break;
        EXPECT_EQ(sparse.address_of(*s), dense.address_of(*d));
        EXPECT_EQ(s->payload.value, d->payload.value);
        sparse.touch(*s);
        dense.touch(*d);
        break;
      }
      case 1:
      case 2: {  // miss path: victimize, evict, fill, write the payload
        if (sparse.find(accessed_key) != nullptr) break;
        accessed.insert(sparse.set_of(accessed_key));
        Array::Line* s = sparse.victim(accessed_key);
        DenseArray::Line* d = dense.victim(accessed_key);
        ASSERT_EQ(s->valid, d->valid);
        EXPECT_EQ(s - sparse.set_lines(accessed_key).data(),
                  d - dense.set_lines(accessed_key).data());
        if (s->valid) {
          EXPECT_EQ(sparse.address_of(*s), dense.address_of(*d));
          sparse.invalidate(*s);
          d->valid = false;
        }
        sparse.fill(*s, accessed_key);
        dense.fill(*d, accessed_key);
        const int value = static_cast<int>(rng.next_below(1000));
        s->payload.value = value;
        d->payload.value = value;
        break;
      }
      default: {  // invalidate
        Array::Line* s = sparse.find(any_key);
        DenseArray::Line* d = dense.find(any_key);
        ASSERT_EQ(s != nullptr, d != nullptr);
        if (s == nullptr) break;
        sparse.invalidate(*s);
        d->valid = false;
        break;
      }
    }
    ASSERT_EQ(valid_lines(sparse), valid_lines(dense));
  }
  EXPECT_EQ(sparse.touched_sets(), accessed.size());
  EXPECT_LE(sparse.touched_sets(), kAccessedSets);
}

TEST(CacheArray, LinePointersSurviveBuildingEveryOtherSet) {
  Array a(64, 4);
  const LineAddr held{0x1C5};  // set 5
  Array::Line* l = a.victim(held);
  a.fill(*l, held);
  l->payload.value = 42;
  for (std::uint64_t set = 0; set < 64; ++set) {
    if (set == 5) continue;
    a.fill(*a.victim(LineAddr{set}), LineAddr{set});
  }
  EXPECT_EQ(a.touched_sets(), 64u);
  EXPECT_EQ(a.find(held), l);
  EXPECT_TRUE(l->valid);
  EXPECT_EQ(l->payload.value, 42);
  EXPECT_EQ(a.address_of(*l), held);
}

TEST(CacheArray, FindBuildsNoSet) {
  Array a(64, 4);
  const Array& c = a;
  for (std::uint64_t key = 0; key < 64 * 8; ++key) {
    EXPECT_EQ(a.find(LineAddr{key}), nullptr);
    EXPECT_EQ(c.find(LineAddr{key}), nullptr);
  }
  EXPECT_EQ(a.touched_sets(), 0u);
  a.fill(*a.victim(LineAddr{3}), LineAddr{3});
  for (std::uint64_t key = 0; key < 64 * 8; ++key) {
    static_cast<void>(a.find(LineAddr{key}));
    static_cast<void>(c.find(LineAddr{key}));
  }
  EXPECT_EQ(a.touched_sets(), 1u);
}

TEST(CacheArray, SnapshotRestoresSetsBuiltOutOfSetOrder) {
  Array saved(16, 2);
  // Sets built in the order 15, 11, 3, 9, 7; the third line of 2-way set 3
  // evicts 0x13, and set 7 is built but holds nothing.
  const std::uint64_t filled[] = {0x2F, 0x1B, 0x13, 0x09, 0x03, 0x23};
  for (const std::uint64_t key : filled) {
    Array::Line* l = saved.victim(LineAddr{key});
    saved.fill(*l, LineAddr{key});
    l->payload.value = static_cast<int>(key);
  }
  static_cast<void>(saved.set_lines(LineAddr{0x07}));  // built, holds nothing
  std::stringstream buf;
  SnapshotWriter w(buf);
  w.field(saved);

  Array restored(16, 2);
  SnapshotReader r(buf);
  r.field(restored);
  EXPECT_EQ(restored.touched_sets(), saved.touched_sets());
  EXPECT_EQ(valid_lines(restored), valid_lines(saved));
  for (std::uint64_t key = 0; key < 0x40; ++key) {
    const Array::Line* s = saved.find(LineAddr{key});
    const Array::Line* l = restored.find(LineAddr{key});
    ASSERT_EQ(s != nullptr, l != nullptr) << key;
    if (s != nullptr) {
      EXPECT_EQ(restored.address_of(*l), LineAddr{key});
      EXPECT_EQ(l->payload.value, s->payload.value);
    }
  }
  // Both go on identically: the same victims (an LRU eviction in set 3),
  // and the next set built (set 12) lands after the restored blocks.
  const std::uint64_t next[] = {0x33, 0x0C, 0x1C};
  for (const std::uint64_t key : next) {
    Array::Line* s = saved.victim(LineAddr{key});
    Array::Line* l = restored.victim(LineAddr{key});
    EXPECT_EQ(s - saved.set_lines(LineAddr{key}).data(),
              l - restored.set_lines(LineAddr{key}).data());
    saved.fill(*s, LineAddr{key});
    restored.fill(*l, LineAddr{key});
  }
  EXPECT_EQ(valid_lines(restored), valid_lines(saved));
  EXPECT_EQ(restored.touched_sets(), saved.touched_sets());
}

}  // namespace
}  // namespace tcmp::protocol

// Unit tests for the common kernel: RNG determinism, stats, histograms,
// tables and unit helpers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <type_traits>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace tcmp {
namespace {

// ===== Compile-time probe suite for the strong-type layer. ================
//
// Legal operations are pinned with static_assert; illegal operations are
// proved ill-formed via requires-expressions (the negative-compilation
// probes the acceptance criteria ask for: if someone adds the forbidden
// overload, the probe flips to true and the static_assert fails).

template <typename A, typename B>
concept Addable = requires(A a, B b) { a + b; };
template <typename A, typename B>
concept Subtractable = requires(A a, B b) { a - b; };
template <typename A, typename B>
concept Multipliable = requires(A a, B b) { a * b; };

// Cycle: additive clock arithmetic only.
static_assert(Addable<Cycle, Cycle>);
static_assert(Subtractable<Cycle, Cycle>);
static_assert(Addable<Cycle, std::uint64_t>);  // `now + 1` delta form
static_assert(!Multipliable<Cycle, Cycle>);    // time*time is meaningless
static_assert(Cycle{3} + Cycle{4} == Cycle{7});
static_assert(Cycle{10} % Cycle{4} == 2);
static_assert(Cycle{1} < kNeverCycle);

// Addresses admit no arithmetic at all, and the byte/line granularities are
// distinct types whose only bridges are line_of / byte_of_line.
static_assert(!Addable<LineAddr, LineAddr>);
static_assert(!Addable<ByteAddr, ByteAddr>);
static_assert(!Multipliable<LineAddr, std::uint64_t>);
static_assert(!std::is_convertible_v<ByteAddr, LineAddr>);
static_assert(!std::is_convertible_v<LineAddr, ByteAddr>);
static_assert(!std::is_constructible_v<LineAddr, ByteAddr>);

// A ByteAddr cannot be passed where a LineAddr is expected.
constexpr LineAddr takes_line(LineAddr l) { return l; }
template <typename T>
concept UsableAsLineAddr = requires(T t) { takes_line(t); };
static_assert(UsableAsLineAddr<LineAddr>);
static_assert(!UsableAsLineAddr<ByteAddr>);
static_assert(!UsableAsLineAddr<std::uint64_t>);  // no implicit raw-int entry
static_assert(takes_line(line_of(ByteAddr{0x12345678})) == LineAddr{0x48D159});

// Semi-strong index types: explicit in, implicit out.
static_assert(!std::is_convertible_v<int, NodeId>);
static_assert(std::is_convertible_v<NodeId, std::uint16_t>);
static_assert(NodeId{7} == 7u);
static_assert(Bytes{67} == 67u);

// Quantity dimensional algebra: same-dimension sums only; products and
// quotients recombine exponents at compile time.
static_assert(Addable<units::Joules, units::Joules>);
static_assert(!Addable<units::Joules, units::Watts>);   // J + W ill-formed
static_assert(!Addable<units::Seconds, units::Meters>);
static_assert(std::is_same_v<decltype(units::Joules{1.0} / units::Seconds{1.0}),
                             units::Watts>);
static_assert(std::is_same_v<decltype(units::Watts{1.0} * units::Seconds{1.0}),
                             units::Joules>);
static_assert(std::is_same_v<decltype(units::Meters{1.0} * units::Meters{1.0}),
                             units::SquareMeters>);
static_assert(std::is_same_v<decltype(units::Ohms{1.0} * units::Farads{1.0}),
                             units::Seconds>);  // RC time constant
static_assert(std::is_same_v<decltype(units::Seconds{1.0} / units::Meters{1.0}),
                             units::SecondsPerMeter>);
// A fully cancelled dimension collapses to plain double (ratios read naturally).
static_assert(std::is_same_v<decltype(units::Joules{2.0} / units::Joules{1.0}),
                             double>);
static_assert(units::Joules{6.0} / units::Seconds{2.0} == units::watts(3.0));

TEST(Types, LineAddressing) {
  EXPECT_EQ(line_of(ByteAddr{0}), LineAddr{0});
  EXPECT_EQ(line_of(ByteAddr{63}), LineAddr{0});
  EXPECT_EQ(line_of(ByteAddr{64}), LineAddr{1});
  EXPECT_EQ(byte_of_line(line_of(ByteAddr{0x12345678})), ByteAddr{0x12345640});
  EXPECT_EQ(byte_of_line(LineAddr{5}), ByteAddr{320});
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::ps(250.0).value(), 250e-12);
  EXPECT_DOUBLE_EQ(units::to_ps(units::ps(130.0)), 130.0);
  EXPECT_DOUBLE_EQ(units::mm(5.0).value(), 5e-3);
  EXPECT_DOUBLE_EQ(units::to_mm2(units::SquareMeters{1e-6}), 1.0);
  EXPECT_DOUBLE_EQ(units::to_pj(units::pj(3.5)), 3.5);
}

TEST(Units, RoundTrips) {
  // Suffix-constructor -> SI storage -> accessor must return the input
  // exactly for values representable without rounding.
  EXPECT_DOUBLE_EQ(units::to_ps(units::ps(512.0)), 512.0);
  EXPECT_DOUBLE_EQ(units::to_ns(units::ns(0.25)), 0.25);
  EXPECT_DOUBLE_EQ(units::to_pj(units::pj(0.375)), 0.375);
  EXPECT_DOUBLE_EQ(units::to_mm(units::mm(5.0)), 5.0);
  EXPECT_DOUBLE_EQ(units::to_um(units::um(128.0)), 128.0);
  EXPECT_DOUBLE_EQ(units::to_mw(units::mw(2.5)), 2.5);
  // Cross-scale consistency: 1 ns == 1000 ps, 1 mm == 1000 um.
  EXPECT_DOUBLE_EQ(units::to_ps(units::ns(1.0)), 1000.0);
  EXPECT_DOUBLE_EQ(units::to_um(units::mm(1.0)), 1000.0);
  EXPECT_EQ(units::ns(1.0), units::ps(1000.0));
  // Dimensional identities evaluated at runtime.
  EXPECT_EQ(units::ghz(4.0).value(), 4e9);
  EXPECT_DOUBLE_EQ((1.0 / units::ghz(4.0)).value(), 250e-12);  // period
  EXPECT_EQ(units::mm(2.0) * units::mm(3.0), units::mm2(6.0));
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusiveBounds) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, GeometricMeanApproximatesInverseP) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 5000; ++i) sum += rng.geometric(0.2);
  EXPECT_NEAR(sum / 5000.0, 5.0, 0.4);
}

TEST(ScalarStat, BasicMoments) {
  ScalarStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(ScalarStat, EmptyIsZero) {
  ScalarStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, BinningAndOverflow) {
  Histogram h(4, 10);  // bins: [0,10) [10,20) [20,30) [30,inf)
  h.add(0);
  h.add(9);
  h.add(10);
  h.add(25);
  h.add(1000);
  EXPECT_EQ(h.bins()[0], 2u);
  EXPECT_EQ(h.bins()[1], 1u);
  EXPECT_EQ(h.bins()[2], 1u);
  EXPECT_EQ(h.bins()[3], 1u);
  EXPECT_EQ(h.scalar().count(), 5u);
}

TEST(Histogram, QuantileMonotone) {
  Histogram h(64, 1);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.add(rng.next_below(50));
  const double q10 = h.quantile(0.10);
  const double q50 = h.quantile(0.50);
  const double q90 = h.quantile(0.90);
  EXPECT_LE(q10, q50);
  EXPECT_LE(q50, q90);
  EXPECT_NEAR(q50, 25.0, 3.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram h(4, 10);
  // Empty: every quantile is 0.
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);

  // Single sample: q=0 is the distribution's lower bound; every positive
  // quantile lands inside the sample's bin.
  h.add(15);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  for (double q : {0.5, 1.0}) {
    EXPECT_GE(h.quantile(q), 10.0);
    EXPECT_LE(h.quantile(q), 20.0);
  }

  // Samples past the last bin edge land in the overflow bin; quantiles are
  // clamped to the histogram's total span.
  Histogram ov(4, 10);
  for (int i = 0; i < 100; ++i) ov.add(1'000'000);
  EXPECT_EQ(ov.bins().back(), 100u);
  EXPECT_GE(ov.quantile(0.5), 30.0);
  EXPECT_LE(ov.quantile(1.0), 40.0);

  // q=0 is a lower bound of the distribution, q=1 an upper bound.
  Histogram u(8, 1);
  for (std::uint64_t v = 0; v < 8; ++v) u.add(v);
  EXPECT_LE(u.quantile(0.0), u.quantile(1.0));
  EXPECT_EQ(u.quantile(1.0), 8.0);
}

TEST(Histogram, ClearValuesKeepsGeometry) {
  Histogram h(4, 10);
  h.add(5);
  h.add(35);
  h.clear_values();
  EXPECT_EQ(h.scalar().count(), 0u);
  EXPECT_EQ(h.bins().size(), 4u);
  EXPECT_EQ(h.bin_width(), 10u);
  for (auto b : h.bins()) EXPECT_EQ(b, 0u);
  h.add(15);
  EXPECT_EQ(h.bins()[1], 1u);
}

TEST(StatRegistry, CountersAndPrefixSums) {
  StatRegistry reg;
  reg.counter("noc.vl.flits") += 10;
  reg.counter("noc.b.flits") += 5;
  reg.counter("protocol.gets") += 7;
  EXPECT_EQ(reg.counter_value("noc.vl.flits"), 10u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_EQ(reg.sum_prefix("noc."), 15u);
  EXPECT_EQ(reg.sum_prefix("protocol."), 7u);
  EXPECT_EQ(reg.sum_prefix(""), 22u);
  reg.reset();
  EXPECT_EQ(reg.sum_prefix(""), 0u);
}

TEST(StatRegistry, ZeroAllPreservesPointers) {
  StatRegistry reg;
  std::uint64_t* counter = &reg.counter("a.b");
  ScalarStat* scalar = &reg.scalar("c.d");
  *counter = 42;
  scalar->add(3.0);
  reg.zero_all();
  // Same storage, zeroed values: cached pointers stay valid across the
  // warmup/measurement boundary.
  EXPECT_EQ(counter, &reg.counter("a.b"));
  EXPECT_EQ(*counter, 0u);
  EXPECT_EQ(scalar->count(), 0u);
  *counter = 7;
  EXPECT_EQ(reg.counter_value("a.b"), 7u);
}

TEST(StatRegistry, HistogramsRegisterAndSurviveZeroAll) {
  StatRegistry reg;
  Histogram* h = &reg.histogram("noc.lat", 8, 4);
  // Re-registration with different geometry returns the existing histogram
  // unchanged: first registration wins.
  EXPECT_EQ(h, &reg.histogram("noc.lat", 64, 1));
  EXPECT_EQ(h->bins().size(), 8u);
  EXPECT_EQ(h->bin_width(), 4u);

  h->add(6);
  h->add(9);
  EXPECT_EQ(reg.find_histogram("noc.lat"), h);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);

  reg.zero_all();
  // Cached pointer still valid, counts zeroed, geometry preserved.
  EXPECT_EQ(h, &reg.histogram("noc.lat"));
  EXPECT_EQ(h->scalar().count(), 0u);
  EXPECT_EQ(h->bins().size(), 8u);
  EXPECT_EQ(h->bin_width(), 4u);
  h->add(5);
  EXPECT_EQ(h->bins()[1], 1u);
  EXPECT_EQ(reg.histograms().size(), 1u);
}

TEST(StatRegistry, SumPrefixStopsAtFirstNonMatch) {
  // sum_prefix walks [lower_bound(prefix), first non-prefix key) — keys that
  // sort before the prefix or after the prefix range must not contribute.
  StatRegistry reg;
  reg.counter("a.before") += 100;
  reg.counter("noc.a") += 1;
  reg.counter("noc.z") += 2;
  reg.counter("noc2.other") += 400;  // "noc2" sorts after every "noc." key
  reg.counter("zz.after") += 800;
  EXPECT_EQ(reg.sum_prefix("noc."), 3u);
  EXPECT_EQ(reg.sum_prefix("noc"), 403u);  // bare prefix also matches "noc2"
  EXPECT_EQ(reg.sum_prefix("zzz"), 0u);    // past the last key
  EXPECT_EQ(reg.sum_prefix(""), 1303u);    // empty prefix = everything
}

TEST(StatRegistry, HandlesSurviveZeroAll) {
  StatRegistry reg;
  CounterRef c = reg.counter_ref("dir.hits");
  ScalarRef s = reg.scalar_ref("noc.util");
  HistogramRef h = reg.histogram_ref("noc.lat", 8, 4);
  EXPECT_TRUE(c.valid() && s.valid() && h.valid());
  ++c;
  c += 4;
  s.add(0.5);
  h.add(6);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.counter_value("dir.hits"), 5u);

  reg.zero_all();  // the warmup/measurement boundary

  // Handles still point at live storage: bumps after the boundary land in
  // the (zeroed) registry slots, not in dead memory.
  EXPECT_EQ(c.value(), 0u);
  ++c;
  s.add(2.0);
  h.add(9);
  EXPECT_EQ(reg.counter_value("dir.hits"), 1u);
  EXPECT_EQ(reg.scalars().at("noc.util").count(), 1u);
  EXPECT_EQ(reg.histograms().at("noc.lat").scalar().count(), 1u);
  // Histogram geometry (fixed at first registration) survived too.
  EXPECT_EQ(h.get().bin_width(), 4u);
}

TEST(StatRegistry, HandleAndStringBumpsProduceIdenticalCounterMaps) {
  // The interning sweep must be invisible in the report: drive one registry
  // through string lookups and another through construction-time handles
  // with the same bump sequence, and require byte-equal counter maps.
  const auto bump_strings = [](StatRegistry& reg) {
    for (int i = 0; i < 10; ++i) {
      ++reg.counter("l1.accesses");
      if (i % 3 == 0) ++reg.counter("l1.read_misses");
      reg.counter("noc.bytes") += 8;
    }
  };
  const auto bump_handles = [](StatRegistry& reg) {
    CounterRef acc = reg.counter_ref("l1.accesses");
    CounterRef miss = reg.counter_ref("l1.read_misses");
    CounterRef bytes = reg.counter_ref("noc.bytes");
    for (int i = 0; i < 10; ++i) {
      ++acc;
      if (i % 3 == 0) ++miss;
      bytes += 8;
    }
  };
  StatRegistry by_string, by_handle;
  bump_strings(by_string);
  bump_handles(by_handle);
  EXPECT_EQ(by_string.counters(), by_handle.counters());
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"Scheme", "Coverage"});
  t.add_row({"DBRC-4", TextTable::pct(0.981)});
  t.add_row({"Stride", "80.0%"});
  const std::string out = t.str();
  EXPECT_NE(out.find("Scheme"), std::string::npos);
  EXPECT_NE(out.find("98.1%"), std::string::npos);
  EXPECT_NE(out.find("DBRC-4"), std::string::npos);
}

TEST(TextTable, FmtPrecision) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(10.0, 0), "10");
  EXPECT_EQ(TextTable::pct(0.5, 0), "50%");
}

TEST(Env, FallbacksWhenUnset) {
  EXPECT_EQ(env_double("TCMP_SURELY_UNSET_VAR", 1.5), 1.5);
}

TEST(Env, ParsesWholeValuesOnly) {
  const char* const var = "TCMP_ENV_TEST_VAR";
  const auto read = [var](const char* value) {
    ::setenv(var, value, 1);
    return env_double(var, 1.5);
  };
  EXPECT_EQ(read("0.25"), 0.25);
  EXPECT_EQ(read(""), 1.5);  // empty reads as unset
  EXPECT_EQ(read("0.01x"), std::nullopt);
  EXPECT_EQ(read("abc"), std::nullopt);
  EXPECT_EQ(read("1e999"), std::nullopt);
  ::unsetenv(var);
}

}  // namespace
}  // namespace tcmp

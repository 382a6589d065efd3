// Deterministic reproductions of every unordered-network race documented in
// docs/PROTOCOL.md, each constructed with exact per-message-type delays so
// the problematic interleaving happens on every run (the statistical stress
// suite in test_protocol.cpp covers the combinations).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "protocol_test_fabric.hpp"

namespace tcmp::protocol {
namespace {

/// Delay function: slow down the given message types, default for the rest.
TestFabric::DelayFn slow(std::initializer_list<MsgType> types, Cycle delay) {
  std::vector<MsgType> v(types);
  return [v, delay](const CoherenceMsg& msg) -> std::optional<Cycle> {
    for (MsgType t : v) {
      if (msg.type == t) return delay;
    }
    return std::nullopt;
  };
}

// Race 1: an Inv overtakes the Data reply of a re-fetch whose requester the
// home still lists as a sharer. The fill must be used once and dropped
// (IS_D_I), never installed as a stale S copy.
TEST(ProtocolRaces, InvOvertakesDataReply) {
  TestFabric::Options opt;
  opt.nodes = 4;
  opt.l1_sets = 1;
  opt.l1_ways = 1;  // single-line L1: trivial silent S eviction
  TestFabric f(opt);
  const LineAddr x{0x10}, y{0x14};  // same L1 set (set 0), same home? x%4=0,y%4=0
  ASSERT_EQ(f.home_of(x), f.home_of(y));

  f.access(0, x, false);
  f.access(1, x, false);  // both shared now
  f.run_until_quiescent();
  ASSERT_EQ(f.l1(0).state_of(x), L1State::kS);

  // Core 0 silently evicts x (reads y into the single-line set)...
  f.access(0, y, false);
  f.run_until_quiescent();
  ASSERT_EQ(f.l1(0).state_of(x), std::nullopt);

  // ...then re-fetches x with a slow Data reply, while core 2 writes x,
  // generating a fast Inv to core 0 (still a listed sharer).
  f.set_delay_fn(slow({MsgType::kData}, Cycle{60}));
  f.access_async(0, x, false);
  for (int i = 0; i < 12; ++i) f.step();  // GetS reaches home, Data in flight
  f.access_async(2, x, true);
  f.run_until_quiescent();
  f.set_delay_fn(nullptr);

  // The fill was consumed exactly once and dropped: core 0 does not hold x.
  EXPECT_GE(f.stats().counter_value("l1.use_once_fills"), 1u);
  EXPECT_EQ(f.l1(0).state_of(x), std::nullopt);
  EXPECT_EQ(f.l1(2).state_of(x), L1State::kM);
  f.check_invariants({x, y});
}

// Races 2+3: a forward crosses the owner's writeback. The home must hold the
// PutAck until the owner's revision resolves the forward (2), and a Put that
// arrives after resolution is a stale put (3).
TEST(ProtocolRaces, ForwardCrossesWriteback) {
  TestFabric::Options opt;
  opt.nodes = 4;
  opt.l1_sets = 1;
  opt.l1_ways = 1;
  TestFabric f(opt);
  const LineAddr x{0x10}, y{0x14};

  f.access(0, x, true);  // core 0 owns x in M
  f.run_until_quiescent();

  // Core 0 evicts x with a very slow PutM (the eviction happens when y's
  // fill installs, so run the y access to completion); core 1 then reads x,
  // so the home forwards to core 0 long before the PutM arrives.
  f.set_delay_fn(slow({MsgType::kPutM}, Cycle{80}));
  f.access(0, y, true);  // completes; x's PutM is now in flight
  f.access_async(1, x, false);
  f.run_until_quiescent();
  f.set_delay_fn(nullptr);

  // The forward was serviced from the eviction buffer; the ack was held.
  EXPECT_GE(f.stats().counter_value("l1.forwards_serviced_in_evict"), 1u);
  EXPECT_GE(f.stats().counter_value("dir.held_put_acks") +
                f.stats().counter_value("dir.stale_puts"),
            1u);
  EXPECT_EQ(f.l1(1).state_of(x), L1State::kS);  // got the forwarded data
  f.check_invariants({x, y});
}

// Race 4: a writeback crosses an L2-eviction Recall.
TEST(ProtocolRaces, WritebackCrossesRecall) {
  TestFabric::Options opt;
  opt.nodes = 2;
  opt.l1_sets = 1;
  opt.l1_ways = 1;
  opt.l2_sets = 1;
  opt.l2_ways = 1;  // one-line L2 slice: any new line recalls the old one
  TestFabric f(opt);
  const LineAddr a{0x10}, b{0x20}, c{0x31};  // a,b home 0; c home 1
  ASSERT_EQ(f.home_of(a), f.home_of(b));

  f.access(0, a, true);  // core 0 owns a (M); home 0's slice holds only a
  f.run_until_quiescent();

  // Core 0 starts fetching c (home 1, memory-latency fill) — its install
  // will evict a and emit a slow PutM. Core 1 fetches b (home 0) slightly
  // later, so home 0's fill-time recall of a reaches core 0 inside the
  // window where a sits in its eviction buffer with the PutM in flight.
  f.set_delay_fn(slow({MsgType::kPutM}, Cycle{80}));
  f.access_async(0, c, false);
  for (int i = 0; i < 20; ++i) f.step();
  f.access_async(1, b, false);
  f.run_until_quiescent();
  f.set_delay_fn(nullptr);

  EXPECT_GE(f.stats().counter_value("dir.recalls"), 1u);
  // The crossing resolved through one of the two legal paths.
  EXPECT_GE(f.stats().counter_value("dir.held_put_acks") +
                f.stats().counter_value("dir.stale_puts") +
                f.stats().counter_value("dir.dropped_revisions"),
            1u);
  EXPECT_EQ(f.l1(1).state_of(b), L1State::kE);
  f.check_invariants({a, b, c});
}

// Race 5: the home forwards to a requester whose own exclusive grant is
// still in flight; the forward parks in the MSHR and is serviced post-fill.
TEST(ProtocolRaces, ForwardToPendingOwner) {
  TestFabric::Options opt;
  opt.nodes = 4;
  TestFabric f(opt);
  const LineAddr x{0x10};

  // Slow the DataExcl grant so core 1's GetX is processed (and forwarded to
  // core 0) before core 0's fill completes.
  f.set_delay_fn(slow({MsgType::kDataExcl}, Cycle{50}));
  f.access_async(0, x, true);
  for (int i = 0; i < 12; ++i) f.step();  // GetX processed, grant in flight
  f.access_async(1, x, true);
  f.run_until_quiescent();
  f.set_delay_fn(nullptr);

  // Ownership chained: core 0 had it momentarily, core 1 holds it now.
  EXPECT_EQ(f.l1(0).state_of(x), std::nullopt);
  EXPECT_EQ(f.l1(1).state_of(x), L1State::kM);
  EXPECT_EQ(f.dir(f.home_of(x)).owner_of(x), 1);
  f.check_invariants({x});
}

// Race 6: an Upgrade crosses the Inv from a competing writer. The loser's
// upgrade converts to a full-data request and still completes.
TEST(ProtocolRaces, UpgradeLosesToCompetingWrite) {
  TestFabric::Options opt;
  opt.nodes = 4;
  TestFabric f(opt);
  const LineAddr x{0x10};
  f.access(0, x, false);
  f.access(1, x, false);  // both S
  f.run_until_quiescent();

  // Core 0's Upgrade crawls; core 1's GetX sprints: home processes the GetX
  // first and invalidates core 0 while its Upgrade is still in flight.
  f.set_delay_fn(slow({MsgType::kUpgrade}, Cycle{50}));
  f.access_async(0, x, true);
  f.access_async(1, x, true);
  f.run_until_quiescent();
  f.set_delay_fn(nullptr);

  // Both cores were sharers, so both sent (slow) Upgrades; the home
  // serializes them in arrival order: core 0's wins (UpgradeAck + Inv to
  // core 1, converting core 1's pending upgrade), then core 1's converted
  // request is forwarded to core 0 which yields. Both writes committed:
  // the final owner's version advanced twice.
  EXPECT_EQ(f.l1(0).state_of(x), std::nullopt);
  EXPECT_EQ(f.l1(1).state_of(x), L1State::kM);
  EXPECT_GE(f.l1(1).version_of(x), 2u);
  f.check_invariants({x});
}

// Race 7: Inv delivered to a silently-evicted sharer must still be acked.
TEST(ProtocolRaces, StaleSharerInvalidation) {
  TestFabric::Options opt;
  opt.nodes = 4;
  opt.l1_sets = 1;
  opt.l1_ways = 1;
  TestFabric f(opt);
  const LineAddr x{0x10}, y{0x14};
  f.access(0, x, false);
  f.access(1, x, false);
  f.run_until_quiescent();
  f.access(0, y, false);  // silently evicts core 0's S copy of x
  f.run_until_quiescent();

  f.access(2, x, true);  // Invs go to cores 0 (stale) and 1 (real)
  f.run_until_quiescent();
  EXPECT_GE(f.stats().counter_value("l1.stale_invs"), 1u);
  EXPECT_EQ(f.l1(2).state_of(x), L1State::kM);
  f.check_invariants({x, y});
}

// Deferred miss: re-requesting a line whose writeback is still in flight.
TEST(ProtocolRaces, MissDeferredBehindWritebackSlowAck) {
  TestFabric::Options opt;
  opt.nodes = 4;
  opt.l1_sets = 1;
  opt.l1_ways = 1;
  TestFabric f(opt);
  const LineAddr x{0x10}, y{0x14};
  f.access(0, x, true);
  f.run_until_quiescent();

  f.set_delay_fn(slow({MsgType::kPutAck}, Cycle{60}));
  f.access(0, y, false);        // installs y, emits x's PutM; slow ack keeps
                                // the eviction buffer alive
  f.access_async(0, x, false);  // must defer until the PutAck drains
  f.run_until_quiescent();
  f.set_delay_fn(nullptr);

  EXPECT_GE(f.stats().counter_value("l1.deferred_misses"), 1u);
  EXPECT_EQ(f.l1(0).state_of(x), L1State::kE);  // re-fetched cleanly
  f.check_invariants({x, y});
}

// Requests to a busy line queue FIFO at the home and drain in order.
TEST(ProtocolRaces, RequestsQueueOnBusyLine) {
  TestFabric::Options opt;
  opt.nodes = 4;
  TestFabric f(opt);
  const LineAddr x{0x10};
  f.access(0, x, true);  // core 0 owns x (M)
  f.run_until_quiescent();

  // Slow revisions keep the home busy while more requests pile up.
  f.set_delay_fn(slow({MsgType::kRevision, MsgType::kAckRevision}, Cycle{40}));
  f.access_async(1, x, false);  // FwdGetS -> busyShared (slow revision)
  for (int i = 0; i < 10; ++i) f.step();
  f.access_async(2, x, false);  // must queue at the home
  f.access_async(3, x, true);   // and this one behind it
  f.run_until_quiescent();
  f.set_delay_fn(nullptr);

  EXPECT_GE(f.stats().counter_value("dir.queued_on_busy"), 1u);
  // FIFO drain: core 3's write was last, so it owns the line at the end.
  EXPECT_EQ(f.l1(3).state_of(x), L1State::kM);
  EXPECT_EQ(f.dir(f.home_of(x)).owner_of(x), 3);
  f.check_invariants({x});
}

// Parked requests live in one table per home slice, a FIFO per line. Three
// requests park on busy line x and one on busy line y at the same home.
// When x resolves, its queue leaves the table and replays in arrival order:
// the GetX is served, the GetS behind it makes x busy again, and the last
// GetS parks anew in a fresh queue, served when x resolves again. y's queue
// is untouched throughout, and the table is empty once the home is
// quiescent.
TEST(ProtocolRaces, ParkedRequestsDrainInArrivalOrderPerLine) {
  TestFabric::Options opt;
  opt.nodes = 8;
  TestFabric f(opt);
  const LineAddr x{0x10}, y{0x18};  // both homed at tile 0
  const NodeId home = f.home_of(x);
  ASSERT_EQ(home, f.home_of(y));
  Directory& dir = f.dir(home);
  f.access(1, x, true);  // core 1 owns x (M)
  f.access(5, y, true);  // core 5 owns y (M)
  f.run_until_quiescent();

  // The requester of every grant or forward the home sends, per line, in
  // send order (tile 0 never owns x or y, so its L1 sends none of these).
  std::map<std::uint64_t, std::vector<unsigned>> served;
  f.set_delay_fn([&](const CoherenceMsg& msg) -> std::optional<Cycle> {
    if (msg.src == home &&
        (msg.type == MsgType::kData || msg.type == MsgType::kDataExcl ||
         msg.type == MsgType::kUpgradeAck || msg.type == MsgType::kFwdGetS ||
         msg.type == MsgType::kFwdGetX)) {
      served[msg.line.value()].push_back(msg.requester);
    }
    // Slow revisions keep both lines busy; y's outlasts everything on x.
    if (msg.type == MsgType::kRevision || msg.type == MsgType::kAckRevision)
      return msg.line == y ? Cycle{600} : Cycle{60};
    return std::nullopt;
  });
  const auto step_for = [&f](unsigned cycles) {
    for (unsigned i = 0; i < cycles; ++i) f.step();
  };
  f.access_async(2, x, false);  // FwdGetS to core 1: x busy
  f.access_async(6, y, false);  // FwdGetS to core 5: y busy
  step_for(15);
  f.access_async(3, x, true);  // parks on x
  step_for(5);
  f.access_async(4, x, false);  // parks on x
  step_for(5);
  f.access_async(0, x, false);  // parks on x
  step_for(5);
  f.access_async(7, y, false);  // parks on y
  step_for(15);
  ASSERT_EQ(dir.dir_state_of(x), DirState::kBusyShared);
  EXPECT_EQ(dir.parked_on(x), 3u);
  EXPECT_EQ(dir.parked_on(y), 1u);
  EXPECT_EQ(dir.parked_lines(), 2u);
  EXPECT_EQ(dir.queued_msgs(), 4u);

  // x resolves: core 3's GetX is served, core 4's GetS forwards to the new
  // owner (x busy again) and core 0's GetS parks in a fresh queue.
  while (dir.parked_on(x) == 3) {
    ASSERT_LT(f.now(), Cycle{5000}) << "x never resolved";
    f.step();
  }
  EXPECT_EQ(dir.parked_on(x), 1u);
  EXPECT_EQ(dir.dir_state_of(x), DirState::kBusyShared);
  EXPECT_EQ(served[x.value()], (std::vector<unsigned>{2, 3, 4}));
  EXPECT_EQ(f.stats().counter_value("dir.queued_on_busy"), 5u);

  // x resolves again and serves core 0; y has not moved.
  while (dir.parked_on(x) == 1) {
    ASSERT_LT(f.now(), Cycle{5000}) << "x never resolved again";
    f.step();
  }
  EXPECT_EQ(served[x.value()], (std::vector<unsigned>{2, 3, 4, 0}));
  EXPECT_EQ(dir.dir_state_of(y), DirState::kBusyShared);
  EXPECT_EQ(dir.parked_on(y), 1u);
  EXPECT_EQ(dir.parked_lines(), 1u);
  EXPECT_EQ(served[y.value()], (std::vector<unsigned>{6}));

  f.run_until_quiescent();
  f.set_delay_fn(nullptr);
  EXPECT_EQ(served[y.value()], (std::vector<unsigned>{6, 7}));
  EXPECT_EQ(dir.parked_lines(), 0u);
  EXPECT_EQ(dir.queued_msgs(), 0u);
  EXPECT_EQ(f.l1(0).state_of(x), L1State::kS);
  EXPECT_EQ(f.l1(7).state_of(y), L1State::kS);
  f.check_invariants({x, y});
}

// A line's version survives a full migration chain: writes at three
// different owners accumulate monotonically through forwards.
TEST(ProtocolRaces, VersionAccumulatesAcrossMigration) {
  TestFabric f;
  const LineAddr x{0x40};
  f.access(0, x, true);  // v1
  f.access(0, x, true);  // v2 (hit)
  f.access(1, x, true);  // migrate: FwdGetX, then write -> v3
  f.access(2, x, true);  // migrate again -> v4
  f.run_until_quiescent();
  EXPECT_EQ(f.l1(2).version_of(x), 4u);
  // Home's copy lags (AckRevision carries no data) but never exceeds.
  EXPECT_LE(f.dir(f.home_of(x)).version_of(x), 4u);
  f.check_invariants({x});
}

// A dirty line's version reaches the home through the FwdGetS revision and
// survives an L2 recall + refetch through the memory-version map.
TEST(ProtocolRaces, VersionSurvivesRecallToMemory) {
  TestFabric::Options opt;
  opt.nodes = 2;
  opt.l2_sets = 1;
  opt.l2_ways = 1;
  opt.l1_sets = 64;
  TestFabric f(opt);
  const LineAddr a{0x10}, b{0x20};
  f.access(0, a, true);   // v1 at core 0
  f.access(1, a, false);  // FwdGetS: revision carries v1 to the home
  f.run_until_quiescent();
  EXPECT_EQ(f.dir(0).version_of(a), 1u);

  f.access(0, b, false);  // evicts a from the one-line L2 (writeback to mem)
  f.run_until_quiescent();
  EXPECT_EQ(f.dir(0).dir_state_of(a), std::nullopt);

  f.access(1, a, false);  // refetch from memory: version restored
  f.run_until_quiescent();
  EXPECT_EQ(f.dir(0).version_of(a), 1u);
  EXPECT_EQ(f.l1(1).version_of(a), 1u);
  f.check_invariants({a, b});
}

}  // namespace
}  // namespace tcmp::protocol

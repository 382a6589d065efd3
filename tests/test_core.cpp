// Core timing-model tests: issue width, miss blocking, barrier blocking,
// instruction accounting.
#include <gtest/gtest.h>

#include <deque>

#include "common/stats.hpp"
#include "core/core_model.hpp"
#include "protocol/l1_cache.hpp"

namespace tcmp::core {
namespace {

/// Scripted workload for driving a single core.
class ScriptWorkload final : public Workload {
 public:
  explicit ScriptWorkload(std::deque<Op> ops) : ops_(std::move(ops)) {}
  Op next(unsigned) override {
    if (ops_.empty()) return Op::done();
    Op op = ops_.front();
    ops_.pop_front();
    return op;
  }
  [[nodiscard]] std::string name() const override { return "script"; }

 private:
  std::deque<Op> ops_;
};

struct CoreHarness {
  explicit CoreHarness(std::deque<Op> ops)
      : workload(std::move(ops)),
        l1(NodeId{0}, protocol::L1Cache::Config{16, 2}, 16,
           /*reply_partitioning=*/false, &stats,
           [this](protocol::CoherenceMsg msg) { sent.push_back(msg); }),
        core(NodeId{0}, &workload, &l1, &stats) {
    l1.set_fill_callback([this](LineAddr line) { core.on_fill(line); });
    core.set_barrier_handler([this](unsigned, std::uint32_t id) { barrier_id = id; });
  }

  void run(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) core.tick(++now);
  }

  StatRegistry stats;
  ScriptWorkload workload;
  protocol::L1Cache l1;
  Core core;
  std::vector<protocol::CoherenceMsg> sent;
  std::uint32_t barrier_id = 0;
  Cycle now{0};
};

TEST(Core, RetiresTwoComputeInstructionsPerCycle) {
  CoreHarness h({Op::compute(10)});
  h.run(5);
  // Cycle 1 consumes the compute op itself plus one retire slot; 10
  // instructions need ~6 cycles at width 2.
  EXPECT_LT(h.core.instructions(), 10u);
  h.run(3);
  EXPECT_EQ(h.core.instructions(), 10u);
}

TEST(Core, FinishesAfterDone) {
  CoreHarness h({Op::compute(2)});
  h.run(10);
  EXPECT_TRUE(h.core.done());
  h.run(5);  // further ticks are no-ops
  EXPECT_EQ(h.core.instructions(), 2u);
}

TEST(Core, MissBlocksUntilFill) {
  CoreHarness h({Op::load(LineAddr{0x100}), Op::compute(4)});
  h.run(1);
  EXPECT_TRUE(h.core.blocked());
  ASSERT_EQ(h.sent.size(), 1u);  // GetS went out
  EXPECT_EQ(h.sent[0].type, protocol::MsgType::kGetS);
  h.run(10);
  EXPECT_TRUE(h.core.blocked());  // no reply: still stalled
  EXPECT_EQ(h.core.instructions(), 0u);

  // Deliver the fill.
  protocol::CoherenceMsg data;
  data.type = protocol::MsgType::kDataExcl;
  data.dst = NodeId{0};
  data.dst_unit = protocol::Unit::kL1;
  data.line = LineAddr{0x100};
  data.ack_count = 0;
  h.l1.deliver(data);
  EXPECT_FALSE(h.core.blocked());
  EXPECT_EQ(h.core.instructions(), 1u);  // the load retired on fill
  h.run(4);
  EXPECT_TRUE(h.core.done());
  EXPECT_EQ(h.core.instructions(), 5u);
}

TEST(Core, HitsDoNotBlock) {
  CoreHarness h({Op::load(LineAddr{0x40}), Op::load(LineAddr{0x40}),
                 Op::store(LineAddr{0x40}), Op::load(LineAddr{0x40})});
  // First load misses.
  h.run(1);
  protocol::CoherenceMsg data;
  data.type = protocol::MsgType::kDataExcl;
  data.dst = NodeId{0};
  data.dst_unit = protocol::Unit::kL1;
  data.line = LineAddr{0x40};
  h.l1.deliver(data);
  // Remaining 3 accesses are hits (E then silent E->M): 2 per cycle.
  h.run(3);
  EXPECT_TRUE(h.core.done());
  EXPECT_EQ(h.core.instructions(), 4u);
  EXPECT_EQ(h.sent.size(), 1u);  // only the initial GetS
}

TEST(Core, BarrierBlocksUntilRelease) {
  CoreHarness h({Op::compute(1), Op::barrier(7), Op::compute(1)});
  h.run(5);
  EXPECT_TRUE(h.core.blocked());
  EXPECT_EQ(h.barrier_id, 7u);
  h.core.barrier_release();
  h.run(3);
  EXPECT_TRUE(h.core.done());
  EXPECT_EQ(h.core.instructions(), 2u);
}

TEST(Core, InstructionFetchStallsTheFrontEnd) {
  CoreHarness h({Op::compute(64)});
  protocol::ICache icache(NodeId{0}, protocol::ICache::Config{16, 2}, 16, &h.stats,
                          [&](protocol::CoherenceMsg msg) { h.sent.push_back(msg); });
  icache.set_fill_callback([&] { h.core.on_ifill(); });
  h.core.set_icache(&icache, 64);

  h.run(1);
  // The very first fetch misses the cold I-cache and stalls the core.
  EXPECT_TRUE(h.core.blocked());
  ASSERT_GE(h.sent.size(), 1u);
  EXPECT_EQ(h.sent.back().type, protocol::MsgType::kGetInstr);
  EXPECT_EQ(h.core.instructions(), 0u);

  // Fill it; the core resumes and retires until the next I-line boundary.
  protocol::CoherenceMsg data;
  data.type = protocol::MsgType::kData;
  data.dst = NodeId{0};
  data.dst_unit = protocol::Unit::kL1I;
  data.line = h.sent.back().line;
  icache.deliver(data);
  EXPECT_FALSE(h.core.blocked());
  h.run(50);
  EXPECT_GE(h.core.instructions(), 16u);  // at least one full line consumed
}

TEST(Core, BlockedCyclesAreCounted) {
  CoreHarness h({Op::load(LineAddr{0x200})});
  h.run(20);
  EXPECT_GE(h.stats.counter_value("core.blocked_cycles"), 15u);
  EXPECT_EQ(h.stats.counter_value("core.miss_stalls"), 1u);
}

}  // namespace
}  // namespace tcmp::core

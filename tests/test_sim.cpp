// Dead-cycle skip tests: a sleepy core's next wake is exactly its fill
// deadline, and dead-cycle skipping is bit-identical to the per-cycle loop.
#include <gtest/gtest.h>

#include <memory>

#include "cmp/system.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp::sim {
namespace {

/// Core 0 issues one remote load then finishes; every other core is done
/// from the start. The cleanest possible "sleepy core" machine: after the
/// miss goes out, nothing in the system has work until the fill deadline.
class SingleLoadWorkload final : public core::Workload {
 public:
  core::Op next(unsigned core) override {
    if (core != 0 || issued_) return core::Op::done();
    issued_ = true;
    return core::Op::load(LineAddr{1});  // home = tile 1: a remote miss
  }
  [[nodiscard]] std::string name() const override { return "single-load"; }

 private:
  bool issued_ = false;
};

TEST(EventKernelSystem, SleepyCoreWakesExactlyAtFillDeadline) {
  cmp::CmpSystem system(cmp::CmpConfig::baseline(),
                        std::make_shared<SingleLoadWorkload>());
  // A runnable core makes the very next cycle live.
  EXPECT_EQ(system.partition_next_wake(0), Cycle{1});
  // Step until the machine goes deeply dead: core 0 blocked on a miss whose
  // home directory is waiting on the 400-cycle memory pipe. (Shorter dead
  // gaps — link flights, the L2 access pipe — come first; skip past those.)
  Cycle nxt{0};
  for (unsigned i = 0; i < 1000; ++i) {
    system.step();
    nxt = system.partition_next_wake(0);
    if (nxt > system.total_cycles() + 100) break;
  }
  ASSERT_GT(nxt, system.total_cycles() + 100) << "machine never went dead";
  EXPECT_TRUE(system.core(0).blocked());
  // The next wake is exactly the earliest directory pipeline deadline — the
  // memory fill feeding the sleepy core — not a cycle earlier or later.
  Cycle fill_deadline = kNeverCycle;
  for (unsigned t = 0; t < 16; ++t) {
    fill_deadline = std::min(fill_deadline, system.directory(t).next_event());
  }
  EXPECT_EQ(nxt, fill_deadline);
  ASSERT_NE(fill_deadline, kNeverCycle);

  // Skipping across the dead span reaches the same completion cycle as the
  // per-cycle loop.
  cmp::CmpSystem percycle(cmp::CmpConfig::baseline(),
                          std::make_shared<SingleLoadWorkload>());
  for (unsigned i = 0; i < 100'000 && !percycle.finished(); ++i) percycle.step();
  ASSERT_TRUE(percycle.finished());
  ASSERT_TRUE(system.run(Cycle{100'000}));
  EXPECT_EQ(system.total_cycles(), percycle.total_cycles());
  EXPECT_EQ(system.total_instructions(), percycle.total_instructions());
}

TEST(EventKernelSystem, DeadCycleSkippingIsBitIdentical) {
  const auto params = workloads::app("MP3D").scaled(0.05);
  auto run_mode = [&](bool skipping) {
    cmp::CmpSystem system(
        cmp::CmpConfig::baseline(),
        std::make_shared<workloads::SyntheticApp>(params, 16));
    system.set_dead_cycle_skipping(skipping);
    EXPECT_TRUE(system.run(Cycle{200'000'000}));
    return std::make_tuple(system.total_cycles(), system.total_instructions(),
                           system.stats().counters());
  };
  const auto event = run_mode(true);
  const auto loop = run_mode(false);
  EXPECT_EQ(std::get<0>(event), std::get<0>(loop));
  EXPECT_EQ(std::get<1>(event), std::get<1>(loop));
  // Every counter in the registry matches exactly — including the blocked-
  // cycle accounting that advance_idle bulk-replicates.
  EXPECT_EQ(std::get<2>(event), std::get<2>(loop));
}

}  // namespace
}  // namespace tcmp::sim

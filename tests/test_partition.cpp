// Partitioned simulation core (docs/partitioning.md): the row-block plan,
// the 1-cycle synchronization-horizon floor on boundary channels, and the
// end-to-end determinism contract — equal counter maps and a byte-identical
// metrics document whatever the thread count, and counter digests equal to
// those the retired single-threaded driver recorded
// (tests/golden/driver_digests.txt). Golden report
// byte-identity at --threads 1 is covered by the tcmpsim_golden_identity
// ctest (tools/golden_test.sh passes --threads 1 explicitly).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cmp/config.hpp"
#include "cmp/metrics_export.hpp"
#include "cmp/report.hpp"
#include "cmp/system.hpp"
#include "common/stats.hpp"
#include "core/workload.hpp"
#include "noc/channel.hpp"
#include "noc/network.hpp"
#include "sim/partition.hpp"
#include "wire/link_design.hpp"
#include "workloads/synthetic_app.hpp"

namespace tcmp {
namespace {

// ---- PartitionPlan -------------------------------------------------------

TEST(PartitionPlan, EvenSplitOwnsContiguousRowBlocks) {
  const sim::PartitionPlan plan(4, 4, 2);  // 4x4 mesh, K = 2
  ASSERT_EQ(plan.num_partitions(), 2u);
  EXPECT_EQ(plan.first(0), 0u);
  EXPECT_EQ(plan.first(1), 8u);   // two rows of four
  EXPECT_EQ(plan.first(2), 16u);  // one past the end
  EXPECT_EQ(plan.count(0), 8u);
  EXPECT_EQ(plan.part_of(7), 0u);
  EXPECT_EQ(plan.part_of(8), 1u);
}

TEST(PartitionPlan, RemainderRowsGoToTheFirstPartitions) {
  const sim::PartitionPlan plan(4, 7, 3);  // 7 rows over K = 3: 3 + 2 + 2
  ASSERT_EQ(plan.num_partitions(), 3u);
  EXPECT_EQ(plan.count(0), 12u);
  EXPECT_EQ(plan.count(1), 8u);
  EXPECT_EQ(plan.count(2), 8u);
  // Every node maps to the partition whose [first, first+count) contains it.
  for (unsigned n = 0; n < 28; ++n) {
    const unsigned p = plan.part_of(n);
    EXPECT_GE(n, plan.first(p));
    EXPECT_LT(n, plan.first(p + 1));
  }
}

TEST(PartitionPlan, ClampsToOnePartitionPerRow) {
  // A row is the finest grain that keeps every cross-partition link
  // vertical, so K clamps to the mesh height.
  const sim::PartitionPlan plan(8, 4, 16);
  EXPECT_EQ(plan.num_partitions(), 4u);
  const sim::PartitionPlan one(4, 1, 8);
  EXPECT_EQ(one.num_partitions(), 1u);
}

// ---- Horizon floor: a 1-cycle boundary link ------------------------------

noc::NocConfig one_cycle_mesh(unsigned width, unsigned height) {
  noc::NocConfig cfg;
  cfg.width = width;
  cfg.height = height;
  cfg.channels = noc::make_channels(wire::baseline_link());
  // Pin the boundary link exactly at the horizon floor: anything produced
  // in cycle t must still be unconsumable before t + 1.
  cfg.channels[0].link_cycles = 1;
  return cfg;
}

protocol::CoherenceMsg cross_partition_msg(unsigned src, unsigned dst) {
  protocol::CoherenceMsg m;
  m.type = protocol::MsgType::kGetS;
  m.src = NodeId{src};
  m.dst = NodeId{dst};
  m.line = LineAddr{0x40};
  m.requester = NodeId{src};
  return m;
}

TEST(PartitionHorizon, OneCycleLinkCrossesExactlyAtHorizon) {
  // 2x2 mesh split into two single-row partitions; node 0 -> node 2 is one
  // vertical hop across the partition boundary. Drive the partitioned
  // network through the same manual lockstep the driver uses and compare
  // against the single-partition network cycle by cycle.
  const noc::NocConfig cfg = one_cycle_mesh(2, 2);

  StatRegistry serial_stats;
  noc::Network serial(cfg, &serial_stats);
  std::vector<std::pair<unsigned, Cycle>> serial_deliveries;
  Cycle serial_now{0};
  serial.set_deliver([&](NodeId node, const protocol::CoherenceMsg&) {
    serial_deliveries.emplace_back(node.value(), serial_now);
  });

  const sim::PartitionPlan plan(2, 2, 2);
  ASSERT_EQ(plan.num_partitions(), 2u);
  StatRegistry shard0, shard1;
  noc::Network parted(cfg, plan, {&shard0, &shard1});
  std::vector<std::pair<unsigned, Cycle>> parted_deliveries;
  Cycle parted_now{0};
  parted.set_deliver([&](NodeId node, const protocol::CoherenceMsg&) {
    parted_deliveries.emplace_back(node.value(), parted_now);
  });

  const auto msg = cross_partition_msg(0, 2);
  serial.inject(msg, 0, Bytes{8}, serial_now);
  parted.inject(msg, 0, Bytes{8}, parted_now);

  unsigned crossings = 0;
  for (unsigned c = 0; c < 64 && parted_deliveries.empty(); ++c) {
    ++serial_now;
    serial.tick(serial_now);

    ++parted_now;
    parted.begin_cycle(parted_now);
    for (unsigned p = 0; p < 2; ++p) {
      parted.drain_boundary(p);
      parted.tick_partition(p, parted_now);
      // The horizon rule itself: no flit a partition pushes across the
      // boundary in cycle t may arrive at or before t, even on a 1-cycle
      // link.
      const Cycle published = parted.pushed_earliest(p);
      if (published != kNeverCycle) {
        EXPECT_GT(published, parted_now);
        ++crossings;
      }
    }
  }
  EXPECT_GT(crossings, 0u);

  ASSERT_EQ(parted_deliveries.size(), 1u);
  ASSERT_EQ(serial_deliveries.size(), 1u);
  // Same destination, same simulated cycle: the boundary channel added
  // zero model latency, it only deferred the hand-off to the consumer's
  // next phase.
  EXPECT_EQ(parted_deliveries[0], serial_deliveries[0]);
  // The flit crossed strictly after its injection cycle (>= t + 1).
  EXPECT_GT(parted_deliveries[0].second, Cycle{1});

  EXPECT_TRUE(parted.boundaries_empty());
  EXPECT_TRUE(parted.quiescent_partition(0));
  EXPECT_TRUE(parted.quiescent_partition(1));
  EXPECT_TRUE(serial.quiescent());
}

// ---- Counter-map identity across thread counts ---------------------------

struct RunResult {
  std::map<std::string, std::uint64_t> counters;
  Cycle cycles{};
  std::uint64_t instructions = 0;
  std::string metrics_json;  ///< the whole write_metrics_json document
};

RunResult run_cmp(unsigned threads) {
  // Deliberately a non-golden (app, config) pairing — the goldens cover
  // MP3D-het, Barnes-baseline, Water-cheng and FFT-het; this pins a fresh
  // point of the space so the identity isn't an artifact of tuning to the
  // golden set.
  auto cfg = cmp::CmpConfig::cheng3way();
  cfg.threads = threads;
  cmp::CmpSystem system(
      cfg, std::make_shared<workloads::SyntheticApp>(
               workloads::app("FFT").scaled(0.02), cfg.n_tiles));
  EXPECT_TRUE(system.run(Cycle{50'000'000}));
  RunResult r;
  r.counters = system.merged_stats().counters();
  r.cycles = system.total_cycles();
  r.instructions = system.total_instructions();
  std::ostringstream json;
  cmp::write_metrics_json(json, cmp::make_result(system), system);
  r.metrics_json = json.str();
  return r;
}

TEST(PartitionIdentity, CounterMapsEqualAcrossThreadCounts) {
  const RunResult one = run_cmp(1);
  ASSERT_FALSE(one.counters.empty());
  for (unsigned k : {2u, 4u}) {
    const RunResult other = run_cmp(k);
    EXPECT_EQ(one.cycles, other.cycles) << "K=" << k;
    EXPECT_EQ(one.instructions, other.instructions) << "K=" << k;

    // Full map equality — same key set, same values — not just totals.
    // Report any divergent counter by name for debuggability.
    for (const auto& [name, value] : one.counters) {
      auto it = other.counters.find(name);
      ASSERT_NE(it, other.counters.end()) << "counter missing at K=" << k << ": " << name;
      EXPECT_EQ(it->second, value) << "counter diverges at K=" << k << ": " << name;
    }
    EXPECT_EQ(one.counters.size(), other.counters.size()) << "K=" << k;

    // Byte-identical, not just counter-identical: every histogram sample is
    // an integer and no simulator code registers a scalar, so the shard
    // merge sums exactly (below 2^53) in any order and the whole metrics
    // document — quantiles, means, energies — matches.
    EXPECT_EQ(one.metrics_json, other.metrics_json) << "K=" << k;
  }
}

// ---- Frozen reference digests --------------------------------------------

/// One run of tests/golden/driver_digests.txt and its recorded digest.
struct DigestRun {
  std::string app;
  std::string config;
  unsigned tiles = 16;
  std::string topology;
  std::string skip;
  std::string digest;
};

std::vector<DigestRun> load_digest_runs() {
  std::ifstream in(std::string(TCMP_SOURCE_DIR) + "/tests/golden/driver_digests.txt");
  std::vector<DigestRun> runs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    DigestRun r;
    fields >> r.app >> r.config >> r.tiles >> r.topology >> r.skip >> r.digest;
    EXPECT_FALSE(fields.fail()) << "malformed digest line: " << line;
    runs.push_back(r);
  }
  return runs;
}

/// FNV-1a over every merged counter's name and decimal value, then the
/// decimal total cycle count — the per-run digest tcmpbench reports.
std::string run_digest(const DigestRun& r, unsigned threads) {
  cmp::CmpConfig cfg =
      r.config == "baseline" ? cmp::CmpConfig::baseline()
      : r.config == "het"
          ? cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2))
          : cmp::CmpConfig::cheng3way();
  cfg.with_tiles(r.tiles);
  if (r.topology == "tree") cfg.topology = noc::Topology::kTree2Level;
  cfg.threads = threads;
  cmp::CmpSystem system(cfg, std::make_shared<workloads::SyntheticApp>(
                                 workloads::app(r.app).scaled(0.02), cfg.n_tiles));
  system.set_dead_cycle_skipping(r.skip == "on");
  EXPECT_TRUE(system.run(Cycle{50'000'000}));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const std::string& bytes) {
    for (const unsigned char c : bytes) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& [name, value] : system.merged_stats().counters()) {
    mix(name);
    mix(std::to_string(value));
  }
  mix(std::to_string(system.total_cycles().value()));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

TEST(PartitionIdentity, FrozenSerialDigests) {
  const std::vector<DigestRun> runs = load_digest_runs();
  ASSERT_FALSE(runs.empty());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const DigestRun& r = runs[i];
    // Every run at K = 1. Meshes are partitioned too (the tree cannot be):
    // the 64-tile and skip-off runs at K = 2 and 4, every other run of the
    // 16-tile grid at K = 2 or 4 alternately (both land on every config),
    // which keeps the test inside its time budget. The 64-tile mesh also
    // runs at K = 8: more partitions than a 4-core host has cores, so the
    // driver runs several partitions on one thread.
    std::vector<unsigned> ks{1};
    if (r.topology == "mesh") {
      if (r.tiles != 16) {
        ks.insert(ks.end(), {2, 4, 8});
      } else if (r.skip == "off") {
        ks.insert(ks.end(), {2, 4});
      } else if (i % 2 == 0) {
        ks.push_back(i % 4 == 0 ? 2 : 4);
      }
    }
    for (const unsigned k : ks) {
      EXPECT_EQ(run_digest(r, k), r.digest)
          << r.app << " " << r.config << " tiles=" << r.tiles << " "
          << r.topology << " skip=" << r.skip << " K=" << k;
    }
  }
}

// ---- Boundary credits at the end of a run and across a checkpoint ---------

/// Core 4 loads one line homed at tile 8, the tile right below it across
/// the K = 2 boundary of the 4x4 mesh, and finishes; every other core is
/// done from the start. With reply partitioning the core resumes on the
/// partial reply and finishes while the full line is still on its way, so
/// the full reply's ejection at tile 4 is the run's last live cycle, and the
/// credit that hop returns to tile 8's router crosses the boundary then.
class CrossingLoadWorkload final : public core::Workload {
 public:
  core::Op next(unsigned core) override {
    if (core != 4 || issued_) return core::Op::done();
    issued_ = true;
    return core::Op::load(LineAddr{8});
  }
  [[nodiscard]] std::string name() const override { return "crossing-load"; }

 private:
  bool issued_ = false;
};

TEST(PartitionBoundary, CreditInTheLastLiveCycleDoesNotDelayTheEnd) {
  auto cfg = cmp::CmpConfig::baseline();
  cfg.reply_partitioning = true;
  const auto run = [&cfg](unsigned threads) {
    cfg.threads = threads;
    auto system = std::make_unique<cmp::CmpSystem>(
        cfg, std::make_shared<CrossingLoadWorkload>());
    EXPECT_TRUE(system->run(Cycle{1'000'000}));
    return system;
  };
  const auto one = run(1);
  const auto two = run(2);
  ASSERT_EQ(two->num_partitions(), 2u);
  // The last live cycle's credit is still in its channel: no later cycle
  // drained it, and it did not keep the run going.
  EXPECT_GT(two->network().boundary_credits(), 0u);
  EXPECT_TRUE(two->network().boundaries_empty());
  EXPECT_EQ(two->total_cycles(), one->total_cycles());
  EXPECT_EQ(two->merged_stats().counters(), one->merged_stats().counters());
}

/// The metrics document of a finished run.
std::string metrics_of(const cmp::CmpSystem& system) {
  std::ostringstream json;
  cmp::write_metrics_json(json, cmp::make_result(system), system);
  return json.str();
}

TEST(PartitionBoundary, CheckpointWithACreditInAChannelRestoresIdentically) {
  auto cfg = cmp::CmpConfig::cheng3way();
  cfg.threads = 2;
  const auto make = [&cfg] {
    return std::make_unique<cmp::CmpSystem>(
        cfg, std::make_shared<workloads::SyntheticApp>(
                 workloads::app("FFT").scaled(0.02), cfg.n_tiles));
  };
  auto full = make();
  ASSERT_TRUE(full->run(Cycle{50'000'000}));

  auto saver = make();
  ASSERT_FALSE(saver->run(Cycle{5'000}));
  while (saver->network().boundary_credits() == 0) {
    ASSERT_LT(saver->total_cycles(), Cycle{20'000}) << "no credit ever crossed";
    saver->step();
  }
  std::stringstream checkpoint;
  saver->save_checkpoint(checkpoint);
  EXPECT_EQ(saver->network().boundary_credits(), 0u);

  auto restored = make();
  restored->load_checkpoint(checkpoint);
  ASSERT_TRUE(restored->run(Cycle{50'000'000}));
  ASSERT_TRUE(saver->run(Cycle{50'000'000}));
  EXPECT_EQ(restored->total_cycles(), full->total_cycles());
  EXPECT_EQ(saver->total_cycles(), full->total_cycles());
  const std::string expected = metrics_of(*full);
  EXPECT_EQ(metrics_of(*restored), expected);
  EXPECT_EQ(metrics_of(*saver), expected);
}

// ---- The barrier's completion ----------------------------------------------

TEST(SpinBarrier, CompletionRunsOncePerCrossingBeforeAnyoneLeaves) {
  // Each crossing's completion is run exactly once, by one participant, and
  // every participant leaving the crossing reads what it wrote (TSan checks
  // the happens-before edges in the sanitizer build).
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kCrossings = 100'000;
  sim::SpinBarrier barrier(kThreads);
  std::uint64_t completions = 0;  // written only inside completions
  std::atomic<std::uint64_t> mismatches{0};
  const auto participant = [&] {
    for (std::uint64_t n = 1; n <= kCrossings; ++n) {
      barrier.arrive_and_wait([&] { ++completions; });
      if (completions != n) mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned j = 1; j < kThreads; ++j) threads.emplace_back(participant);
  participant();
  for (auto& t : threads) t.join();
  EXPECT_EQ(completions, kCrossings);
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace tcmp

// Checkpoint/restore (docs/checkpointing.md): the snapshot archive's
// round-trip guarantees, full-system checkpoint byte-determinism, and the
// headline contract — a run interrupted by save_checkpoint and resumed from
// the file in a fresh process state produces the *identical* final report
// (full counter-map equality, cycles, instructions) as the uninterrupted
// run, at --threads 1 and at --threads 4. Binary trace record -> replay
// identity rides along: a replayed .tct drives the machine through the same
// trajectory as the workload it captured.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cmp/config.hpp"
#include "cmp/system.hpp"
#include "common/snapshot.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "compression/scheme.hpp"
#include "protocol/directory.hpp"
#include "workloads/app_params.hpp"
#include "workloads/synthetic_app.hpp"
#include "workloads/trace_io.hpp"

namespace tcmp {
namespace {

// ---- archive round-trip --------------------------------------------------

struct ArchiveProbe {
  int plain = 0;
  bool flag = false;
  double ratio = 0.0;
  Cycle when{0};
  std::string label;
  std::vector<std::uint32_t> values;
  std::vector<bool> bits;
  std::optional<std::uint64_t> maybe;
  std::map<std::string, std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> hashed;

  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.section("probe");
    ar.field(plain);
    ar.field(flag);
    ar.field(ratio);
    ar.field(when);
    ar.field(label);
    ar.field(values);
    ar.field(bits);
    ar.field(maybe);
    ar.field(table);
    ar.field(hashed);
  }
};

TEST(SnapshotArchive, RoundTripsEveryFieldKind) {
  ArchiveProbe a;
  a.plain = -42;
  a.flag = true;
  a.ratio = 0.625;
  a.when = Cycle{123'456'789};
  a.label = "fft-0.02";
  a.values = {1, 2, 3, 0xFFFFFFFFu};
  a.bits = {true, false, true, true, false};
  a.maybe = 77;
  a.table = {{"remote", 10}, {"local", 20}};
  a.hashed = {{9, 90}, {4, 40}, {7, 70}};

  std::stringstream buf;
  SnapshotWriter w(buf);
  write_snapshot_header(w, "probe|v1");
  w.field(a);
  ASSERT_TRUE(w.good());

  ArchiveProbe b;
  SnapshotReader r(buf);
  read_snapshot_header(r, "probe|v1");
  r.field(b);
  EXPECT_EQ(b.plain, -42);
  EXPECT_TRUE(b.flag);
  EXPECT_DOUBLE_EQ(b.ratio, 0.625);
  EXPECT_EQ(b.when, Cycle{123'456'789});
  EXPECT_EQ(b.label, "fft-0.02");
  EXPECT_EQ(b.values, a.values);
  EXPECT_EQ(b.bits, a.bits);
  EXPECT_EQ(b.maybe, a.maybe);
  EXPECT_EQ(b.table, a.table);
  EXPECT_EQ(b.hashed, a.hashed);
}

TEST(SnapshotArchive, UnorderedMapBytesAreHashLayoutIndependent) {
  // Same key set inserted in opposite orders must serialize identically.
  std::unordered_map<std::uint64_t, std::uint64_t> fwd, rev;
  for (std::uint64_t k = 0; k < 64; ++k) fwd.emplace(k, k * 3);
  for (std::uint64_t k = 64; k-- > 0;) rev.emplace(k, k * 3);
  std::stringstream sf, sr;
  SnapshotWriter wf(sf), wr(sr);
  wf.field(fwd);
  wr.field(rev);
  EXPECT_EQ(sf.str(), sr.str());
}

TEST(SnapshotArchiveDeathTest, GuardsCatchDriftAndMismatch) {
  std::stringstream buf;
  SnapshotWriter w(buf);
  w.section("alpha");
  w.verify(16u);
  {
    SnapshotReader r(buf);
    EXPECT_DEATH(r.section("beta"), "section tag mismatch");
  }
  {
    std::stringstream b2(buf.str());
    SnapshotReader r(b2);
    r.section("alpha");
    EXPECT_DEATH(r.verify(32u), "config-shape mismatch");
  }
  {
    std::stringstream truncated("short");
    SnapshotReader r(truncated);
    EXPECT_DEATH(static_cast<void>(r.raw_u64()), "truncated");
  }
  {
    std::stringstream bogus("XXXXXXXXXXXXXXXXXXXXXXXX");
    SnapshotReader r(bogus);
    EXPECT_DEATH(read_snapshot_header(r, "x"), "bad magic");
  }
}

TEST(SnapshotArchiveDeathTest, RefusesVersionOneStreams) {
  // Version 1 carried a wake-calendar section that version 2 dropped;
  // reading it as version 2 would misparse every field after the network.
  std::stringstream buf;
  SnapshotWriter w(buf);
  w.raw_bytes(snapshot_detail::kMagic, sizeof snapshot_detail::kMagic);
  w.raw_u64(1);
  w.field(std::string("x"));
  SnapshotReader r(buf);
  EXPECT_DEATH(read_snapshot_header(r, "x"), "not supported");
}

TEST(SnapshotArchiveDeathTest, RefusesVersionTwoStreams) {
  // Version 2 stored whole messages in every flit, link-arrival pipes and
  // one credit heap per router; version 3 stores routing-record flits,
  // packet slabs and per-output-VC credit FIFOs.
  std::stringstream buf;
  SnapshotWriter w(buf);
  w.raw_bytes(snapshot_detail::kMagic, sizeof snapshot_detail::kMagic);
  w.raw_u64(2);
  w.field(std::string("x"));
  SnapshotReader r(buf);
  EXPECT_DEATH(read_snapshot_header(r, "x"), "not supported");
}

TEST(SnapshotArchiveDeathTest, RefusesVersionThreeStreams) {
  // Version 3 sized every router's VC arrays and stored each input VC's
  // output VC, each injection lane's VC and each core's blocked-cycle copy;
  // version 4 fixes one VC per vnet and drops all three.
  std::stringstream buf;
  SnapshotWriter w(buf);
  w.raw_bytes(snapshot_detail::kMagic, sizeof snapshot_detail::kMagic);
  w.raw_u64(3);
  w.field(std::string("x"));
  SnapshotReader r(buf);
  EXPECT_DEATH(read_snapshot_header(r, "x"), "not supported");
}

TEST(SnapshotArchiveDeathTest, RefusesVersionFourStreams) {
  // Version 4 stored a pending-request queue in every directory entry and
  // every memory transaction; version 5 stores one parked-request table
  // per directory.
  std::stringstream buf;
  SnapshotWriter w(buf);
  w.raw_bytes(snapshot_detail::kMagic, sizeof snapshot_detail::kMagic);
  w.raw_u64(4);
  w.field(std::string("x"));
  SnapshotReader r(buf);
  EXPECT_DEATH(read_snapshot_header(r, "x"), "not supported");
}

// ---- full-system checkpoint/restore --------------------------------------

struct FinalReport {
  std::map<std::string, std::uint64_t> counters;
  Cycle cycles{};
  std::uint64_t instructions = 0;
};

std::shared_ptr<workloads::SyntheticApp> fft_small(unsigned n_tiles) {
  return std::make_shared<workloads::SyntheticApp>(
      workloads::app("FFT").scaled(0.02), n_tiles);
}

FinalReport harvest(const cmp::CmpSystem& system) {
  FinalReport r;
  r.counters = system.merged_stats().counters();
  r.cycles = system.total_cycles();
  r.instructions = system.total_instructions();
  return r;
}

void expect_identical(const FinalReport& a, const FinalReport& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  ASSERT_FALSE(a.counters.empty());
  for (const auto& [name, value] : a.counters) {
    auto it = b.counters.find(name);
    ASSERT_NE(it, b.counters.end()) << "counter missing after restore: " << name;
    EXPECT_EQ(it->second, value) << "counter diverges after restore: " << name;
  }
  EXPECT_EQ(a.counters.size(), b.counters.size());
}

/// Flits buffered in routers and flits in flight on links at the end of the
/// system's current cycle, over every plane.
std::pair<unsigned, unsigned> flits_in_network(const cmp::CmpSystem& system) {
  const noc::Network& net = system.network();
  unsigned buffered = 0, on_links = 0;
  for (unsigned c = 0; c < net.num_channels(); ++c) {
    for (unsigned i = 0; i < net.router_count(c); ++i) {
      const auto census = net.router(c, i).census(system.total_cycles());
      buffered += census.buffered;
      on_links += census.on_links;
    }
  }
  return {buffered, on_links};
}

/// Per tile's directory: requests parked (on a busy line or a fill) and the
/// lines they wait on.
std::vector<std::pair<unsigned, std::size_t>> parked_per_dir(cmp::CmpSystem& system) {
  std::vector<std::pair<unsigned, std::size_t>> parked;
  for (unsigned t = 0; t < system.config().n_tiles; ++t) {
    const protocol::Directory& dir = system.directory(t);
    parked.emplace_back(dir.queued_msgs(), dir.parked_lines());
  }
  return parked;
}

// Interrupted-vs-uninterrupted identity at thread count K: run A end to end;
// run B past a mid-run cycle to the first cycle with flits both buffered in
// routers and in flight on links and a request parked at some directory,
// checkpoint, restore into a freshly constructed system C and finish there.
// A and C must agree on every reported number.
void check_restore_identity(unsigned threads) {
  auto cfg = cmp::CmpConfig::cheng3way();
  cfg.threads = threads;

  cmp::CmpSystem uninterrupted(cfg, fft_small(cfg.n_tiles));
  ASSERT_TRUE(uninterrupted.run(Cycle{50'000'000}));
  const FinalReport full = harvest(uninterrupted);

  cmp::CmpSystem saver(cfg, fft_small(cfg.n_tiles));
  ASSERT_FALSE(saver.run(Cycle{30'000}));  // mid-run: must not have finished
  for (;;) {
    const auto [buffered, on_links] = flits_in_network(saver);
    const auto parked = parked_per_dir(saver);
    const bool any_parked = std::any_of(parked.begin(), parked.end(),
                                        [](const auto& p) { return p.first > 0; });
    if (buffered > 0 && on_links > 0 && any_parked) break;
    ASSERT_LT(saver.total_cycles(), Cycle{40'000})
        << "network never mid-flight with a request parked";
    saver.step();
  }
  const Cycle at = saver.total_cycles();
  std::stringstream checkpoint;
  saver.save_checkpoint(checkpoint);

  cmp::CmpSystem restored(cfg, fft_small(cfg.n_tiles));
  restored.load_checkpoint(checkpoint);
  EXPECT_EQ(restored.total_cycles(), at);
  EXPECT_EQ(flits_in_network(restored), flits_in_network(saver));
  EXPECT_EQ(parked_per_dir(restored), parked_per_dir(saver));
  EXPECT_TRUE(restored.network().work_sets_cover_work());
  EXPECT_TRUE(restored.due_arrays_cover_work());
  ASSERT_TRUE(restored.run(Cycle{50'000'000}));
  expect_identical(full, harvest(restored));
}

TEST(CheckpointRestore, FinalReportIdenticalSingleThread) {
  check_restore_identity(1);
}

TEST(CheckpointRestore, FinalReportIdenticalFourThreads) {
  check_restore_identity(4);
}

// Wake sets of the whole machine: every cycle of a seeded-random CMP run at
// K partitions — before a mid-run checkpoint taken with flits both buffered
// and on links, right after restoring it into a fresh system, and every
// cycle of the restored run to its end — no router, lane, directory or
// loopback with pending work may be left out of its partition's work set or
// be due later than its next event, and every partition's running-core set
// and done count must match its cores. A missed wake site leaves work that
// is never run (or a core that never ticks again). Once the machine drains,
// every packet slab is empty.
void check_cmp_wake_sets(unsigned threads) {
  SCOPED_TRACE(threads);
  auto cfg = cmp::CmpConfig::heterogeneous(compression::SchemeConfig::dbrc(4, 2));
  cfg.threads = threads;
  auto params = workloads::app("MP3D").scaled(0.01);
  params.seed = 20;
  const auto make = [&] {
    return std::make_unique<cmp::CmpSystem>(
        cfg, std::make_shared<workloads::SyntheticApp>(params, cfg.n_tiles));
  };
  const auto covered = [](const cmp::CmpSystem& s) {
    return s.network().work_sets_cover_work() && s.due_arrays_cover_work() &&
           s.core_sets_match_cores();
  };

  auto saver = make();
  ASSERT_TRUE(covered(*saver));
  for (;;) {
    saver->step();
    ASSERT_TRUE(covered(*saver)) << "cycle " << saver->total_cycles().value();
    const auto [buffered, on_links] = flits_in_network(*saver);
    if (saver->total_cycles() > Cycle{2'000} && buffered > 0 && on_links > 0) break;
    ASSERT_LT(saver->total_cycles(), Cycle{20'000}) << "network never mid-flight";
  }
  std::stringstream checkpoint;
  saver->save_checkpoint(checkpoint);

  auto restored = make();
  restored->load_checkpoint(checkpoint);
  ASSERT_TRUE(covered(*restored)) << "right after the load";
  while (!restored->finished()) {
    ASSERT_LT(restored->total_cycles(), Cycle{1'000'000}) << "run did not finish";
    restored->step();
    ASSERT_TRUE(covered(*restored)) << "cycle " << restored->total_cycles().value();
  }
  EXPECT_EQ(restored->network().live_packets(), 0u);
}

TEST(WakeSets, EveryCmpWakeSiteIsCoveredAcrossRestore) {
  check_cmp_wake_sets(1);
  check_cmp_wake_sets(2);
  check_cmp_wake_sets(4);
}

TEST(CheckpointRestore, SaveIsByteDeterministic) {
  // Two identical runs checkpointed at the same cycle produce byte-equal
  // snapshot streams (the property the golden byte-identity gate leans on).
  auto cfg = cmp::CmpConfig::cheng3way();
  std::string bytes[2];
  for (std::string& b : bytes) {
    cmp::CmpSystem system(cfg, fft_small(cfg.n_tiles));
    ASSERT_FALSE(system.run(Cycle{25'000}));
    std::stringstream out;
    system.save_checkpoint(out);
    b = out.str();
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(CheckpointRestoreDeathTest, RejectsMismatchedShape) {
  auto cfg = cmp::CmpConfig::cheng3way();
  cmp::CmpSystem system(cfg, fft_small(cfg.n_tiles));
  ASSERT_FALSE(system.run(Cycle{10'000}));
  std::stringstream out;
  system.save_checkpoint(out);

  // A run with a different thread count has a different fingerprint: the
  // per-shard registry layout differs, so restore must refuse.
  auto cfg4 = cmp::CmpConfig::cheng3way();
  cfg4.threads = 4;
  cmp::CmpSystem other(cfg4, fft_small(cfg4.n_tiles));
  EXPECT_DEATH(other.load_checkpoint(out), "fingerprint mismatch");
}

// ---- binary trace record -> replay ---------------------------------------

TEST(TraceRecordReplay, ReplayedRunMatchesOriginal) {
  const std::string path = testing::TempDir() + "tcmp_record_replay.tct";
  const auto cfg = cmp::CmpConfig::cheng3way();

  // Original: FFT captured through the recording tee while it drives the
  // detailed machine.
  auto recorder = std::make_shared<workloads::RecordingWorkload>(
      fft_small(cfg.n_tiles), path, cfg.n_tiles);
  cmp::CmpSystem original(cfg, recorder);
  ASSERT_TRUE(original.run(Cycle{50'000'000}));
  recorder->finish();
  ASSERT_GT(recorder->events_recorded(), 0u);
  const FinalReport a = harvest(original);

  // Replay: same machine, workload now streamed back from the .tct file.
  auto replay = std::make_shared<workloads::BinaryTraceWorkload>(path);
  EXPECT_EQ(replay->n_cores(), cfg.n_tiles);
  EXPECT_EQ(replay->total_events(), recorder->events_recorded());
  cmp::CmpSystem replayed(cfg, replay);
  ASSERT_TRUE(replayed.run(Cycle{50'000'000}));
  expect_identical(a, harvest(replayed));

  std::remove(path.c_str());
}

TEST(TraceRecordReplay, CompactEncodingBeatsTextByFourX) {
  // The .tct point of existing: delta-encoded binary events are a fraction
  // of the text form ("12 L 0x1a2b3c\n" ~ 15 bytes vs <= 2-3 binary).
  const std::string path = testing::TempDir() + "tcmp_density.tct";
  {
    workloads::TraceRecorder rec(path, 1, false, 512);
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      // Read-modify-write walk: the load strides by one line, the store hits
      // the same line (delta 0) — the dominant pattern delta encoding wins on.
      rec.record(0, core::Op::load(LineAddr{0x100000 + i}));
      rec.record(0, core::Op::store(LineAddr{0x100000 + i}));
    }
    rec.close();
  }
  workloads::BinaryTraceWorkload back(path);
  EXPECT_EQ(back.total_events(), 20'000u);
  std::uint64_t text_bytes = 0, ops = 0;
  for (;; ++ops) {
    const core::Op op = back.next(0);
    if (op.kind == core::OpKind::kDone) break;
    char line[64];
    text_bytes += static_cast<std::uint64_t>(std::snprintf(
        line, sizeof line, "0 %c 0x%llx\n",
        op.kind == core::OpKind::kLoad ? 'L' : 'S',
        static_cast<unsigned long long>(op.line.value())));
  }
  EXPECT_EQ(ops, 20'000u);
  std::uint64_t file_bytes = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    file_bytes = static_cast<std::uint64_t>(in.tellg());
  }
  EXPECT_LT(file_bytes * 4, text_bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tcmp

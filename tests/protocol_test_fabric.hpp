// Shared test harness: L1s + directories over an idealized message fabric
// with configurable per-message delays. A custom delay function lets tests
// construct exact message orderings (deterministic race reproduction); the
// default uniform/randomized delays drive the statistical stress suites.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "protocol/coherence_msg.hpp"
#include "protocol/delay_queue.hpp"
#include "protocol/directory.hpp"
#include "protocol/l1_cache.hpp"

namespace tcmp::protocol {

class TestFabric {
 public:
  struct Options {
    unsigned nodes = 16;
    unsigned l1_sets = 16;
    unsigned l1_ways = 2;
    unsigned l2_sets = 64;
    unsigned l2_ways = 4;
    Cycle min_delay{3};
    Cycle max_delay{3};  ///< > min_delay enables randomized reordering
    std::uint64_t seed = 1;
  };

  /// Overrides the delay of individual messages (return nullopt for the
  /// default). Evaluated at send time.
  using DelayFn = std::function<std::optional<Cycle>(const CoherenceMsg&)>;

  TestFabric() : TestFabric(Options{}) {}
  explicit TestFabric(const Options& opt) : opt_(opt), rng_(opt.seed) {
    fills_.resize(opt_.nodes);
    auto sink = [this](CoherenceMsg msg) { enqueue(msg); };
    for (unsigned n = 0; n < opt_.nodes; ++n) {
      L1Cache::Config l1cfg;
      l1cfg.sets = opt_.l1_sets;
      l1cfg.ways = opt_.l1_ways;
      l1s_.push_back(std::make_unique<L1Cache>(static_cast<NodeId>(n), l1cfg,
                                               opt_.nodes,
                                               /*reply_partitioning=*/false,
                                               &stats_, sink));
      Directory::Config dcfg;
      dcfg.sets = opt_.l2_sets;
      dcfg.ways = opt_.l2_ways;
      dirs_.push_back(std::make_unique<Directory>(static_cast<NodeId>(n), dcfg,
                                                  opt_.nodes,
                                                  /*reply_partitioning=*/false,
                                                  &stats_, sink));
      const unsigned core = n;
      l1s_[n]->set_fill_callback(
          [this, core](LineAddr line) { fills_[core].insert(line); });
    }
  }

  void set_delay_fn(DelayFn fn) { delay_fn_ = std::move(fn); }

  L1Cache& l1(unsigned n) { return *l1s_[n]; }
  Directory& dir(unsigned n) { return *dirs_[n]; }
  StatRegistry& stats() { return stats_; }
  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] NodeId home_of(LineAddr line) const {
    return static_cast<NodeId>(line.value() % opt_.nodes);
  }

  void step() {
    ++now_;
    while (auto msg = wire_.pop_ready(now_)) {
      if (msg->dst_unit == Unit::kDir) {
        dirs_[msg->dst]->deliver(*msg, now_);
      } else {
        l1s_[msg->dst]->deliver(*msg);
      }
    }
    for (auto& d : dirs_) d->tick(now_);
  }

  /// Blocking access: issue and run until the fill callback fires (or the
  /// access hits). Returns the cycles the access took to complete.
  Cycle access(unsigned core, LineAddr line, bool write) {
    const Cycle start = now_;
    fills_[core].erase(line);
    if (l1s_[core]->access(line, write) == AccessResult::kHit) return Cycle{0};
    while (!fills_[core].contains(line)) {
      step();
      TCMP_CHECK_MSG(now_ - start < Cycle{1000000}, "access did not complete");
    }
    return now_ - start;
  }

  /// Issue without blocking (race construction); pair with run_until_quiescent.
  void access_async(unsigned core, LineAddr line, bool write) {
    fills_[core].erase(line);
    (void)l1s_[core]->access(line, write);
  }

  void run_until_quiescent(Cycle limit = Cycle{1000000}) {
    const Cycle start = now_;
    while (!quiescent()) {
      step();
      TCMP_CHECK_MSG(now_ - start < limit, "system did not quiesce");
    }
  }

  [[nodiscard]] bool quiescent() const {
    if (!wire_.empty()) return false;
    for (const auto& l : l1s_)
      if (!l->quiescent()) return false;
    for (const auto& d : dirs_)
      if (!d->quiescent()) return false;
    return true;
  }

  /// Coherence + data-version invariants over `lines` (call when quiescent).
  void check_invariants(const std::set<LineAddr>& lines) {
    for (LineAddr line : lines) {
      std::vector<unsigned> m_or_e, s_holders;
      for (unsigned n = 0; n < opt_.nodes; ++n) {
        const auto st = l1s_[n]->state_of(line);
        if (!st) continue;
        if (*st == L1State::kS) {
          s_holders.push_back(n);
        } else {
          m_or_e.push_back(n);
        }
      }
      ASSERT_LE(m_or_e.size(), 1u) << "multiple owners of line " << line.value();
      if (!m_or_e.empty()) {
        ASSERT_TRUE(s_holders.empty())
            << "owner plus sharers on line " << line.value();
      }
      const Directory& home = *dirs_[home_of(line)];
      const auto dstate = home.dir_state_of(line);
      if (!dstate.has_value()) {
        ASSERT_TRUE(m_or_e.empty() && s_holders.empty())
            << "L1 copy of line " << line.value() << " not backed by L2";
        continue;
      }
      switch (*dstate) {
        case DirState::kInvalid:
          ASSERT_TRUE(m_or_e.empty() && s_holders.empty());
          break;
        case DirState::kShared: {
          ASSERT_TRUE(m_or_e.empty());
          const SharerMask sharers = home.sharers_of(line);
          for (unsigned n : s_holders) ASSERT_TRUE(sharers.test(n));
          for (unsigned n : s_holders) {
            ASSERT_EQ(l1s_[n]->version_of(line), home.version_of(line))
                << "stale shared copy of line " << line.value() << " at L1 " << n;
          }
          break;
        }
        case DirState::kExclusive:
          ASSERT_EQ(m_or_e.size(), 1u);
          ASSERT_EQ(home.owner_of(line), m_or_e.front());
          ASSERT_TRUE(s_holders.empty());
          ASSERT_GE(l1s_[m_or_e.front()]->version_of(line), home.version_of(line));
          break;
        default:
          FAIL() << "busy directory state after quiescence";
      }
    }
  }

 private:
  void enqueue(const CoherenceMsg& msg) {
    Cycle delay = opt_.min_delay;
    if (opt_.max_delay > opt_.min_delay) {
      delay = opt_.min_delay +
              rng_.next_below((opt_.max_delay - opt_.min_delay).value() + 1);
    }
    if (delay_fn_) {
      if (const auto forced = delay_fn_(msg)) delay = *forced;
    }
    wire_.push(now_ + delay, msg);
  }

  Options opt_;
  Rng rng_;
  StatRegistry stats_;
  DelayFn delay_fn_;
  std::vector<std::unique_ptr<L1Cache>> l1s_;
  std::vector<std::unique_ptr<Directory>> dirs_;
  std::vector<std::set<LineAddr>> fills_;
  DelayQueue<CoherenceMsg> wire_;
  Cycle now_{0};
};

}  // namespace tcmp::protocol

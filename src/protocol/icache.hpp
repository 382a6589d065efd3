// L1 instruction cache (Table 4: 32 KB 4-way per tile).
//
// Instruction lines are read-only for the SPLASH-style workloads (no
// self-modifying code), so the I-cache is modelled outside the coherence
// domain — the standard simplification: an I-miss sends a GetInstr request
// to the line's home L2 slice, which replies with the data without touching
// directory state, and no invalidations are ever delivered here. I-misses
// still travel the real network (short critical requests, compressible like
// any other) and occupy real L2 bandwidth.
//
// Thread compatibility: tile-owned, no internal locking; mutated only from
// its tile's simulation thread (tile-escape lint, docs/static-analysis.md).
#pragma once

#include <functional>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "protocol/cache_array.hpp"
#include "protocol/coherence_msg.hpp"

namespace tcmp::protocol {

class ICache final {
 public:
  struct Config {
    unsigned sets = 128;  ///< 32 KB, 4-way
    unsigned ways = 4;
  };

  using MsgSink = std::function<void(CoherenceMsg)>;
  using FillCallback = std::function<void()>;

  ICache(NodeId id, const Config& cfg, unsigned n_nodes, StatRegistry* stats,
         MsgSink sink);

  /// Fetch the line holding the next instructions. Returns true on hit;
  /// false blocks the core front-end until the fill callback fires.
  bool fetch(LineAddr line);

  /// Functional warming (cmp/sampling.cpp): end state of a fetch with no
  /// timing and no messages. Instruction lines are read-only and outside
  /// the coherence domain, so a silent install is exact — the array ends in
  /// the same state the detailed fetch path would leave it in.
  void warm_install(LineAddr line);

  void set_fill_callback(FillCallback cb) { fill_cb_ = std::move(cb); }

  /// Network-side delivery (only kData replies to our GetInstr).
  void deliver(const CoherenceMsg& msg);

  [[nodiscard]] bool quiescent() const { return !miss_outstanding_; }

  /// Checkpoint serialization (common/snapshot.hpp).
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.section("l1i");
    ar.verify(id_);
    ar.field(array_);
    ar.field(miss_outstanding_);
    ar.field(miss_line_);
  }

 private:
  struct Payload {
    // presence only: instruction lines carry no state
    template <typename Ar>
    void snapshot_io(Ar&) {}
  };

  NodeId id_;
  // tcmplint: snapshot-exempt (construction parameter, never mutates)
  unsigned n_nodes_;
  CacheArray<Payload> array_;
  StatRegistry* stats_;
  // tcmplint: snapshot-exempt (send callback wired by the system constructor)
  MsgSink sink_;
  // tcmplint: snapshot-exempt (fill callback wired by the system constructor)
  FillCallback fill_cb_;
  // Interned stat handles (hot path: every instruction fetch).
  CounterRef fetches_;
  CounterRef misses_;
  bool miss_outstanding_ = false;
  LineAddr miss_line_{};
};

}  // namespace tcmp::protocol

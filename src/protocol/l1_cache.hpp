// L1 data-cache coherence controller: MESI with a full-map directory at the
// home L2 slice (Sec. 4.1/4.2).
//
// Stable states (M/E/S) live in the cache array; transient states live in the
// MSHR (misses) and the eviction buffer (writebacks in flight). The protocol
// tolerates an unordered network (the heterogeneous VL/B channels can reorder
// messages between the same endpoints):
//   * Inv during IS_D marks the fill use-once (install-then-drop), avoiding
//     the stale-S hazard when an Inv overtakes the Data reply;
//   * forwards arriving while the local miss is still collecting data/acks
//     are parked in the MSHR and serviced right after install;
//   * forwards arriving while a writeback is in flight are serviced from the
//     eviction buffer, which then waits for the stale PutAck (II_A);
//   * a new miss to a line with an in-flight writeback is deferred until the
//     PutAck drains.
//
// Thread compatibility: tile-owned, no internal locking. All mutation is
// driven from its tile's single simulation thread; the only cross-tile entry
// point is deliver() via the NIC/message seam (the tile-escape lint,
// docs/static-analysis.md, keeps it that way).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/hooks.hpp"
#include "protocol/cache_array.hpp"
#include "protocol/coherence_msg.hpp"

namespace tcmp::protocol {

/// Stable L1 line states (I = not present).
enum class L1State : std::uint8_t { kS, kE, kM };

/// Outcome of a core-side access.
enum class AccessResult : std::uint8_t {
  kHit,    ///< completed this cycle
  kMiss,   ///< miss issued (or deferred); the access retires when the fill
           ///< callback fires for this line
  kRetry,  ///< the line has an open transaction (e.g. the core resumed early
           ///< on a PartialReply): block, then RE-EXECUTE the access after
           ///< the fill callback
};

class L1Cache final {
 public:
  struct Config {
    unsigned sets = 128;  ///< 32 KB, 4-way, 64 B lines
    unsigned ways = 4;

    friend bool operator==(const Config&, const Config&) = default;
  };

  using MsgSink = std::function<void(CoherenceMsg)>;
  using FillCallback = std::function<void(LineAddr line)>;

  /// `reply_partitioning` (Reply Partitioning [9]): data senders emit a
  /// critical PartialReply carrying the requested word ahead of the full
  /// line; read misses unblock the core on its arrival.
  L1Cache(NodeId id, const Config& cfg, unsigned n_nodes, bool reply_partitioning,
          StatRegistry* stats, MsgSink sink);

  /// Core-side access; see AccessResult for the blocking contract.
  AccessResult access(LineAddr line, bool is_write);

  void set_fill_callback(FillCallback cb) { fill_cb_ = std::move(cb); }

  /// Attach observability hooks (miss begin/end lifecycle); null detaches.
  void set_hooks(obs::ProtocolHooks* hooks) { hooks_ = hooks; }

  /// Network-side delivery of a coherence message addressed to this L1.
  void deliver(const CoherenceMsg& msg);

  /// True when no MSHR / eviction-buffer entries are outstanding.
  [[nodiscard]] bool quiescent() const {
    return mshrs_.empty() && evict_buf_.empty() && deferred_.empty();
  }

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] NodeId home_of(LineAddr line) const {
    return NodeId{line.value() % n_nodes_};
  }

  /// Test hook: stable state of a line (nullopt = I / transient).
  [[nodiscard]] std::optional<L1State> state_of(LineAddr line) const;
  /// Test hook: validation version of a resident line (0 if absent).
  [[nodiscard]] std::uint32_t version_of(LineAddr line) const;
  /// Sets built so far (CacheArray::touched_sets).
  [[nodiscard]] unsigned touched_sets() const { return array_.touched_sets(); }

  /// One resident stable line, as reported to the verify lint.
  struct StableLine {
    LineAddr line;
    L1State state = L1State::kS;
    NodeId tile;
  };
  /// Invariant-scan hook (verify lint): append every resident stable line
  /// whose address satisfies (line & stripe_mask) == stripe to `out`
  /// (stripe_mask 0 selects everything). The mask/stripe are raw bit
  /// patterns over the line-address representation, not addresses.
  /// Appending plain records to a caller-reused buffer keeps the periodic
  /// scan allocation-free.
  void collect_stable_lines(std::uint64_t stripe_mask, std::uint64_t stripe,
                            std::vector<StableLine>& out) const;
  /// Fault-injection hook (verify tests only): force a line's stable state,
  /// installing it if absent. Deliberately bypasses the protocol.
  void debug_force_state(LineAddr line, L1State st);

  // --- Functional warm-up (SMARTS fast-forward; cmp/sampling.cpp) ----------
  // Direct state edits with no messages / stats, legal only while this L1 is
  // quiescent. The directory-side bookkeeping is the caller's job.

  /// LRU-touch a resident line (warm hit).
  void warm_touch(LineAddr line);
  /// Set a resident line's state/version in place (downgrade, store upgrade).
  void warm_set_state(LineAddr line, L1State st, std::uint32_t version);
  /// Silently drop a copy if resident (functional invalidation).
  void warm_drop(LineAddr line);
  /// A stable line displaced by warm_install, for the caller's functional
  /// writeback (S lines evict silently, exactly like the detailed protocol).
  struct WarmEvicted {
    LineAddr line;
    L1State state = L1State::kS;
    std::uint32_t version = 0;
  };
  /// Install `line` (must not be resident), evicting if the set is full.
  std::optional<WarmEvicted> warm_install(LineAddr line, L1State st,
                                          std::uint32_t version);

  /// Checkpoint serialization (common/snapshot.hpp): the array plus every
  /// transient-state table, so a restored L1 resumes mid-transaction.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.section("l1");
    ar.verify(id_);
    ar.verify(n_nodes_);
    ar.verify(reply_partitioning_);
    ar.field(array_);
    ar.field(mshrs_);
    ar.field(evict_buf_);
    ar.field(deferred_);
  }

 private:
  struct LinePayload {
    L1State state = L1State::kS;
    std::uint32_t version = 0;  ///< bumped on every store (validation)

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(state);
      ar.field(version);
    }
  };
  using Array = CacheArray<LinePayload>;

  struct Mshr {
    bool is_write = false;   ///< GetX/Upgrade path vs GetS path
    bool upgrade = false;    ///< original request was an Upgrade
    bool data_received = false;
    bool core_notified = false;    ///< partial reply already resumed the core
    bool grant_exclusive = false;  ///< reply was DataExcl/UpgradeAck
    bool drop_after_fill = false;  ///< IS_D_I: Inv overtook the Data reply
    int acks_expected = -1;        ///< -1 until the reply announces the count
    int acks_received = 0;
    std::uint32_t version = 0;     ///< version carried by the data reply
    std::optional<CoherenceMsg> parked_fwd;  ///< forward to service post-fill

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(is_write);
      ar.field(upgrade);
      ar.field(data_received);
      ar.field(core_notified);
      ar.field(grant_exclusive);
      ar.field(drop_after_fill);
      ar.field(acks_expected);
      ar.field(acks_received);
      ar.field(version);
      ar.field(parked_fwd);
    }
  };

  /// Writeback in flight. kIIA = ownership already yielded to a forward;
  /// only the stale PutAck is still due.
  enum class EvictState : std::uint8_t { kMIA, kEIA, kIIA };
  struct EvictEntry {
    EvictState state = EvictState::kMIA;
    std::uint32_t version = 0;

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(state);
      ar.field(version);
    }
  };

  void send(CoherenceMsg msg);
  void issue_miss(LineAddr line, bool is_write, bool upgrade);
  void maybe_complete(LineAddr line, Mshr& m);
  void install_fill(LineAddr line, Mshr& m);
  void evict_for(LineAddr incoming_line);
  void service_fwd_from_stable(const CoherenceMsg& msg, Array::Line& l);
  void service_fwd_from_evict(const CoherenceMsg& msg, EvictEntry& entry);
  void send_partial_reply(NodeId requester, LineAddr line);

  void on_inv(const CoherenceMsg& msg);
  void on_fwd(const CoherenceMsg& msg);
  void on_reply(const CoherenceMsg& msg);
  void on_put_ack(const CoherenceMsg& msg);

  NodeId id_;
  unsigned n_nodes_;
  bool reply_partitioning_;
  Array array_;
  StatRegistry* stats_;
  // tcmplint: snapshot-exempt (send callback wired by the system constructor)
  MsgSink sink_;
  // tcmplint: snapshot-exempt (fill callback wired by the system constructor)
  FillCallback fill_cb_;
  obs::ProtocolHooks* hooks_ = nullptr;
  // Interned stat handles (hot path: every access / protocol message).
  CounterRef accesses_;
  CounterRef read_misses_;
  CounterRef write_misses_;
  CounterRef upgrade_misses_;
  CounterRef retried_accesses_;
  CounterRef deferred_misses_;
  CounterRef invalidations_;
  CounterRef stale_invs_;
  CounterRef forwards_serviced_;
  CounterRef forwards_serviced_in_evict_;
  CounterRef partial_resumes_;
  CounterRef use_once_fills_;
  CounterRef silent_s_evictions_;

  std::unordered_map<LineAddr, Mshr> mshrs_;
  std::unordered_map<LineAddr, EvictEntry> evict_buf_;
  /// Misses deferred behind an in-flight writeback of the same line.
  std::unordered_map<LineAddr, bool /*is_write*/> deferred_;
};

}  // namespace tcmp::protocol

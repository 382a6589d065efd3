// Home L2 slice with in-tags full-map directory (Sec. 4.1): the L2 is shared
// but physically distributed (NUCA); each line's home tile is
// line % n_tiles. The directory serializes all transactions on a line;
// requests that arrive while the line is busy are queued FIFO per line.
//
// The L2 is inclusive. Evicting an L2 line with L1 copies first recalls them
// (Inv to sharers with acks collected at home, or Recall to the owner).
//
// Writeback/forward crossings on an unordered network are resolved by
// *holding the PutAck*: when a Put arrives from the owner of a line that has
// a forward or recall outstanding (a Busy* state), the home defers the
// PutAck until the owner's (Ack)Revision resolves the busy state. This keeps
// the invariant that a forward always finds either the stable line or the
// eviction buffer at the L1 — a PutAck can never overtake the forward and
// tear the buffer down. Puts that arrive after resolution (or after the line
// was recalled away entirely) are stale: acknowledged and ignored.
//
// Thread compatibility: tile-owned, no internal locking; mutated only from
// its tile's simulation thread through the message seam (tile-escape lint,
// docs/static-analysis.md).
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "common/queues.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "obs/hooks.hpp"
#include "protocol/cache_array.hpp"
#include "protocol/coherence_msg.hpp"
#include "protocol/delay_queue.hpp"
#include "protocol/l1_cache.hpp"
#include "protocol/sharer_mask.hpp"

namespace tcmp::protocol {

/// Home-stripped directory index (line = key * n_nodes + home). A distinct
/// strong type: a DirKey indexes one slice's array and is meaningless as a
/// global line address, so the two cannot be interchanged.
class DirKey {
 public:
  constexpr DirKey() = default;
  constexpr explicit DirKey(std::uint64_t v) : v_(v) {}
  [[nodiscard]] constexpr std::uint64_t value() const { return v_; }
  friend constexpr bool operator==(DirKey, DirKey) = default;

 private:
  std::uint64_t v_ = 0;
};

enum class DirState : std::uint8_t {
  kInvalid,    ///< no L1 copies; L2 data valid
  kShared,     ///< sharers bitmap; L2 data valid
  kExclusive,  ///< single L1 owner; L2 data possibly stale
  kBusyShared, ///< FwdGetS outstanding, waiting Revision
  kBusyExcl,   ///< FwdGetX outstanding, waiting AckRevision
  kBusyRecall, ///< eviction in progress, waiting InvAcks / owner response
};

class Directory final {
 public:
  struct Config {
    unsigned sets = 1024;      ///< 256 KB slice, 4-way, 64 B lines
    unsigned ways = 4;
    Cycle l2_latency{8};      ///< Table 4: 6+2 cycles
    Cycle memory_latency{400};
    /// Reply Partitioning [9]: send the critical word ahead of read replies.
    bool reply_partitioning = false;

    friend bool operator==(const Config&, const Config&) = default;
  };

  using MsgSink = std::function<void(CoherenceMsg)>;

  Directory(NodeId id, const Config& cfg, unsigned n_nodes, StatRegistry* stats,
            MsgSink sink);

  /// Network-side delivery; processing happens l2_latency cycles later.
  void deliver(const CoherenceMsg& msg, Cycle now);

  /// Advance internal pipelines (delayed L2 accesses, memory fills).
  void tick(Cycle now);

  /// Earliest cycle at which tick() has work to do (for idle fast-forward).
  [[nodiscard]] Cycle next_event() const;

  [[nodiscard]] bool quiescent() const;
  [[nodiscard]] NodeId id() const { return id_; }

  /// Functional warmup support: fills already queued keep their latency.
  void set_memory_latency(Cycle lat) { cfg_.memory_latency = lat; }

  /// Attach observability hooks (per-message processing events); null detaches.
  void set_hooks(obs::ProtocolHooks* hooks) { hooks_ = hooks; }

  /// Occupancy gauges for telemetry sampling.
  [[nodiscard]] unsigned busy_lines() const { return busy_lines_; }
  [[nodiscard]] unsigned queued_msgs() const { return queued_msgs_; }

  /// Read-only directory-entry snapshot for invariant scans (verify lint).
  struct EntryView {
    DirState state = DirState::kInvalid;
    SharerMask sharers;
    NodeId owner = kInvalidNode;
    NodeId fwd_requester = kInvalidNode;
  };
  [[nodiscard]] std::optional<EntryView> entry_of(LineAddr line) const;

  /// Test hooks.
  [[nodiscard]] std::optional<DirState> dir_state_of(LineAddr line) const;
  [[nodiscard]] SharerMask sharers_of(LineAddr line) const;
  [[nodiscard]] NodeId owner_of(LineAddr line) const;
  /// Test hook: validation version of the L2 copy (0 if absent).
  [[nodiscard]] std::uint32_t version_of(LineAddr line) const;

  // --- Functional warm-up (SMARTS fast-forward; cmp/sampling.cpp) ----------
  // Directory-side effect of one load/store applied instantly: no messages,
  // no latency, no stat bumps. Only legal while the machine is drained (no
  // in-flight transactions anywhere), so no Busy*/MemTxn state can exist on
  // the touched lines. Effects on other tiles' L1 copies are delegated to
  // the caller-supplied callbacks (the directory cannot reach them).

  /// L1-side install the caller must apply for the accessing core.
  struct WarmGrant {
    L1State l1_state = L1State::kS;
    std::uint32_t version = 0;
  };
  // Callbacks name the line explicitly: the functional L2-eviction path
  // recalls copies of the *victim* line, not the accessed one.
  using WarmVersionFn = std::function<std::uint32_t(NodeId, LineAddr)>;
  using WarmDropFn = std::function<void(NodeId, LineAddr)>;
  using WarmDowngradeFn = std::function<void(NodeId, LineAddr)>;
  /// Apply the protocol's end state for a warm load/store by `core` (which
  /// must not already hold sufficient permission). Maintains inclusivity and
  /// version monotonicity: functional L2 evictions recall L1 copies via
  /// `l1_drop`, reading the owner's version via `l1_version`; warm loads on
  /// an Exclusive line downgrade the owner via `l1_downgrade`.
  WarmGrant warm_access(LineAddr line, NodeId core, bool is_write,
                        const WarmVersionFn& l1_version,
                        const WarmDropFn& l1_drop,
                        const WarmDowngradeFn& l1_downgrade);
  /// Functional writeback of a warm L1 eviction (M or E line): clears the
  /// owner exactly as the PutM/PutE exchange would have.
  void warm_writeback(LineAddr line, NodeId owner, bool was_modified,
                      std::uint32_t version);

  /// Checkpoint serialization (common/snapshot.hpp): the directory array
  /// (entries with their pending queues), both latency pipes, in-flight
  /// memory transactions, the off-chip version map and occupancy gauges.
  template <typename Ar>
  void snapshot_io(Ar& ar) {
    ar.section("dir");
    ar.verify(id_);
    ar.verify(n_nodes_);
    ar.field(cfg_.memory_latency);  // warmup/measured boundary state
    ar.field(array_);
    ar.field(access_pipe_);
    ar.field(memory_pipe_);
    ar.field(mem_txns_);
    ar.field(memory_versions_);
    ar.field(busy_lines_);
    ar.field(queued_msgs_);
    ar.field(now_);
  }

 private:
  /// Requests parked on a busy line or in-flight fill: almost always empty,
  /// rarely more than a couple deep, so a small-buffer queue keeps the
  /// common case allocation-free.
  using PendingQueue = SmallQueue<CoherenceMsg, 2>;

  struct DirEntry {
    DirState state = DirState::kInvalid;
    SharerMask sharers;  ///< full-map bit vector (up to SharerMask::kMaxNodes)
    NodeId owner = kInvalidNode;
    NodeId fwd_requester = kInvalidNode;  ///< requester of an in-flight forward
    bool l2_dirty = false;      ///< line dirty w.r.t. off-chip memory
    bool held_put_ack = false;  ///< PutAck deferred until the busy resolves
    /// BusyExcl only: the forward requester (new owner) wrote the line back
    /// before the old owner's AckRevision arrived, so the AckRevision must
    /// resolve the entry to Invalid instead of installing the requester.
    bool fwd_put = false;
    std::uint32_t version = 0;  ///< data-flow validation version
    std::uint16_t recall_acks_pending = 0;
    PendingQueue pending;  ///< requests queued while busy

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(state);
      ar.field(sharers);
      ar.field(owner);
      ar.field(fwd_requester);
      ar.field(l2_dirty);
      ar.field(held_put_ack);
      ar.field(fwd_put);
      ar.field(version);
      ar.field(recall_acks_pending);
      ar.field(pending);
    }
  };
  using Array = CacheArray<DirEntry, DirKey>;

  /// Off-chip fetch in flight for a line not present in L2.
  struct MemTxn {
    bool fill_arrived = false;
    PendingQueue pending;

    template <typename Ar>
    void snapshot_io(Ar& ar) {
      ar.field(fill_arrived);
      ar.field(pending);
    }
  };

  void send(CoherenceMsg msg);
  [[nodiscard]] DirKey key_of(LineAddr line) const;
  [[nodiscard]] LineAddr line_of_key(DirKey key) const;
  void process(const CoherenceMsg& msg);
  void handle_request(const CoherenceMsg& msg);
  void handle_request_hit(const CoherenceMsg& msg, Array::Line& l);
  void handle_put(const CoherenceMsg& msg);
  void handle_revision(const CoherenceMsg& msg);
  void handle_inv_ack(const CoherenceMsg& msg);

  void start_fill(LineAddr line, const CoherenceMsg& first);
  void try_install_fill(LineAddr line);
  void retry_blocked_fills();
  void start_recall(Array::Line& l);
  void finish_recall(Array::Line& l);
  void drain_pending(PendingQueue msgs);

  void reply_data(const CoherenceMsg& req, MsgType type, std::uint16_t acks,
                  std::uint32_t version);
  void send_partial_reply(NodeId requester, LineAddr line);
  void release_put_ack(LineAddr line, NodeId owner);
  void send_invs(LineAddr line, const SharerMask& sharers, NodeId collector,
                 Unit ack_unit);

  [[nodiscard]] static bool is_busy(DirState s) {
    return s == DirState::kBusyShared || s == DirState::kBusyExcl ||
           s == DirState::kBusyRecall;
  }

  NodeId id_;
  unsigned n_nodes_;
  Config cfg_;
  Array array_;
  StatRegistry* stats_;
  // tcmplint: snapshot-exempt (send callback wired by the system constructor)
  MsgSink sink_;
  obs::ProtocolHooks* hooks_ = nullptr;

  // FIFO pipes, not heaps: each is pushed with a per-instance-constant
  // latency at non-decreasing `now`, so deadlines are monotone (the memory
  // latency only ever increases, at the warmup/measurement boundary, which
  // preserves monotonicity; the push-side debug check enforces it).
  FifoDelayQueue<CoherenceMsg> access_pipe_;  ///< models the L2 access latency
  FifoDelayQueue<LineAddr> memory_pipe_;      ///< off-chip fills in flight
  std::unordered_map<LineAddr, MemTxn> mem_txns_;
  /// Validation versions of lines written back to off-chip memory.
  std::unordered_map<LineAddr, std::uint32_t> memory_versions_;
  unsigned busy_lines_ = 0;    ///< dir entries in a Busy* state
  unsigned queued_msgs_ = 0;   ///< requests parked on busy lines / fills
  Cycle now_{0};
  // Interned stat handles (hot path: every processed message).
  CounterRef l2_accesses_;
  CounterRef l2_evictions_;
  CounterRef mem_reads_;
  CounterRef mem_writebacks_;
  CounterRef queued_on_fill_;
  CounterRef queued_on_busy_;
  CounterRef instr_fetches_;
  CounterRef invalidations_sent_;
  CounterRef cache_to_cache_;
  CounterRef upgrades_granted_;
  CounterRef stale_puts_;
  CounterRef puts_accepted_;
  CounterRef held_put_acks_;
  CounterRef fwd_owner_puts_;
  CounterRef dropped_revisions_;
  CounterRef recalls_;
};

}  // namespace tcmp::protocol

#include "protocol/directory.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/check.hpp"

namespace tcmp::protocol {

Directory::Directory(NodeId id, const Config& cfg, unsigned n_nodes,
                     bool reply_partitioning, StatRegistry* stats, MsgSink sink)
    : id_(id),
      n_nodes_(n_nodes),
      reply_partitioning_(reply_partitioning),
      cfg_(cfg),
      array_(cfg.sets, cfg.ways),
      stats_(stats),
      sink_(std::move(sink)) {
  TCMP_CHECK(stats_ != nullptr && sink_ != nullptr);
  TCMP_CHECK(n_nodes_ <= SharerMask::kMaxNodes);  // full-map sharer width
  l2_accesses_ = stats_->counter_ref("l2.accesses");
  l2_evictions_ = stats_->counter_ref("l2.evictions");
  mem_reads_ = stats_->counter_ref("mem.reads");
  mem_writebacks_ = stats_->counter_ref("mem.writebacks");
  queued_on_fill_ = stats_->counter_ref("dir.queued_on_fill");
  queued_on_busy_ = stats_->counter_ref("dir.queued_on_busy");
  instr_fetches_ = stats_->counter_ref("dir.instr_fetches");
  invalidations_sent_ = stats_->counter_ref("dir.invalidations_sent");
  cache_to_cache_ = stats_->counter_ref("dir.cache_to_cache");
  upgrades_granted_ = stats_->counter_ref("dir.upgrades_granted");
  stale_puts_ = stats_->counter_ref("dir.stale_puts");
  puts_accepted_ = stats_->counter_ref("dir.puts_accepted");
  held_put_acks_ = stats_->counter_ref("dir.held_put_acks");
  fwd_owner_puts_ = stats_->counter_ref("dir.fwd_owner_puts");
  dropped_revisions_ = stats_->counter_ref("dir.dropped_revisions");
  recalls_ = stats_->counter_ref("dir.recalls");
}

void Directory::send(CoherenceMsg msg) {
  msg.src = id_;
  sink_(msg);
}

// Lines are interleaved across home slices (home = line % n); the slice's
// array indexes the home-stripped line number so all sets are usable.
DirKey Directory::key_of(LineAddr line) const {
  TCMP_DCHECK(line.value() % n_nodes_ == id_);
  return DirKey{line.value() / n_nodes_};
}
LineAddr Directory::line_of_key(DirKey key) const {
  return LineAddr{key.value() * n_nodes_ + id_};
}

Cycle Directory::deliver(const CoherenceMsg& msg, Cycle now) {
  const Cycle due = now + cfg_.l2_latency;
  access_pipe_.push(due, msg);
  return due;
}

void Directory::tick(Cycle now) {
  now_ = now;
  while (auto msg = access_pipe_.pop_ready(now)) process(*msg);
  while (auto line = memory_pipe_.pop_ready(now)) {
    auto it = mem_txns_.find(*line);
    TCMP_CHECK(it != mem_txns_.end());
    it->second.fill_arrived = true;
    try_install_fill(*line);
  }
}

Cycle Directory::next_event() const {
  return std::min(access_pipe_.next_ready(), memory_pipe_.next_ready());
}

bool Directory::quiescent() const {
  return access_pipe_.empty() && memory_pipe_.empty() && mem_txns_.empty() &&
         busy_lines_ == 0 && queued_msgs_ == 0;
}

std::optional<Directory::EntryView> Directory::entry_of(LineAddr line) const {
  const auto* l = array_.find(key_of(line));
  if (l == nullptr) return std::nullopt;
  return EntryView{l->payload.state, l->payload.sharers, l->payload.owner,
                   l->payload.fwd_requester};
}

std::optional<DirState> Directory::dir_state_of(LineAddr line) const {
  const auto* l = array_.find(key_of(line));
  if (l == nullptr) return std::nullopt;
  return l->payload.state;
}

SharerMask Directory::sharers_of(LineAddr line) const {
  const auto* l = array_.find(key_of(line));
  return l != nullptr ? l->payload.sharers : SharerMask{};
}

NodeId Directory::owner_of(LineAddr line) const {
  const auto* l = array_.find(key_of(line));
  return l != nullptr ? l->payload.owner : kInvalidNode;
}

std::uint32_t Directory::version_of(LineAddr line) const {
  const auto* l = array_.find(key_of(line));
  return l != nullptr ? l->payload.version : 0;
}

std::size_t Directory::parked_on(LineAddr line) const {
  const auto it = parked_.find(line);
  return it != parked_.end() ? it->second.size() : 0;
}

void Directory::process(const CoherenceMsg& msg) {
  ++l2_accesses_;
  if (hooks_ != nullptr) [[unlikely]] {
    hooks_->dir_msg_processed(id_, msg);
  }
  switch (msg.type) {
    case MsgType::kGetS:
    case MsgType::kGetX:
    case MsgType::kUpgrade:
    case MsgType::kGetInstr:
      handle_request(msg);
      break;
    case MsgType::kPutE:
    case MsgType::kPutM:
      handle_put(msg);
      break;
    case MsgType::kRevision:
    case MsgType::kAckRevision:
      handle_revision(msg);
      break;
    case MsgType::kInvAck:
      handle_inv_ack(msg);
      break;
    default:
      TCMP_CHECK_MSG(false, "message type not handled by directory");
  }
}

void Directory::handle_request(const CoherenceMsg& msg) {
  const LineAddr line = msg.line;
  TCMP_DCHECK(line.value() % n_nodes_ == id_);

  if (mem_txns_.contains(line)) {
    park(msg);
    ++queued_on_fill_;
    return;
  }
  auto* l = array_.find(key_of(line));
  if (l == nullptr) {
    start_fill(line, msg);
    return;
  }
  if (msg.type == MsgType::kGetInstr) {
    // Instruction lines are read-only and fetched outside the directory:
    // reply from the L2 copy without touching coherence state (valid even
    // while the line is busy on the data side).
    array_.touch(*l);
    CoherenceMsg rsp;
    rsp.type = MsgType::kData;
    rsp.dst = msg.requester;
    rsp.dst_unit = Unit::kL1I;
    rsp.line = line;
    rsp.requester = msg.requester;
    rsp.version = l->payload.version;
    send(rsp);
    ++instr_fetches_;
    return;
  }
  if (is_busy(l->payload.state)) {
    park(msg);
    ++queued_on_busy_;
    return;
  }
  handle_request_hit(msg, *l);
}

void Directory::send_partial_reply(NodeId requester, LineAddr line) {
  if (!reply_partitioning_) return;
  CoherenceMsg partial;
  partial.type = MsgType::kPartialReply;
  partial.dst = requester;
  partial.dst_unit = Unit::kL1;
  partial.line = line;
  partial.requester = requester;
  send(partial);
}

void Directory::reply_data(const CoherenceMsg& req, MsgType type, std::uint16_t acks,
                           std::uint32_t version) {
  CoherenceMsg rsp;
  rsp.type = type;
  rsp.dst = req.requester;
  rsp.dst_unit = Unit::kL1;
  rsp.line = req.line;
  rsp.requester = req.requester;
  rsp.ack_count = acks;
  rsp.version = version;
  send(rsp);
}

void Directory::send_invs(LineAddr line, const SharerMask& sharers,
                          NodeId collector, Unit ack_unit) {
  for (unsigned n = 0; n < n_nodes_; ++n) {
    if (sharers.test(n)) {
      CoherenceMsg inv;
      inv.type = MsgType::kInv;
      inv.dst = static_cast<NodeId>(n);
      inv.dst_unit = Unit::kL1;
      inv.line = line;
      inv.requester = collector;
      inv.ack_unit = ack_unit;
      send(inv);
      ++invalidations_sent_;
    }
  }
}

void Directory::handle_request_hit(const CoherenceMsg& msg, Array::Line& l) {
  array_.touch(l);
  DirEntry& e = l.payload;
  const LineAddr line = msg.line;
  const NodeId req = msg.requester;

  if (msg.type == MsgType::kGetS) {
    switch (e.state) {
      case DirState::kInvalid:
        // MESI: grant Exclusive when nobody else holds the line.
        send_partial_reply(req, line);
        reply_data(msg, MsgType::kDataExcl, 0, e.version);
        e.state = DirState::kExclusive;
        e.owner = req;
        break;
      case DirState::kShared:
        send_partial_reply(req, line);
        reply_data(msg, MsgType::kData, 0, e.version);
        e.sharers.set(req);
        break;
      case DirState::kExclusive: {
        TCMP_CHECK_MSG(e.owner != req, "owner re-requesting its own line");
        CoherenceMsg fwd;
        fwd.type = MsgType::kFwdGetS;
        fwd.dst = e.owner;
        fwd.dst_unit = Unit::kL1;
        fwd.line = line;
        fwd.requester = req;
        send(fwd);
        e.state = DirState::kBusyShared;
        e.fwd_requester = req;
        ++busy_lines_;
        ++cache_to_cache_;
        break;
      }
      default:
        TCMP_CHECK(false);
    }
    return;
  }

  // GetX / Upgrade.
  switch (e.state) {
    case DirState::kInvalid:
      reply_data(msg, MsgType::kDataExcl, 0, e.version);
      e.state = DirState::kExclusive;
      e.owner = req;
      break;
    case DirState::kShared: {
      const SharerMask others = e.sharers.without(req);
      const auto acks = static_cast<std::uint16_t>(others.count());
      if (msg.type == MsgType::kUpgrade && e.sharers.test(req)) {
        reply_data(msg, MsgType::kUpgradeAck, acks, e.version);
        ++upgrades_granted_;
      } else {
        // GetX, or a stale Upgrade whose sharer copy was invalidated.
        reply_data(msg, MsgType::kDataExcl, acks, e.version);
      }
      send_invs(line, others, req, Unit::kL1);
      e.state = DirState::kExclusive;
      e.owner = req;
      e.sharers.clear();
      break;
    }
    case DirState::kExclusive: {
      TCMP_CHECK_MSG(e.owner != req, "owner re-requesting exclusivity");
      CoherenceMsg fwd;
      fwd.type = MsgType::kFwdGetX;
      fwd.dst = e.owner;
      fwd.dst_unit = Unit::kL1;
      fwd.line = line;
      fwd.requester = req;
      send(fwd);
      e.state = DirState::kBusyExcl;
      e.fwd_requester = req;
      ++busy_lines_;
      ++cache_to_cache_;
      break;
    }
    default:
      TCMP_CHECK(false);
  }
}

void Directory::handle_put(const CoherenceMsg& msg) {
  const LineAddr line = msg.line;
  auto* l = array_.find(key_of(line));

  CoherenceMsg ack;
  ack.type = MsgType::kPutAck;
  ack.dst = msg.src;
  ack.dst_unit = Unit::kL1;
  ack.line = line;

  if (l == nullptr) {
    // The line was recalled and evicted while this Put was in flight; the
    // recall response already carried the data.
    ++stale_puts_;
    send(ack);
    return;
  }
  DirEntry& e = l->payload;
  if (e.state == DirState::kExclusive && e.owner == msg.src) {
    if (msg.type == MsgType::kPutM) {
      e.l2_dirty = true;
      TCMP_CHECK_MSG(msg.version >= e.version, "writeback lost an update");
      e.version = msg.version;
    } else {
      TCMP_CHECK_MSG(msg.version == e.version, "clean PutE version mismatch");
    }
    e.state = DirState::kInvalid;
    e.owner = kInvalidNode;
    ++puts_accepted_;
    send(ack);
    return;
  }
  if (is_busy(e.state) && e.owner == msg.src) {
    // The Put crossed a forward/recall we already sent to this owner. The
    // owner will service that forward from its eviction buffer and answer
    // with a (Ack)Revision. Hold the PutAck until then: acknowledging now
    // would let the ack (response network) overtake the forward (command
    // network) and tear down the eviction buffer the forward needs.
    TCMP_CHECK(!e.held_put_ack);
    e.held_put_ack = true;
    if (msg.type == MsgType::kPutM) {
      e.l2_dirty = true;
      TCMP_CHECK_MSG(msg.version >= e.version, "crossing writeback lost an update");
      e.version = std::max(e.version, msg.version);
    }
    ++held_put_acks_;
    return;
  }
  if (e.state == DirState::kBusyExcl && e.fwd_requester == msg.src) {
    // The NEW owner installed M through the in-flight FwdGetX, evicted, and
    // its writeback beat the old owner's AckRevision home (three tiles,
    // three independent network paths). Nothing is in flight toward the new
    // owner, so acknowledge now — but remember that ownership already
    // returned, so the AckRevision resolves this entry to Invalid instead of
    // installing a tile that no longer holds the line.
    TCMP_CHECK(!e.fwd_put);
    TCMP_CHECK_MSG(msg.type == MsgType::kPutM, "FwdGetX target evicted clean");
    e.fwd_put = true;
    e.l2_dirty = true;
    TCMP_CHECK_MSG(msg.version >= e.version, "forward-put lost an update");
    e.version = msg.version;
    ++fwd_owner_puts_;
    send(ack);
    return;
  }
  // Stale Put: the owner already yielded through a forward/recall crossing
  // whose resolution raced ahead of this Put. Nothing can be in flight
  // toward the old owner anymore, so acknowledge immediately.
  ++stale_puts_;
  send(ack);
}

void Directory::release_put_ack(LineAddr line, NodeId owner) {
  CoherenceMsg ack;
  ack.type = MsgType::kPutAck;
  ack.dst = owner;
  ack.dst_unit = Unit::kL1;
  ack.line = line;
  send(ack);
}

void Directory::handle_revision(const CoherenceMsg& msg) {
  const LineAddr line = msg.line;
  auto* l = array_.find(key_of(line));
  if (l == nullptr) {
    // Recall completed via a crossing Put; this Revision is the echo.
    TCMP_CHECK(msg.type == MsgType::kRevision);
    ++dropped_revisions_;
    return;
  }
  DirEntry& e = l->payload;
  const bool release_ack = e.held_put_ack;
  const NodeId old_owner = e.owner;
  switch (e.state) {
    case DirState::kBusyShared: {
      TCMP_CHECK(msg.type == MsgType::kRevision);
      TCMP_CHECK_MSG(msg.version >= e.version, "revision lost an update");
      e.version = std::max(e.version, msg.version);
      e.l2_dirty = e.l2_dirty || msg.dirty_data;
      e.state = DirState::kShared;
      --busy_lines_;
      // The old owner stays listed; if it yielded from its eviction buffer
      // the entry is merely a stale sharer (tolerated by the protocol).
      e.sharers = SharerMask::of(e.owner, e.fwd_requester);
      e.owner = kInvalidNode;
      e.held_put_ack = false;
      if (release_ack) release_put_ack(line, old_owner);
      drain_pending(line);
      break;
    }
    case DirState::kBusyExcl:
      TCMP_CHECK(msg.type == MsgType::kAckRevision);
      if (e.fwd_put) {
        // The forward requester already wrote the line back (handle_put):
        // ownership is home again, nobody holds a copy.
        e.fwd_put = false;
        e.state = DirState::kInvalid;
        e.owner = kInvalidNode;
      } else {
        e.state = DirState::kExclusive;
        e.owner = e.fwd_requester;
      }
      --busy_lines_;
      e.held_put_ack = false;
      if (release_ack) release_put_ack(line, old_owner);
      drain_pending(line);
      break;
    case DirState::kBusyRecall:
      TCMP_CHECK(msg.type == MsgType::kRevision);
      TCMP_CHECK_MSG(msg.src == e.owner, "recall response from non-owner");
      TCMP_CHECK_MSG(msg.version >= e.version, "recalled line lost an update");
      e.version = std::max(e.version, msg.version);
      e.l2_dirty = e.l2_dirty || msg.dirty_data;
      e.held_put_ack = false;
      if (release_ack) release_put_ack(line, old_owner);
      finish_recall(*l);
      break;
    default:
      TCMP_CHECK_MSG(false, "revision in a non-busy directory state");
  }
}

void Directory::handle_inv_ack(const CoherenceMsg& msg) {
  // Inv-acks reach the directory only as the collector of an eviction recall
  // of a Shared line.
  auto* l = array_.find(key_of(msg.line));
  TCMP_CHECK_MSG(l != nullptr && l->payload.state == DirState::kBusyRecall,
                 "stray InvAck at directory");
  DirEntry& e = l->payload;
  TCMP_CHECK(e.recall_acks_pending > 0);
  if (--e.recall_acks_pending == 0) finish_recall(*l);
}

void Directory::start_fill(LineAddr line, const CoherenceMsg& first) {
  park(first);
  mem_txns_.emplace(line, MemTxn{});
  memory_pipe_.push(now_ + cfg_.memory_latency, line);
  ++mem_reads_;
}

void Directory::try_install_fill(LineAddr line) {
  auto it = mem_txns_.find(line);
  if (it == mem_txns_.end() || !it->second.fill_arrived) return;

  // Find an evictable way: invalid first, then the LRU non-busy line.
  const DirKey key = key_of(line);
  Array::Line* victim = nullptr;
  for (auto& cand : array_.set_lines(key)) {
    if (!cand.valid) {
      victim = &cand;
      break;
    }
  }
  if (victim == nullptr) {
    for (auto& cand : array_.set_lines(key)) {
      if (is_busy(cand.payload.state)) continue;
      if (victim == nullptr || cand.lru_stamp < victim->lru_stamp) victim = &cand;
    }
    if (victim == nullptr) return;  // every way busy: retried on completion
  }

  if (victim->valid) {
    DirEntry& ve = victim->payload;
    if (is_busy(ve.state)) return;  // retried when the recall completes
    if (ve.state == DirState::kShared || ve.state == DirState::kExclusive) {
      start_recall(*victim);
      return;  // retried by retry_blocked_fills after the recall completes
    }
    TCMP_CHECK(ve.state == DirState::kInvalid);
    if (ve.l2_dirty) ++mem_writebacks_;
    const LineAddr vline = line_of_key(array_.address_of(*victim));
    memory_versions_[vline] = ve.version;
    TCMP_CHECK_MSG(!parked_.contains(vline), "evicting a line with queued requests");
    array_.invalidate(*victim);
    ++l2_evictions_;
  }

  array_.fill(*victim, key);
  if (auto mv = memory_versions_.find(line); mv != memory_versions_.end()) {
    victim->payload.version = mv->second;
  }
  mem_txns_.erase(it);
  drain_pending(line);
}

void Directory::start_recall(Array::Line& l) {
  DirEntry& e = l.payload;
  const LineAddr line = line_of_key(array_.address_of(l));
  TCMP_CHECK(e.state == DirState::kShared || e.state == DirState::kExclusive);
  ++recalls_;
  if (e.state == DirState::kShared) {
    e.recall_acks_pending = static_cast<std::uint16_t>(e.sharers.count());
    TCMP_CHECK(e.recall_acks_pending > 0);
    send_invs(line, e.sharers, /*collector=*/id_, Unit::kDir);
    e.sharers.clear();
  } else {
    CoherenceMsg recall;
    recall.type = MsgType::kRecall;
    recall.dst = e.owner;
    recall.dst_unit = Unit::kL1;
    recall.line = line;
    recall.requester = id_;
    send(recall);
  }
  e.state = DirState::kBusyRecall;
  ++busy_lines_;
}

Directory::WarmGrant Directory::warm_access(LineAddr line, NodeId core,
                                            bool is_write,
                                            const WarmVersionFn& l1_version,
                                            const WarmDropFn& l1_drop,
                                            const WarmDowngradeFn& l1_downgrade) {
  TCMP_DCHECK(line.value() % n_nodes_ == id_);
  const DirKey key = key_of(line);
  TCMP_DCHECK(mem_txns_.find(line) == mem_txns_.end());
  Array::Line* l = array_.find(key);
  if (l == nullptr) {
    // Functional L2 fill. The eviction path mirrors try_install_fill +
    // recall, collapsed to its end state: drop (and for an owner, harvest
    // the version of) every L1 copy, record the memory writeback version,
    // install the new line at the version memory last saw.
    Array::Line* victim = array_.victim(key);
    if (victim->valid) {
      DirEntry& ve = victim->payload;
      const LineAddr vline = line_of_key(array_.address_of(*victim));
      TCMP_CHECK_MSG(!is_busy(ve.state) && !parked_.contains(vline),
                     "warm L2 eviction hit an in-flight transaction (the "
                     "machine was not drained)");
      std::uint32_t v = ve.version;
      if (ve.state == DirState::kShared) {
        for (unsigned n = 0; n < n_nodes_; ++n)
          if (ve.sharers.test(n)) l1_drop(NodeId{n}, vline);
      } else if (ve.state == DirState::kExclusive) {
        v = std::max(v, l1_version(ve.owner, vline));
        l1_drop(ve.owner, vline);
      }
      memory_versions_[vline] = v;
      array_.invalidate(*victim);
    }
    array_.fill(*victim, key);
    if (auto mv = memory_versions_.find(line); mv != memory_versions_.end()) {
      victim->payload.version = mv->second;
    }
    l = victim;
  }
  array_.touch(*l);
  DirEntry& e = l->payload;
  TCMP_CHECK_MSG(!is_busy(e.state),
                 "warm access hit a busy line (the machine was not drained)");

  if (!is_write) {
    switch (e.state) {
      case DirState::kInvalid:
        // MESI: grant Exclusive when nobody else holds the line.
        e.state = DirState::kExclusive;
        e.owner = core;
        return WarmGrant{L1State::kE, e.version};
      case DirState::kShared:
        e.sharers.set(core);
        return WarmGrant{L1State::kS, e.version};
      case DirState::kExclusive: {
        // Functional FwdGetS + Revision: the owner downgrades to S and its
        // (possibly newer) version becomes the L2 copy's.
        TCMP_CHECK(e.owner != core);
        const std::uint32_t v = std::max(e.version, l1_version(e.owner, line));
        l1_downgrade(e.owner, line);
        e.version = v;
        e.l2_dirty = true;
        e.state = DirState::kShared;
        e.sharers.clear();
        e.sharers.set(e.owner);
        e.sharers.set(core);
        e.owner = kInvalidNode;
        return WarmGrant{L1State::kS, v};
      }
      default:
        TCMP_CHECK(false);
        return WarmGrant{};
    }
  }

  // Warm store: every other copy is dropped and `core` becomes the owner.
  std::uint32_t v = e.version;
  if (e.state == DirState::kShared) {
    for (unsigned n = 0; n < n_nodes_; ++n)
      if (e.sharers.test(n) && NodeId{n} != core) l1_drop(NodeId{n}, line);
  } else if (e.state == DirState::kExclusive) {
    TCMP_CHECK(e.owner != core);
    v = std::max(v, l1_version(e.owner, line));
    l1_drop(e.owner, line);
    e.version = v;
    e.l2_dirty = true;
  }
  e.state = DirState::kExclusive;
  e.owner = core;
  e.sharers.clear();
  // The store bumps the new holder's version past everything seen so far.
  return WarmGrant{L1State::kM, v + 1};
}

void Directory::warm_writeback(LineAddr line, NodeId owner, bool was_modified,
                               std::uint32_t version) {
  Array::Line* l = array_.find(key_of(line));
  TCMP_CHECK_MSG(l != nullptr, "warm writeback of a line not resident in L2 "
                               "(inclusivity violated)");
  DirEntry& e = l->payload;
  TCMP_CHECK(e.state == DirState::kExclusive && e.owner == owner);
  e.state = DirState::kInvalid;
  e.owner = kInvalidNode;
  if (was_modified) {
    e.version = version;
    e.l2_dirty = true;
  }
}

void Directory::finish_recall(Array::Line& l) {
  DirEntry& e = l.payload;
  TCMP_CHECK(e.state == DirState::kBusyRecall);
  --busy_lines_;
  if (e.l2_dirty) ++mem_writebacks_;
  const LineAddr line = line_of_key(array_.address_of(l));
  memory_versions_[line] = e.version;
  array_.invalidate(l);
  ++l2_evictions_;
  drain_pending(line);
  retry_blocked_fills();
}

void Directory::retry_blocked_fills() {
  // Snapshot first: try_install_fill erases from (and drain_pending may
  // insert into) mem_txns_.
  std::vector<LineAddr> ready;
  ready.reserve(mem_txns_.size());
  // tcmplint: order-insensitive (collect-only; the snapshot is sorted below)
  for (const auto& [fill_line, txn] : mem_txns_)
    if (txn.fill_arrived) ready.push_back(fill_line);
  // Replay in address order so the install sequence does not depend on the
  // hash table's bucket layout (installs can evict, so order is visible).
  std::sort(ready.begin(), ready.end());
  for (LineAddr fill_line : ready) try_install_fill(fill_line);
}

void Directory::park(const CoherenceMsg& msg) {
  parked_[msg.line].push_back(msg);
  ++queued_msgs_;
}

void Directory::drain_pending(LineAddr line) {
  auto parked = parked_.extract(line);
  if (parked.empty()) return;
  PendingQueue& msgs = parked.mapped();
  TCMP_CHECK(queued_msgs_ >= msgs.size());
  queued_msgs_ -= static_cast<unsigned>(msgs.size());
  // The queue left the table before the replay, so handle_request cannot
  // append to it: a request that parks again starts the line's fresh queue.
  while (!msgs.empty()) {
    handle_request(msgs.front());
    msgs.pop_front();
  }
}

}  // namespace tcmp::protocol

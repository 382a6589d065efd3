#include "protocol/l1_cache.hpp"

#include "common/check.hpp"

namespace tcmp::protocol {

L1Cache::L1Cache(NodeId id, const Config& cfg, unsigned n_nodes,
                 bool reply_partitioning, StatRegistry* stats, MsgSink sink)
    : id_(id),
      n_nodes_(n_nodes),
      reply_partitioning_(reply_partitioning),
      array_(cfg.sets, cfg.ways),
      stats_(stats),
      sink_(std::move(sink)) {
  TCMP_CHECK(stats_ != nullptr);
  TCMP_CHECK(sink_ != nullptr);
  accesses_ = stats_->counter_ref("l1.accesses");
  read_misses_ = stats_->counter_ref("l1.read_misses");
  write_misses_ = stats_->counter_ref("l1.write_misses");
  upgrade_misses_ = stats_->counter_ref("l1.upgrade_misses");
  retried_accesses_ = stats_->counter_ref("l1.retried_accesses");
  deferred_misses_ = stats_->counter_ref("l1.deferred_misses");
  invalidations_ = stats_->counter_ref("l1.invalidations");
  stale_invs_ = stats_->counter_ref("l1.stale_invs");
  forwards_serviced_ = stats_->counter_ref("l1.forwards_serviced");
  forwards_serviced_in_evict_ =
      stats_->counter_ref("l1.forwards_serviced_in_evict");
  partial_resumes_ = stats_->counter_ref("l1.partial_resumes");
  use_once_fills_ = stats_->counter_ref("l1.use_once_fills");
  silent_s_evictions_ = stats_->counter_ref("l1.silent_s_evictions");
}

void L1Cache::send(CoherenceMsg msg) {
  msg.src = id_;
  sink_(msg);
}

std::optional<L1State> L1Cache::state_of(LineAddr line) const {
  const auto* l = array_.find(line);
  if (l == nullptr) return std::nullopt;
  return l->payload.state;
}

std::uint32_t L1Cache::version_of(LineAddr line) const {
  const auto* l = array_.find(line);
  return l != nullptr ? l->payload.version : 0;
}

void L1Cache::collect_stable_lines(std::uint64_t stripe_mask, std::uint64_t stripe,
                                   std::vector<StableLine>& out) const {
  array_.for_each_valid([&](const Array::Line& l) {
    const LineAddr line = array_.address_of(l);
    if ((line.value() & stripe_mask) == stripe) {
      out.push_back(StableLine{line, l.payload.state, id_});
    }
  });
}

void L1Cache::debug_force_state(LineAddr line, L1State st) {
  auto* l = array_.find(line);
  if (l == nullptr) {
    l = array_.victim(line);
    array_.fill(*l, line);
  }
  l->payload.state = st;
}

void L1Cache::warm_touch(LineAddr line) {
  auto* l = array_.find(line);
  TCMP_DCHECK(l != nullptr);
  array_.touch(*l);
}

void L1Cache::warm_set_state(LineAddr line, L1State st, std::uint32_t version) {
  auto* l = array_.find(line);
  TCMP_CHECK(l != nullptr);
  array_.touch(*l);
  l->payload.state = st;
  l->payload.version = version;
}

void L1Cache::warm_drop(LineAddr line) {
  if (auto* l = array_.find(line)) array_.invalidate(*l);
}

std::optional<L1Cache::WarmEvicted> L1Cache::warm_install(LineAddr line,
                                                          L1State st,
                                                          std::uint32_t version) {
  TCMP_DCHECK(array_.find(line) == nullptr);
  TCMP_DCHECK(quiescent());
  std::optional<WarmEvicted> evicted;
  Array::Line* v = array_.victim(line);
  if (v->valid) {
    evicted = WarmEvicted{array_.address_of(*v), v->payload.state,
                          v->payload.version};
    array_.invalidate(*v);
  }
  array_.fill(*v, line);
  v->payload.state = st;
  v->payload.version = version;
  return evicted;
}

AccessResult L1Cache::access(LineAddr line, bool is_write) {
  ++accesses_;
  auto* l = array_.find(line);
  if (l != nullptr && !mshrs_.contains(line)) {
    array_.touch(*l);
    switch (l->payload.state) {
      case L1State::kM:
        if (is_write) ++l->payload.version;
        return AccessResult::kHit;
      case L1State::kE:
        if (is_write) {
          l->payload.state = L1State::kM;  // silent E->M
          ++l->payload.version;
        }
        return AccessResult::kHit;
      case L1State::kS:
        if (!is_write) return AccessResult::kHit;
        // Write to Shared: upgrade miss. The line stays in the array (S)
        // while the upgrade is outstanding.
        ++upgrade_misses_;
        issue_miss(line, /*is_write=*/true, /*upgrade=*/true);
        return AccessResult::kMiss;
    }
  }
  if (auto it = mshrs_.find(line); it != mshrs_.end()) {
    // Open transaction (the core resumed early on a PartialReply and came
    // back to the line, or a write follows a pending upgrade): block and
    // re-execute after the fill so permissions are re-checked.
    it->second.core_notified = false;  // make install fire the callback
    ++retried_accesses_;
    return AccessResult::kRetry;
  }
  ++(is_write ? write_misses_ : read_misses_);
  if (evict_buf_.contains(line)) {
    // Writeback of this very line still in flight: defer the request until
    // the PutAck drains so the home never sees us as a racing owner.
    TCMP_CHECK_MSG(!deferred_.contains(line), "one outstanding access per line");
    deferred_.emplace(line, is_write);
    ++deferred_misses_;
    return AccessResult::kMiss;
  }
  issue_miss(line, is_write, /*upgrade=*/false);
  return AccessResult::kMiss;
}

void L1Cache::issue_miss(LineAddr line, bool is_write, bool upgrade) {
  TCMP_CHECK_MSG(!mshrs_.contains(line), "duplicate outstanding miss");
  Mshr m;
  m.is_write = is_write;
  m.upgrade = upgrade;
  mshrs_.emplace(line, m);
  if (hooks_ != nullptr) [[unlikely]] {
    hooks_->l1_miss_begin(id_, line, is_write);
  }

  CoherenceMsg req;
  req.type = upgrade ? MsgType::kUpgrade : (is_write ? MsgType::kGetX : MsgType::kGetS);
  req.dst = home_of(line);
  req.line = line;
  req.requester = id_;
  send(req);
}

void L1Cache::deliver(const CoherenceMsg& msg) {
  switch (msg.type) {
    case MsgType::kInv:
      on_inv(msg);
      break;
    case MsgType::kFwdGetS:
    case MsgType::kFwdGetX:
    case MsgType::kRecall:
      on_fwd(msg);
      break;
    case MsgType::kData:
    case MsgType::kDataExcl:
    case MsgType::kUpgradeAck:
    case MsgType::kInvAck:
    case MsgType::kPartialReply:
      on_reply(msg);
      break;
    case MsgType::kPutAck:
      on_put_ack(msg);
      break;
    default:
      TCMP_CHECK_MSG(false, "message type not handled by L1");
  }
}

void L1Cache::on_inv(const CoherenceMsg& msg) {
  const LineAddr line = msg.line;
  CoherenceMsg ack;
  ack.type = MsgType::kInvAck;
  ack.dst = msg.requester;
  ack.dst_unit = msg.ack_unit;
  ack.line = line;
  ack.requester = msg.requester;

  if (auto* l = array_.find(line)) {
    if (auto it = mshrs_.find(line); it != mshrs_.end()) {
      // Upgrade in flight and the line just got invalidated: the home will
      // answer our Upgrade with a full DataExcl (we are no longer a sharer).
      TCMP_CHECK(it->second.upgrade);
      TCMP_CHECK(l->payload.state == L1State::kS);
      it->second.upgrade = false;
      array_.invalidate(*l);
    } else {
      TCMP_CHECK_MSG(l->payload.state == L1State::kS,
                     "Inv must only reach shared copies");
      array_.invalidate(*l);
    }
    ++invalidations_;
  } else if (auto it = mshrs_.find(line); it != mshrs_.end()) {
    Mshr& m = it->second;
    if (!m.is_write) {
      // IS_D: an Inv overtook our Data reply — use the fill once, then drop.
      m.drop_after_fill = true;
    }
    // IM_AD/IM_A: stale Inv for a silently evicted S copy; ack and continue.
  } else {
    // Stale Inv: we silently evicted the shared copy. Still ack.
    ++stale_invs_;
  }
  send(ack);
}

void L1Cache::service_fwd_from_stable(const CoherenceMsg& msg, Array::Line& l) {
  const LineAddr line = msg.line;
  const bool dirty = l.payload.state == L1State::kM;
  const std::uint32_t version = l.payload.version;
  TCMP_CHECK(l.payload.state == L1State::kM || l.payload.state == L1State::kE);

  switch (msg.type) {
    case MsgType::kFwdGetS: {
      send_partial_reply(msg.requester, line);
      CoherenceMsg data;
      data.type = MsgType::kData;
      data.dst = msg.requester;
      data.dst_unit = Unit::kL1;
      data.line = line;
      data.requester = msg.requester;
      data.version = version;
      send(data);
      CoherenceMsg rev;
      rev.type = MsgType::kRevision;
      rev.dst = home_of(line);
      rev.line = line;
      rev.dirty_data = dirty;
      rev.version = version;
      send(rev);
      l.payload.state = L1State::kS;
      break;
    }
    case MsgType::kFwdGetX: {
      CoherenceMsg data;
      data.type = MsgType::kDataExcl;
      data.dst = msg.requester;
      data.dst_unit = Unit::kL1;
      data.line = line;
      data.requester = msg.requester;
      data.ack_count = 0;
      data.version = version;
      send(data);
      CoherenceMsg rev;
      rev.type = MsgType::kAckRevision;
      rev.dst = home_of(line);
      rev.line = line;
      send(rev);
      array_.invalidate(l);
      break;
    }
    case MsgType::kRecall: {
      CoherenceMsg rev;
      rev.type = MsgType::kRevision;
      rev.dst = home_of(line);
      rev.line = line;
      rev.dirty_data = dirty;
      rev.version = version;
      send(rev);
      array_.invalidate(l);
      break;
    }
    default:
      TCMP_CHECK(false);
  }
  ++forwards_serviced_;
}

void L1Cache::service_fwd_from_evict(const CoherenceMsg& msg, EvictEntry& entry) {
  // A forward crossed our writeback: we still hold the line logically; the
  // home will treat our Put as stale. Service the forward, then wait for the
  // stale PutAck.
  const LineAddr line = msg.line;
  TCMP_CHECK_MSG(entry.state != EvictState::kIIA,
                 "forward after ownership already yielded");
  const bool dirty = entry.state == EvictState::kMIA;
  const std::uint32_t version = entry.version;

  switch (msg.type) {
    case MsgType::kFwdGetS: {
      send_partial_reply(msg.requester, line);
      CoherenceMsg data;
      data.type = MsgType::kData;
      data.dst = msg.requester;
      data.dst_unit = Unit::kL1;
      data.line = line;
      data.requester = msg.requester;
      data.version = version;
      send(data);
      CoherenceMsg rev;
      rev.type = MsgType::kRevision;
      rev.dst = home_of(line);
      rev.line = line;
      rev.dirty_data = dirty;
      rev.version = version;
      send(rev);
      break;
    }
    case MsgType::kFwdGetX: {
      CoherenceMsg data;
      data.type = MsgType::kDataExcl;
      data.dst = msg.requester;
      data.dst_unit = Unit::kL1;
      data.line = line;
      data.requester = msg.requester;
      data.version = version;
      send(data);
      CoherenceMsg rev;
      rev.type = MsgType::kAckRevision;
      rev.dst = home_of(line);
      rev.line = line;
      send(rev);
      break;
    }
    case MsgType::kRecall: {
      CoherenceMsg rev;
      rev.type = MsgType::kRevision;
      rev.dst = home_of(line);
      rev.line = line;
      rev.dirty_data = dirty;
      rev.version = version;
      send(rev);
      break;
    }
    default:
      TCMP_CHECK(false);
  }
  entry.state = EvictState::kIIA;
  ++forwards_serviced_in_evict_;
}

void L1Cache::on_fwd(const CoherenceMsg& msg) {
  const LineAddr line = msg.line;
  if (auto* l = array_.find(line)) {
    if (auto it = mshrs_.find(line); it != mshrs_.end()) {
      // Upgrade outstanding on a shared line: park until install completes
      // (the home serialized us as the new owner before this forward).
      it->second.parked_fwd = msg;
      return;
    }
    service_fwd_from_stable(msg, *l);
    return;
  }
  if (auto it = evict_buf_.find(line); it != evict_buf_.end()) {
    service_fwd_from_evict(msg, it->second);
    return;
  }
  if (auto it = mshrs_.find(line); it != mshrs_.end()) {
    // Our GetX/Upgrade was granted at the home, and a later request was
    // forwarded to us before our fill completed. Service it right after.
    TCMP_CHECK_MSG(!it->second.parked_fwd.has_value(),
                   "home must not forward twice to a pending owner");
    it->second.parked_fwd = msg;
    return;
  }
  TCMP_CHECK_MSG(false, "forward to a non-owner");
}

void L1Cache::on_reply(const CoherenceMsg& msg) {
  const LineAddr line = msg.line;
  auto it = mshrs_.find(line);
  if (msg.type == MsgType::kPartialReply) {
    // Stale partials (full reply already completed the miss) are dropped.
    if (it == mshrs_.end()) return;
    Mshr& m = it->second;
    // Only read misses can consume the word early: a store must wait for
    // write permission (exclusivity + acks).
    if (!m.is_write && !m.core_notified) {
      m.core_notified = true;
      ++partial_resumes_;
      if (fill_cb_) fill_cb_(line);
    }
    return;
  }
  TCMP_CHECK_MSG(it != mshrs_.end(), "reply without an outstanding miss");
  Mshr& m = it->second;

  switch (msg.type) {
    case MsgType::kData:
      TCMP_CHECK(!m.is_write);
      m.data_received = true;
      m.grant_exclusive = false;
      m.version = msg.version;
      if (m.acks_expected < 0) m.acks_expected = 0;
      break;
    case MsgType::kDataExcl:
      m.data_received = true;
      m.grant_exclusive = true;
      m.version = msg.version;
      m.acks_expected = msg.ack_count;
      break;
    case MsgType::kUpgradeAck:
      TCMP_CHECK(m.is_write);
      m.data_received = true;  // permission counts as the "data"
      m.grant_exclusive = true;
      m.acks_expected = msg.ack_count;
      break;
    case MsgType::kInvAck:
      ++m.acks_received;
      break;
    default:
      TCMP_CHECK(false);
  }
  maybe_complete(line, m);
}

void L1Cache::maybe_complete(LineAddr line, Mshr& m) {
  if (!m.data_received) return;
  if (m.acks_expected < 0 || m.acks_received < m.acks_expected) return;
  TCMP_CHECK_MSG(m.acks_received == m.acks_expected, "excess invalidation acks");
  install_fill(line, m);
}

void L1Cache::install_fill(LineAddr line, Mshr& m) {
  const Mshr done = m;  // copy: install may evict and mutate the MSHR map
  mshrs_.erase(line);
  if (hooks_ != nullptr) [[unlikely]] {
    hooks_->l1_miss_end(id_, line);
  }

  // The use-once drop applies only to shared grants. An Inv can never target
  // the pending owner of an exclusive grant (the directory invalidates
  // sharers and *forwards* to owners), so a drop flag pending a
  // DataExcl/UpgradeAck was set by an older epoch — e.g. a recall this
  // request was queued behind — and must not discard the grant: the
  // directory has already made this tile the owner.
  const bool use_once = done.drop_after_fill && !done.grant_exclusive;
  if (!use_once) {
    Array::Line* slot = array_.find(line);
    if (slot == nullptr) {
      evict_for(line);
      slot = array_.victim(line);
      TCMP_CHECK(!slot->valid);
      array_.fill(*slot, line);
    } else {
      array_.touch(*slot);
    }
    if (done.is_write) {
      slot->payload.state = L1State::kM;
      // The write that caused the miss commits now. Upgrades keep the local
      // copy's version; fresh exclusivity adopts the transferred version.
      const std::uint32_t base_version =
          std::max(slot->payload.version, done.version);
      slot->payload.version = base_version + 1;
    } else {
      slot->payload.state = done.grant_exclusive ? L1State::kE : L1State::kS;
      TCMP_CHECK_MSG(done.version >= slot->payload.version,
                     "data transfer lost an update");
      slot->payload.version = done.version;
    }
  } else {
    ++use_once_fills_;
  }

  if (fill_cb_ && !done.core_notified) fill_cb_(line);

  if (done.parked_fwd.has_value()) {
    // Service the forward the home sent while we were completing.
    auto* slot = array_.find(line);
    TCMP_CHECK_MSG(slot != nullptr && !use_once,
                   "parked forward requires an installed line");
    service_fwd_from_stable(*done.parked_fwd, *slot);
  }
}

void L1Cache::send_partial_reply(NodeId requester, LineAddr line) {
  if (!reply_partitioning_) return;
  CoherenceMsg partial;
  partial.type = MsgType::kPartialReply;
  partial.dst = requester;
  partial.dst_unit = Unit::kL1;
  partial.line = line;
  partial.requester = requester;
  send(partial);
}

void L1Cache::evict_for(LineAddr incoming_line) {
  Array::Line* v = array_.victim(incoming_line);
  if (!v->valid) return;
  const LineAddr victim_line = array_.address_of(*v);
  TCMP_DCHECK(array_.set_of(victim_line) == array_.set_of(incoming_line));

  switch (v->payload.state) {
    case L1State::kS:
      // Silent: replacement hints are not sent for shared lines (Sec. 4.2).
      ++silent_s_evictions_;
      break;
    case L1State::kE: {
      CoherenceMsg put;
      put.type = MsgType::kPutE;
      put.dst = home_of(victim_line);
      put.line = victim_line;
      put.version = v->payload.version;
      send(put);
      TCMP_CHECK(!evict_buf_.contains(victim_line));
      evict_buf_.emplace(victim_line, EvictEntry{EvictState::kEIA, v->payload.version});
      break;
    }
    case L1State::kM: {
      CoherenceMsg put;
      put.type = MsgType::kPutM;
      put.dst = home_of(victim_line);
      put.line = victim_line;
      put.dirty_data = true;
      put.version = v->payload.version;
      send(put);
      TCMP_CHECK(!evict_buf_.contains(victim_line));
      evict_buf_.emplace(victim_line, EvictEntry{EvictState::kMIA, v->payload.version});
      break;
    }
  }
  array_.invalidate(*v);
}

void L1Cache::on_put_ack(const CoherenceMsg& msg) {
  const LineAddr line = msg.line;
  auto it = evict_buf_.find(line);
  TCMP_CHECK_MSG(it != evict_buf_.end(), "PutAck without an in-flight writeback");
  evict_buf_.erase(it);

  if (auto d = deferred_.find(line); d != deferred_.end()) {
    const bool is_write = d->second;
    deferred_.erase(d);
    issue_miss(line, is_write, /*upgrade=*/false);
  }
}

}  // namespace tcmp::protocol

#include "dsm/node.h"

#include <algorithm>
#include <cassert>

#include "dsm/machine.h"
#include "noc/worm_builder.h"

namespace mdw::dsm {

using core::InvalDirective;
using core::SharerRole;

Node::Node(Machine& machine, NodeId id, const SystemParams& params)
    : machine_(machine), id_(id), p_(params), cache_(params.cache_lines) {}

// ---------------------------------------------------------------------------
// Outgoing controller
// ---------------------------------------------------------------------------

void Node::oc_send(noc::WormPtr worm) {
  const Cycle now = machine_.engine().now();
  const Cycle compose_done =
      std::max(now, oc_free_at_) + static_cast<Cycle>(p_.send_occupancy);
  oc_free_at_ = compose_done;
  stats_.occupancy_cycles += static_cast<std::uint64_t>(p_.send_occupancy);
  ++stats_.msgs_sent;
  machine_.engine().schedule_at(compose_done, [this, worm = std::move(worm)] {
    machine_.network().inject(worm);
  });
}

void Node::send_coh(MsgType t, BlockAddr a, NodeId dst, NodeId requester,
                    TxnId txn, std::uint64_t value) {
  const bool reply = t == MsgType::ReadReply || t == MsgType::WriteReply ||
                     t == MsgType::InvalAck || t == MsgType::RecallData ||
                     t == MsgType::WritebackAck;
  const auto vnet = reply ? noc::VNet::Reply : noc::VNet::Request;
  const auto algo = reply ? p_.reply_algo() : p_.request_algo();
  const int flits = carries_data(t) ? p_.sizing.data_flits
                                    : p_.sizing.control_size(1);
  auto msg = std::make_shared<CohMsg>(t, a, requester, txn, value);
  const bool turn_model = algo == noc::RoutingAlgo::WestFirst ||
                          algo == noc::RoutingAlgo::EastFirst;
  noc::WormPtr worm =
      p_.adaptive_unicast && turn_model && id_ != dst
          ? noc::make_adaptive_unicast(algo, vnet, id_, dst, flits, txn,
                                       std::move(msg))
          : noc::make_unicast(machine_.network().mesh(), algo, vnet, id_, dst,
                              flits, txn, std::move(msg));
  if (reply) worm->vc_class = p_.reply_vc_class();
  oc_send(std::move(worm));
}

// ---------------------------------------------------------------------------
// Processor interface
// ---------------------------------------------------------------------------

void Node::read(BlockAddr a, std::function<void(std::uint64_t)> done) {
  assert(ops_.count(a) == 0 && "one outstanding access per block");
  OutstandingOp op;
  op.is_write = false;
  op.start = machine_.engine().now();
  op.done_read = std::move(done);
  ops_.emplace(a, std::move(op));
  machine_.engine().schedule_after(p_.cache_access, [this, a] {
    if (cache_.lookup(a) != LineState::Invalid) {
      cache_.note_hit();
      complete_op(a, cache_.value_of(a));
      return;
    }
    cache_.note_miss();
    send_coh(MsgType::ReadReq, a, machine_.home_of(a), id_, 0, 0);
  });
}

void Node::write(BlockAddr a, std::uint64_t value, std::function<void()> done) {
  assert(ops_.count(a) == 0 && "one outstanding access per block");
  OutstandingOp op;
  op.is_write = true;
  op.wvalue = value;
  op.start = machine_.engine().now();
  op.done_write = std::move(done);
  ops_.emplace(a, std::move(op));
  machine_.engine().schedule_after(p_.cache_access, [this, a, value] {
    if (cache_.lookup(a) == LineState::Modified) {
      cache_.note_hit();
      cache_.set_value(a, value);
      complete_op(a, value);
      return;
    }
    // Shared (upgrade) and Invalid (miss) both go to the home.
    cache_.note_miss();
    send_coh(MsgType::WriteReq, a, machine_.home_of(a), id_, 0, 0);
  });
}

void Node::complete_op(BlockAddr a, std::uint64_t value) {
  auto it = ops_.find(a);
  assert(it != ops_.end());
  OutstandingOp op = std::move(it->second);
  ops_.erase(it);  // before the callback: it may issue a fresh access
  const Cycle lat = machine_.engine().now() - op.start;
  if (op.is_write) {
    stats_.write_latency.add(static_cast<double>(lat));
    if (op.done_write) op.done_write();
  } else {
    stats_.read_latency.add(static_cast<double>(lat));
    if (op.done_read) op.done_read(value);
  }
}

// ---------------------------------------------------------------------------
// Delivery dispatch
// ---------------------------------------------------------------------------

void Node::handle_delivery(const noc::WormPtr& worm) {
  ++stats_.msgs_received;
  if (worm->kind == noc::WormKind::Gather) {
    // Combined acknowledgment arriving at the home.
    dc_schedule(0, [this, txn = worm->txn, n = worm->gathered] {
      dc_on_ack(txn, n);
    });
    return;
  }
  if (auto dir = std::dynamic_pointer_cast<const InvalDirective>(worm->payload)) {
    cc_invalidation(id_, std::move(dir));
    return;
  }
  auto msg = std::dynamic_pointer_cast<const CohMsg>(worm->payload);
  assert(msg != nullptr);
  switch (msg->type) {
    case MsgType::ReadReq:
    case MsgType::WriteReq:
    case MsgType::InvalAck:
    case MsgType::RecallData:
    case MsgType::Writeback:
      dc_dispatch(std::move(msg));
      break;
    case MsgType::ReadReply:
    case MsgType::WriteReply:
    case MsgType::Recall:
    case MsgType::RecallShare:
    case MsgType::WritebackAck:
      cc_schedule(p_.cache_access, [this, m = std::move(msg)] { cc_reply(*m); });
      break;
  }
}

// ---------------------------------------------------------------------------
// Directory controller
// ---------------------------------------------------------------------------

void Node::dc_schedule(Cycle extra_busy, std::function<void()> fn) {
  const Cycle now = machine_.engine().now();
  const Cycle busy =
      static_cast<Cycle>(p_.recv_occupancy + p_.dir_lookup) + extra_busy;
  const Cycle start = std::max(now, dc_free_at_);
  dc_free_at_ = start + busy;
  stats_.occupancy_cycles += busy;
  machine_.engine().schedule_at(dc_free_at_, std::move(fn));
}

void Node::dc_dispatch(std::shared_ptr<const CohMsg> m) {
  switch (m->type) {
    case MsgType::ReadReq:
      dc_schedule(0, [this, m] { dc_read(m->addr, m->requester); });
      break;
    case MsgType::WriteReq:
      dc_schedule(0, [this, m] { dc_write(m->addr, m->requester); });
      break;
    case MsgType::InvalAck:
      dc_schedule(0, [this, m] { dc_on_ack(m->txn, 1); });
      break;
    case MsgType::RecallData:
      dc_schedule(0, [this, m] {
        dc_on_data(m->addr, m->requester, m->value, /*writeback=*/false);
      });
      break;
    case MsgType::Writeback:
      dc_schedule(0, [this, m] {
        dc_on_data(m->addr, m->requester, m->value, /*writeback=*/true);
      });
      break;
    default:
      assert(false && "not a DC message");
  }
}

void Node::dc_read(BlockAddr a, NodeId requester) {
  DirEntry& e = dir_.entry(a);
  ++dir_.stats().read_reqs;
  switch (e.state) {
    case DirState::Uncached:
    case DirState::Shared: {
      e.state = DirState::Shared;
      e.sharers.insert(requester);
      // Memory access before the data reply leaves.
      machine_.engine().schedule_after(p_.mem_access, [this, a, requester,
                                                       v = e.mem_value] {
        send_coh(MsgType::ReadReply, a, requester, requester, 0, v);
      });
      drain_queue(a);  // keep servicing requests queued behind a Waiting spell
      break;
    }
    case DirState::Exclusive: {
      e.state = DirState::Waiting;
      e.active = PendingReq{requester, false};
      e.recall_outstanding = true;
      e.recall_for_write = false;
      ++dir_.stats().recalls;
      if (e.owner != requester) {
        send_coh(MsgType::RecallShare, a, e.owner, requester, 0, 0);
      }
      // owner == requester: the owner evicted the line; its Writeback is in
      // flight and will complete the recall.
      break;
    }
    case DirState::Waiting:
      e.queue.push_back(PendingReq{requester, false});
      break;
  }
}

void Node::dc_write(BlockAddr a, NodeId requester) {
  DirEntry& e = dir_.entry(a);
  ++dir_.stats().write_reqs;
  switch (e.state) {
    case DirState::Uncached:
      e.active = PendingReq{requester, true};
      grant(a, e);
      break;
    case DirState::Shared: {
      e.sharers.erase(requester);  // upgrade: the requester needs no inval
      if (e.sharers.contains(id_)) {
        // The home's own cached copy is invalidated locally (no message).
        e.sharers.erase(id_);
        if (const auto* op = find_op(a);
            op && !op->is_write && cache_.lookup(a) == LineState::Invalid) {
          // Our own ReadReply is still in flight; drop the line on arrival.
          pending_inval_.insert(a);
        }
        cache_.invalidate(a);
      }
      e.active = PendingReq{requester, true};
      if (e.sharers.empty()) {
        grant(a, e);
      } else {
        e.state = DirState::Waiting;
        enqueue_invalidation(a);
      }
      break;
    }
    case DirState::Exclusive: {
      e.state = DirState::Waiting;
      e.active = PendingReq{requester, true};
      e.recall_outstanding = true;
      e.recall_for_write = true;
      ++dir_.stats().recalls;
      if (e.owner != requester) {
        send_coh(MsgType::Recall, a, e.owner, requester, 0, 0);
      }
      break;
    }
    case DirState::Waiting:
      e.queue.push_back(PendingReq{requester, true});
      break;
  }
}

// ---------------------------------------------------------------------------
// Service layer: per-home invalidation pipeline + coalescing window
// ---------------------------------------------------------------------------
//
// Every needed invalidation passes enqueue -> admit -> launch.  Under the
// default SvcParams (depth 0 = unbounded, window 0 = off) this collapses to
// a synchronous call into start_invalidation — event-for-event identical to
// the pre-service-layer node (pinned by Determinism golden fingerprints).
// The per-block `Waiting` state provides serialization: a block whose
// invalidation is queued, parked, or in flight holds every later request to
// it in its DirEntry queue, so no block ever appears in two transactions.

void Node::enqueue_invalidation(BlockAddr a) {
  const int depth = p_.svc.pipeline_depth;
  if (depth > 0 && live_invals_ >= depth) {
    home_queue_.emplace_back(a, machine_.engine().now());
    ++stats_.svc_enqueued;
    stats_.svc_queue_peak = std::max<std::uint64_t>(stats_.svc_queue_peak,
                                                    home_queue_.size());
    return;
  }
  admit_invalidation(a);
}

void Node::admit_invalidation(BlockAddr a) {
  ++live_invals_;
  stats_.svc_pipeline_peak = std::max<std::uint64_t>(
      stats_.svc_pipeline_peak, static_cast<std::uint64_t>(live_invals_));
  if (p_.svc.coalesce_window == 0) {
    start_invalidation(a, dir_.entry(a));
    return;
  }
  if (coalesce_buf_.empty()) {
    // First entry of a fresh window: arm the window-expiry flush.
    const std::uint64_t epoch = ++coalesce_epoch_;
    machine_.engine().schedule_after(p_.svc.coalesce_window, [this, epoch] {
      if (epoch == coalesce_epoch_) flush_coalesce();
    });
  }
  coalesce_buf_.push_back(a);
  if (p_.svc.pipeline_depth > 0 && live_invals_ >= p_.svc.pipeline_depth) {
    // Pipeline full: nothing further can be admitted into this window, so
    // waiting longer cannot grow the merge.  Flush early.
    flush_coalesce();
  }
}

void Node::flush_coalesce() {
  ++coalesce_epoch_;  // cancel any pending window-expiry flush
  if (coalesce_buf_.empty()) return;
  std::vector<BlockAddr> blocks = std::move(coalesce_buf_);
  coalesce_buf_.clear();
  if (blocks.size() == 1) {
    start_invalidation(blocks.front(), dir_.entry(blocks.front()));
    return;
  }
  launch_merged(std::move(blocks));
}

void Node::launch_merged(std::vector<BlockAddr> blocks) {
  assert(blocks.size() > 1);
  const TxnId wire = machine_.next_txn();

  // One plan over the union of the members' sharer bitmaps.  Members'
  // requesters may appear in the union (as sharers of OTHER members); they
  // are invalidated like any sharer and re-install on their WriteReply.
  core::SharerBitmap uni;
  for (const BlockAddr a : blocks) {
    dir_.entry(a).sharers.for_each([&uni](NodeId n) { uni.insert(n); });
  }
  auto plan = core::plan_invalidation(p_.scheme, machine_.network().mesh(),
                                      id_, uni, wire, p_.sizing);
  InvalDirective& dir = *plan.directive;
  dir.addr = blocks.front();
  dir.requester = dir_.entry(blocks.front()).active.requester;
  dir.merged_addrs = blocks;

  MergedGroup g;
  g.blocks = blocks;
  g.acks_needed = uni.count();
  const Cycle now = machine_.engine().now();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const BlockAddr a = blocks[i];
    DirEntry& e = dir_.entry(a);
    ++dir_.stats().inval_txns;
    // The leader member reuses the wire txn id and carries the plan's worm
    // counts; later members get their own ids with zero worm counts, so
    // aggregate traffic accounting stays truthful.
    const TxnId mtxn = i == 0 ? wire : machine_.next_txn();
    g.member_txns.push_back(mtxn);
    e.txn = wire;
    e.acks_needed = g.acks_needed;
    e.acks_got = 0;

    InvalTxnRecord rec;
    rec.addr = a;
    rec.home = id_;
    rec.sharers = e.sharers.count();  // the member's own pre-merge d
    rec.request_worms = i == 0 ? static_cast<int>(plan.request_worms.size()) : 0;
    rec.ack_messages = i == 0 ? plan.expected_ack_messages : 0;
    rec.total_ack_worms = i == 0 ? plan.total_ack_worms : 0;
    rec.start = now;
    machine_.txn_started(mtxn, rec);
  }
  ++stats_.svc_groups;
  stats_.svc_coalesced_txns += blocks.size();
  groups_.emplace(wire, std::move(g));

  for (auto& w : plan.request_worms) oc_send(std::move(w));

  if (p_.eager_exclusive_reply) {
    for (const BlockAddr a : blocks) {
      DirEntry& e = dir_.entry(a);
      e.eager_granted = true;
      send_coh(MsgType::WriteReply, a, e.active.requester, e.active.requester,
               0, e.mem_value);
    }
  }
}

void Node::release_inval_slots(int n) {
  live_invals_ -= n;
  assert(live_invals_ >= 0);
  const int depth = p_.svc.pipeline_depth;
  while (!home_queue_.empty() && (depth <= 0 || live_invals_ < depth)) {
    const auto [a, enq] = home_queue_.front();
    home_queue_.pop_front();
    stats_.svc_queue_wait_cycles +=
        static_cast<std::uint64_t>(machine_.engine().now() - enq);
    admit_invalidation(a);
  }
}

void Node::group_on_ack(TxnId txn, int count) {
  auto it = groups_.find(txn);
  assert(it != groups_.end());
  MergedGroup& g = it->second;
  g.acks_got += count;
  assert(g.acks_got <= g.acks_needed);
  if (g.acks_got < g.acks_needed) return;
  const MergedGroup done = std::move(it->second);
  groups_.erase(it);
  for (std::size_t i = 0; i < done.blocks.size(); ++i) {
    machine_.txn_finished(done.member_txns[i]);
    complete_member(done.blocks[i], dir_.entry(done.blocks[i]));
  }
  release_inval_slots(static_cast<int>(done.blocks.size()));
}

void Node::complete_member(BlockAddr a, DirEntry& e) {
  e.sharers.clear();
  if (e.eager_granted) {
    // The WriteReply already went out when the transaction started.
    e.eager_granted = false;
    if (e.active.requester == kInvalidNode) {
      e.state = DirState::Uncached;  // writer already wrote back (RC race)
      e.owner = kInvalidNode;
    } else {
      e.state = DirState::Exclusive;
      e.owner = e.active.requester;
    }
    drain_queue(a);
    return;
  }
  grant(a, e);
}

// ---------------------------------------------------------------------------

void Node::start_invalidation(BlockAddr a, DirEntry& e) {
  ++dir_.stats().inval_txns;
  const TxnId txn = machine_.next_txn();
  e.txn = txn;
  e.acks_needed = e.sharers.count();
  e.acks_got = 0;
  txn_addr_[txn] = a;

  auto plan = core::plan_invalidation(p_.scheme, machine_.network().mesh(),
                                      id_, e.sharers, txn, p_.sizing);
  // The directive is shared by every worm of the plan; fill in the
  // protocol-level fields.
  InvalDirective& dir = *plan.directive;
  dir.addr = a;
  dir.requester = e.active.requester;

  InvalTxnRecord rec;
  rec.addr = a;
  rec.home = id_;
  rec.sharers = e.acks_needed;
  rec.request_worms = static_cast<int>(plan.request_worms.size());
  rec.ack_messages = plan.expected_ack_messages;
  rec.total_ack_worms = plan.total_ack_worms;
  rec.start = machine_.engine().now();
  machine_.txn_started(txn, rec);

  for (auto& w : plan.request_worms) oc_send(std::move(w));

  if (p_.eager_exclusive_reply) {
    // Release-consistency overlap: unblock the writer immediately; the
    // entry stays Waiting (other requesters queue) until the acks arrive.
    e.eager_granted = true;
    send_coh(MsgType::WriteReply, a, e.active.requester, e.active.requester,
             0, e.mem_value);
  }
}

void Node::dc_on_ack(TxnId txn, int count) {
  if (groups_.count(txn) > 0) {
    group_on_ack(txn, count);
    return;
  }
  auto it = txn_addr_.find(txn);
  assert(it != txn_addr_.end());
  const BlockAddr a = it->second;
  DirEntry& e = dir_.entry(a);
  assert(e.state == DirState::Waiting && e.txn == txn);
  e.acks_got += count;
  assert(e.acks_got <= e.acks_needed);
  if (e.acks_got < e.acks_needed) return;
  txn_addr_.erase(it);
  machine_.txn_finished(txn);
  complete_member(a, e);
  release_inval_slots(1);
}

void Node::dc_on_data(BlockAddr a, NodeId from, std::uint64_t v,
                      bool writeback) {
  DirEntry& e = dir_.entry(a);
  if (writeback) {
    ++dir_.stats().writebacks;
    send_coh(MsgType::WritebackAck, a, from, from, 0, 0);
  }
  if (e.state == DirState::Waiting && e.eager_granted &&
      from == e.active.requester) {
    // RC mode: the eagerly-granted writer already evicted the line while
    // its invalidation acks are still outstanding.  Absorb the data; the
    // entry goes Uncached when the transaction completes.
    e.mem_value = v;
    e.active.requester = kInvalidNode;
    return;
  }
  if (e.state == DirState::Waiting && e.recall_outstanding && e.owner == from) {
    // Recall response (a crossing Writeback also serves as one; the owner
    // then holds no copy, so it cannot keep a shared copy).
    complete_recall(a, e, v, /*owner_kept_shared_copy=*/!writeback &&
                                 !e.recall_for_write);
    return;
  }
  if (e.state == DirState::Exclusive && e.owner == from) {
    assert(writeback);
    e.mem_value = v;
    e.owner = kInvalidNode;
    e.state = DirState::Uncached;
    return;
  }
  // Stale data message (e.g. RecallData after a crossing Writeback already
  // satisfied the recall): the value is already superseded.
}

void Node::complete_recall(BlockAddr a, DirEntry& e, std::uint64_t v,
                           bool owner_kept_shared_copy) {
  e.mem_value = v;
  e.recall_outstanding = false;
  const NodeId old_owner = e.owner;
  e.owner = kInvalidNode;
  e.sharers.clear();
  if (owner_kept_shared_copy) e.sharers.insert(old_owner);
  grant(a, e);
}

void Node::grant(BlockAddr a, DirEntry& e) {
  const PendingReq req = e.active;
  if (req.is_write) {
    e.state = DirState::Exclusive;
    e.owner = req.requester;
    e.sharers.clear();
    send_coh(MsgType::WriteReply, a, req.requester, req.requester, 0,
             e.mem_value);
  } else {
    e.state = DirState::Shared;
    e.sharers.insert(req.requester);
    machine_.engine().schedule_after(p_.mem_access, [this, a, req,
                                                     v = e.mem_value] {
      send_coh(MsgType::ReadReply, a, req.requester, req.requester, 0, v);
    });
  }
  drain_queue(a);
}

void Node::drain_queue(BlockAddr a) {
  DirEntry& e = dir_.entry(a);
  if (e.state == DirState::Waiting || e.queue.empty()) return;
  const PendingReq next = e.queue.front();
  e.queue.pop_front();
  dc_schedule(0, [this, a, next] {
    if (next.is_write) dc_write(a, next.requester);
    else dc_read(a, next.requester);
  });
}

// ---------------------------------------------------------------------------
// Cache controller
// ---------------------------------------------------------------------------

void Node::cc_schedule(Cycle extra_busy, std::function<void()> fn) {
  const Cycle now = machine_.engine().now();
  const Cycle busy = static_cast<Cycle>(p_.recv_occupancy) + extra_busy;
  const Cycle start = std::max(now, cc_free_at_);
  cc_free_at_ = start + busy;
  stats_.occupancy_cycles += busy;
  machine_.engine().schedule_at(cc_free_at_, std::move(fn));
}

void Node::cc_invalidation(NodeId here,
                           std::shared_ptr<const InvalDirective> dir) {
  // A merged directive invalidates every member block: one reception
  // occupancy, one cache access per block.
  const Cycle access =
      static_cast<Cycle>(p_.cache_access) *
      static_cast<Cycle>(std::max<std::size_t>(1, dir->merged_addrs.size()));
  cc_schedule(access, [this, here, dir = std::move(dir)] {
    if (dir->merged_addrs.empty()) {
      cc_invalidate_block(dir->addr);
    } else {
      for (const BlockAddr a : dir->merged_addrs) cc_invalidate_block(a);
    }
    switch (dir->roles().at(here)) {
      case SharerRole::UnicastAck:
        send_coh(MsgType::InvalAck, dir->addr, dir->home(), dir->requester,
                 dir->txn, 0);
        break;
      case SharerRole::PostLocal:
        machine_.network().post_iack(here, dir->txn, 1);
        break;
      case SharerRole::LaunchGather:
        oc_send(core::build_gather_worm(dir->gather_for(here), dir->txn));
        break;
    }
  });
}

void Node::cc_invalidate_block(BlockAddr a) {
  if (const auto* op = find_op(a);
      op && !op->is_write && cache_.lookup(a) == LineState::Invalid) {
    // Our ReadReply may be in flight behind this invalidation: the read
    // still completes, but the incoming line must be dropped.
    pending_inval_.insert(a);
  }
  cache_.invalidate(a);  // acks are sent even for evicted copies
}

void Node::cc_reply(const CohMsg& m) {
  switch (m.type) {
    case MsgType::ReadReply: {
      install_line(m.addr, LineState::Shared, m.value);
      if (pending_inval_.erase(m.addr) > 0) cache_.invalidate(m.addr);
      assert([&] {
        const auto* op = find_op(m.addr);
        return op != nullptr && !op->is_write;
      }());
      complete_op(m.addr, m.value);
      break;
    }
    case MsgType::WriteReply: {
      const auto* op = find_op(m.addr);
      assert(op != nullptr && op->is_write);
      const std::uint64_t wv = op->wvalue;
      install_line(m.addr, LineState::Modified, wv);
      complete_op(m.addr, wv);
      // Service a recall that overtook this grant.
      if (auto it = pending_recall_.find(m.addr); it != pending_recall_.end()) {
        const bool downgrade_only = it->second;
        pending_recall_.erase(it);
        cc_recall(m.addr, downgrade_only);
      }
      break;
    }
    case MsgType::Recall:
      cc_recall(m.addr, /*downgrade_only=*/false);
      break;
    case MsgType::RecallShare:
      cc_recall(m.addr, /*downgrade_only=*/true);
      break;
    case MsgType::WritebackAck:
      wb_pending_.erase(m.addr);
      break;
    default:
      assert(false && "not a CC message");
  }
}

void Node::cc_recall(BlockAddr a, bool downgrade_only) {
  if (wb_pending_.count(a)) return;  // the in-flight Writeback answers it
  if (cache_.lookup(a) != LineState::Modified) {
    if (const auto* op = find_op(a); op && op->is_write) {
      // Early recall: it overtook the WriteReply that makes us the owner.
      pending_recall_[a] = downgrade_only;
      return;
    }
    // Stale recall (reply/request networks may reorder WritebackAck vs
    // Recall); the home has already been satisfied by the Writeback.
    return;
  }
  const std::uint64_t v =
      downgrade_only ? cache_.downgrade(a)
                     : (cache_.invalidate(a), cache_.value_of(a));
  send_coh(MsgType::RecallData, a, machine_.home_of(a), id_, 0, v);
}

void Node::install_line(BlockAddr a, LineState st, std::uint64_t value) {
  const auto ev = cache_.install(a, st, value);
  if (ev.valid && ev.dirty) {
    wb_pending_.insert(ev.addr);
    send_coh(MsgType::Writeback, ev.addr, machine_.home_of(ev.addr), id_, 0,
             ev.value);
  }
  // Clean (Shared) victims are dropped silently; the home's presence bit
  // goes stale, which is safe: invalidations of absent lines are acked.
}

} // namespace mdw::dsm

#include "noc/router.h"

#include <bit>
#include <cassert>

#include "noc/network.h"

namespace mdw::noc {

Router::Router(Network& net, RouterArena& arena, NodeId id, const NocParams& p)
    : net_(net), arena_(&arena), params_(&p), id_(id),
      vhot_(arena.vc_hot(id)), vflit_(arena.vc_flits(id)),
      chot_(arena.cons_hot(id)), cflit_(arena.cons_flits(id)),
      words_(&arena.words(id)), vowner_(arena.vc_owner(id)),
      cowner_(arena.cons_owner(id)), vmax_(arena.vmax()),
      vc_cap_(p.vc_buffer_flits), cons_cap_(p.cons_buffer_flits),
      cons_n_(p.consumption_channels),
      vc_field_mask_((std::uint64_t{1} << vmax_) - 1),
      work_driven_(!net.full_sweep()),
      bank_(p.iack_entries) {
  for (int port = 0; port < kNumPorts; ++port) {
    assert(num_vcs(port) <= vmax_ && "arena slot stride covers every port");
  }
}

std::pair<int, int> Router::vc_range(int port, VNet vnet) const {
  const int per = port == static_cast<int>(Dir::Local)
                      ? params_->inj_vcs_per_vnet
                      : params_->vcs_per_vnet;
  const int first = static_cast<int>(vnet) * per;
  return {first, first + per};
}

int Router::find_free_cons_channel() const {
  for (int i = 0; i < cons_n_; ++i)
    if (!chot_[i].busy()) return i;
  return -1;
}

void Router::drain_consumption(Cycle now) {
  ++work_.drain_visits;
  if (words_->cons_flits == 0) return;
  for (int c = 0; c < cons_n_; ++c) {
    ConsHot& ch = chot_[c];
    RingView ring = cons_ring(c);
    if (ring.empty()) continue;
    if (ring.front().arrival() >= now) continue;
    const Flit f = ring.front();
    ring.pop_front();
    --words_->cons_flits;
    --words_->active_work;
    net_.on_cons_flit(id_, -1);
    net_.on_flit_removed();
    ++stats_.flits_consumed;
    if (f.tail()) {
      // Hand the channel's reference straight through to commit_delivery:
      // no refcount traffic per consumed worm.
      const bool fin = (ch.flags & kConsFinal) != 0;
      ch.flags = 0;
      net_.commit_delivery(id_, std::move(cowner_[c]), fin, now);
    }
  }
}

bool Router::try_allocate_head(int port, int s, VcHot& v, Cycle now) {
  (void)port;
  assert(v.ring.size > 0 && vc_ring(s).front().head() && !v.routed());
  assert(now >= v.ready_at && "allocate applies the pipeline gate");
  const WormPtr& w = vowner_[s];
  assert(w != nullptr);
  assert(w->path[w->head_hop] == id_);

  const NodeId adaptive_dst = w->dests.back().node;
  if (w->adaptive && w->head_hop + 2 >= w->path.size() &&
      id_ != adaptive_dst) {
    // Dynamic adaptive unicast: extend (or re-decide) the next hop, picking
    // the permitted direction whose downstream VCs have the most free space.
    if (w->head_hop + 2 == w->path.size()) w->path.pop_back();  // re-decide
    const auto dirs =
        permitted_dirs(w->adaptive_algo, net_.mesh(), id_, adaptive_dst);
    assert(!dirs.empty());
    int best_space = -1;
    NodeId best = kInvalidNode;
    for (Dir dir : dirs) {
      const OutLink& link = out_[static_cast<int>(dir)];
      auto [lo, hi] = vc_range(link.nbr_port, w->vnet);
      if (w->vc_class >= 0) {
        lo = lo + w->vc_class;
        hi = lo + 1;
      }
      const VcHot* nh = link.nbr_vhot;
      int space = 0;
      for (int cand = lo; cand < hi; ++cand) {
        if (nh[link.nbr_port * vmax_ + cand].free())
          space += params_->vc_buffer_flits;
      }
      if (space > best_space) {
        best_space = space;
        best = net_.mesh().neighbor(id_, dir);
      }
    }
    w->path.push_back(best);
  }

  const bool last_router = (w->head_hop + 1 == w->path.size());
  const bool is_dest =
      w->next_dest < w->dests.size() && w->dests[w->next_dest].node == id_;
  assert(is_dest || !last_router);

  const DestAction action =
      is_dest ? w->dests[w->next_dest].action : DestAction::Deliver;

  // Resource acquisition is all-or-nothing: probe first, then commit.
  int out_port = -1, out_vc = -1;
  if (!last_router) {
    const NodeId next = w->path[w->head_hop + 1];
    out_port = static_cast<int>(net_.mesh().step_dir(id_, next));
    const OutLink& link = out_[out_port];
    auto [lo, hi] = vc_range(link.nbr_port, w->vnet);
    if (w->vc_class >= 0) {
      assert(w->vc_class < params_->vcs_per_vnet);
      lo = lo + w->vc_class;
      hi = lo + 1;
    }
    const VcHot* nh = link.nbr_vhot;
    for (int cand = lo; cand < hi; ++cand) {
      if (nh[link.nbr_port * vmax_ + cand].free()) {
        out_vc = cand;
        break;
      }
    }
  }

  if (is_dest && action == DestAction::GatherDeposit) {
    // Final destination of a non-trunk gather: the worm sinks into this
    // router's i-ack bank and its count is posted there (via the NI retry
    // queue, so a momentarily full bank cannot deadlock the channel).
    assert(w->kind == WormKind::Gather && last_router);
    w->next_dest += 1;
    v.flags |= kVcRouted | kVcDrainToBank | kVcDepositAtTail;
    return true;
  }

  if (is_dest && action == DestAction::GatherPickup) {
    assert(w->kind == WormKind::Gather && !last_router);
    // Completed entry -> pick up and move on (needs the output VC).
    // Incomplete -> park in the bank (virtual cut-through, no output needed).
    bool blocked = false;
    if (out_vc < 0) {
      // Cannot tell yet whether the pickup completes; to keep the decision
      // simple (and conservative) we require the output VC before touching
      // the bank, matching a hardware pipeline that allocates the VC first.
      // Exception: if the entry is certainly incomplete we may park now.
      auto parked = bank_.pickup(w->txn, w->dests[w->next_dest].expected_posts,
                                 w, &blocked);
      if (blocked) {
        ++stats_.bank_blocked_cycles;
        ++stats_.alloc_stall_cycles;
        return false;
      }
      if (parked.has_value()) {
        // Entry was already complete but we lack an output VC: we consumed
        // the count, carry it and wait for the VC next cycle.
        w->gathered += *parked;
        w->next_dest += 1;
        // Re-mark as a plain forward from here on (no dest at this router).
        ++stats_.alloc_stall_cycles;
        net_.count_link_stall(id_, static_cast<Dir>(out_port));
        if (net_.tracer()) {
          net_.trace_bank_occupancy(id_, bank_.entries_in_use(), now);
        }
        return false;
      }
      // Parked: worm drains into the bank.
      w->next_dest += 1;
      v.flags |= kVcRouted | kVcDrainToBank;
      net_.on_gather_deferred();
      if (net_.tracer()) {
        net_.trace_bank_occupancy(id_, bank_.entries_in_use(), now);
      }
      return true;
    }
    auto parked = bank_.pickup(w->txn, w->dests[w->next_dest].expected_posts,
                               w, &blocked);
    if (blocked) {
      ++stats_.bank_blocked_cycles;
      ++stats_.alloc_stall_cycles;
      return false;
    }
    w->next_dest += 1;
    v.flags |= kVcRouted;
    if (net_.tracer()) {
      net_.trace_bank_occupancy(id_, bank_.entries_in_use(), now);
    }
    if (parked.has_value()) {
      w->gathered += *parked;
      v.out_port = static_cast<std::int8_t>(out_port);
      v.out_vc = static_cast<std::int8_t>(out_vc);
      const OutLink& link = out_[out_port];
      const int ds = link.nbr_port * vmax_ + out_vc;
      arena_->vc_owner(link.nbr)[ds] = w;
      link.nbr_vhot[ds].claimed = 1;
    } else {
      v.flags |= kVcDrainToBank;
      net_.on_gather_deferred();
    }
    return true;
  }

  // Non-gather processing.
  const bool needs_cons =
      is_dest && (action == DestAction::Deliver ||
                  action == DestAction::DeliverAndReserve);
  const bool needs_reserve =
      is_dest && (action == DestAction::DeliverAndReserve ||
                  action == DestAction::ReserveOnly);
  assert(!(action == DestAction::ReserveOnly && last_router));

  int cons_ch = -1;
  if (needs_cons) {
    cons_ch = find_free_cons_channel();
    if (cons_ch < 0) {
      ++stats_.cons_blocked_cycles;
      ++stats_.alloc_stall_cycles;
      return false;
    }
  }
  if (!last_router && out_vc < 0) {
    ++stats_.alloc_stall_cycles;
    net_.count_link_stall(id_, static_cast<Dir>(out_port));
    // Park the head when the output VC is all it lacks: until a tail leaves
    // the downstream port every retry fails right here.  Not an adaptive
    // unicast (it re-picks its hop each attempt), nor a head that also
    // needs a consumption channel (its next failure may be cons_blocked).
    if (work_driven_ && !needs_cons && !w->adaptive) {
      parked_heads_ |= std::uint64_t{1} << s;
      v.out_port = static_cast<std::int8_t>(out_port);
      ++work_.head_parks;
    }
    return false;
  }
  if (needs_reserve &&
      !bank_.reserve(w->txn, w->dests[w->next_dest].expected_posts)) {
    ++stats_.bank_blocked_cycles;
    ++stats_.alloc_stall_cycles;
    return false;
  }
  if (needs_reserve && net_.tracer()) {
    net_.trace_bank_occupancy(id_, bank_.entries_in_use(), now);
  }

  // Commit.
  v.flags |= kVcRouted;
  if (last_router) v.flags |= kVcFinalHere;
  if (needs_cons) {
    v.flags |= kVcDeliverHere;
    v.cons_ch = static_cast<std::int8_t>(cons_ch);
    cowner_[cons_ch] = w;
    chot_[cons_ch].flags =
        static_cast<std::uint8_t>(kConsBusy | (last_router ? kConsFinal : 0));
  }
  if (!last_router) {
    v.out_port = static_cast<std::int8_t>(out_port);
    v.out_vc = static_cast<std::int8_t>(out_vc);
    const OutLink& link = out_[out_port];
    const int ds = link.nbr_port * vmax_ + out_vc;
    arena_->vc_owner(link.nbr)[ds] = w;
    link.nbr_vhot[ds].claimed = 1;
  }
  if (is_dest) w->next_dest += 1;
  return true;
}

void Router::note_head_arrival(int port, int v) {
  const std::uint64_t bit = std::uint64_t{1} << slot(port, v);
  if ((words_->pending & bit) == 0) {
    words_->pending |= bit;
    net_.on_pending_head(id_, 1);
  }
}

void Router::wake_heads_on(int port) {
  Router& up = *out_[port].nbr_router;
  const int dir = static_cast<int>(opposite(static_cast<Dir>(port)));
  for (std::uint64_t b = up.parked_heads_; b != 0; b &= b - 1) {
    const int s = std::countr_zero(b);
    if (up.vhot_[s].out_port == dir) {
      up.parked_heads_ &= ~(std::uint64_t{1} << s);
    }
  }
}

void Router::allocate(Cycle now) {
  ++work_.alloc_visits;
  // A parked head's retry would fail on its output VC again (no VC at the
  // downstream port frees before a tail leaves it, which wakes the head):
  // count exactly what that failure counted, in place of the retry.  These
  // counters commute, so counting them ahead of the scan is exact.
  for (std::uint64_t b = parked_heads_; b != 0; b &= b - 1) {
    ++stats_.alloc_stall_cycles;
    net_.count_link_stall(
        id_, static_cast<Dir>(vhot_[std::countr_zero(b)].out_port));
  }
  // Ascending bit scan of the pending word, port-major: exactly the VCs the
  // exhaustive (port-major, then VC-index) scan would have tried, in the
  // same order (the bit layout mirrors the old sorted (port << 8) | vc list).
  // Bits are only cleared by this loop (on success), never set mid-phase, so
  // the snapshot stays exact.  The snapshot also walks out from under the
  // ports loop the moment its remaining bits run out — the common cases
  // (no pending heads, or one on an early port) cost a word test, matching
  // the old empty-vector early-out.
  std::uint64_t snap = words_->pending & ~parked_heads_;
  for (int port = 0; snap != 0; ++port, snap >>= vmax_) {
    std::uint64_t sub = snap & vc_field_mask_;
    while (sub != 0) {
      const int vi = std::countr_zero(sub);
      sub &= sub - 1;
      const int s = slot(port, vi);
      VcHot& v = vhot_[s];
      assert(!v.routed() && v.ring.size > 0 && vc_ring(s).front().head());
      if (vc_ring(s).front().arrival() >= now) continue;
      if (now < v.ready_at) continue;  // router pipeline delay
      ++work_.alloc_attempts;
      if (try_allocate_head(port, s, v, now)) {
        ++work_.grants;
        words_->routed |= std::uint64_t{1} << s;
        words_->ports_mask |= static_cast<std::uint8_t>(1u << port);
        words_->pending &= ~(std::uint64_t{1} << s);
        net_.on_pending_head(id_, -1);
      }
      // else: blocked on a resource, retry next cycle (the pending bit
      // stays set).
    }
  }
}

bool Router::try_move_flit(int port, int vidx, VcHot& v, Cycle now) {
  // Feasibility checks and the move itself in one pass, so the flit, output
  // link, and downstream VC are each loaded once (a separate can_move
  // predicate re-read all of them on the move).
  assert(v.routed());
  const int s = slot(port, vidx);
  RingView ring = vc_ring(s);
  if (ring.empty()) return false;
  if (ring.front().arrival() >= now) return false;
  const Flit f = ring.front();

  if ((v.flags & kVcDrainToBank) != 0) {
    ring.pop_front();
    net_.on_flit_removed();
    --words_->active_work;
    if (f.tail() && (v.flags & kVcDepositAtTail) != 0) {
      net_.on_gather_deposit(id_, vowner_[s]);
    }
  } else if ((v.flags & kVcFinalHere) != 0) {
    RingView cring = cons_ring(v.cons_ch);
    if (cring.full()) return false;
    ring.pop_front();
    cring.push_back(Flit{f.head(), f.tail(), now});
    ++words_->cons_flits;
    net_.on_cons_flit(id_, 1);
    // flit stays resident (moved within this router): no live-flit change
  } else {
    Cycle& used = words_->link_used[v.out_port];
    if (used == now) return false;  // link bandwidth: 1 flit/cycle
    const OutLink& link = out_[v.out_port];
    const int ds = link.nbr_port * vmax_ + v.out_vc;
    VcHot& dvc = link.nbr_vhot[ds];
    RingView dring(link.nbr_vflit + ds * vc_cap_, &dvc.ring, vc_cap_);
    if (dring.full()) {
      // Park: nothing but a pop at the downstream VC can let this VC move,
      // and the failed attempt has no side effects to replay.
      if (work_driven_) {
        parked_vcs_ |= std::uint64_t{1} << s;
        dvc.waiter = static_cast<std::uint8_t>(s + 1);
        ++work_.vc_parks;
      }
      return false;
    }
    if ((v.flags & kVcDeliverHere) != 0 && cons_ring(v.cons_ch).full())
      return false;
    used = now;
    ring.pop_front();
    dring.push_back(Flit{f.head(), f.tail(), now});
    --words_->active_work;
    // A router holding flits is already marked for phase 4.
    if (link.nbr_words->active_work++ == 0) net_.on_flit_arrival(link.nbr);
    if (f.head()) {
      vowner_[s]->head_hop += 1;
      dvc.ready_at = now + params_->router_delay;
      // note_head_arrival inlined against the cached neighbour words (ds is
      // already the neighbour's slot index).
      const std::uint64_t bit = std::uint64_t{1} << ds;
      if ((link.nbr_words->pending & bit) == 0) {
        link.nbr_words->pending |= bit;
        net_.on_pending_head(link.nbr, 1);
      }
    }
    ++stats_.flits_forwarded;
    net_.count_link_flit(id_, static_cast<Dir>(static_cast<int>(v.out_port)));
    if ((v.flags & kVcDeliverHere) != 0) {
      RingView cring = cons_ring(v.cons_ch);
      cring.push_back(Flit{f.head(), f.tail(), now});
      ++words_->cons_flits;
      ++words_->active_work;
      net_.on_cons_flit(id_, 1);
      net_.on_flit_copied();
      if (f.tail()) net_.on_absorb_delivery();
    }
  }

  if (v.waiter != 0) {  // a slot freed: wake the upstream VC parked on it
    out_[port].nbr_router->parked_vcs_ &=
        ~(std::uint64_t{1} << (v.waiter - 1));
    v.waiter = 0;
  }
  if (f.tail()) {
    // Worm tail has left this VC: release it.
    if (port != static_cast<int>(Dir::Local)) wake_heads_on(port);
    vowner_[s] = nullptr;
    v.flags = 0;
    v.claimed = 0;
    v.out_port = v.out_vc = v.cons_ch = -1;
    words_->routed &= ~(std::uint64_t{1} << s);
    if (((words_->routed >> (port * vmax_)) & vc_field_mask_) == 0) {
      words_->ports_mask &= static_cast<std::uint8_t>(~(1u << port));
    }
  }
  return true;
}

void Router::traverse(Cycle now) {
  ++work_.traverse_visits;
  NodeWords& w = *words_;
  if (w.active_work == 0) return;
  if ((w.routed & ~parked_vcs_) == 0) {  // nothing routed can move: no-op
    w.rr_port = w.rr_port + 1 == kNumPorts ? 0 : w.rr_port + 1;
    return;
  }
  // Iterate only the ports holding a routed worm, rotated by the round-robin
  // pointer — the same (rr_port + pi) mod kNumPorts visit order as a full
  // port scan, with the (typically three or four) idle ports skipped.
  const int pr = w.rr_port;
  const std::uint32_t pmask = w.ports_mask;
  std::uint32_t prot =
      pr == 0 ? pmask
              : ((pmask >> pr) | (pmask << (kNumPorts - pr))) &
                    ((1u << kNumPorts) - 1);
  while (prot != 0) {
    const int poff = std::countr_zero(prot);
    prot &= prot - 1;
    int port = pr + poff;
    if (port >= kNumPorts) port -= kNumPorts;
    // Parked VCs would fail without side effects: leave them out.
    const auto mask = static_cast<std::uint32_t>(
        ((w.routed & ~parked_vcs_) >> (port * vmax_)) & vc_field_mask_);
    if (mask == 0) continue;  // tail left during this sweep, or all parked
    const int nv = num_vcs(port);
    const int base = w.rr_vc[port];
    // Only routed VCs can move a flit; visiting their mask bits rotated by
    // the round-robin pointer preserves the exact arbitration order of the
    // exhaustive VC scan while skipping the (common) empty VCs entirely.
    std::uint32_t rot =
        base == 0 ? mask
                  : ((mask >> base) | (mask << (nv - base))) & ((1u << nv) - 1);
    while (rot != 0) {
      const int off = std::countr_zero(rot);
      int vidx = base + off;
      if (vidx >= nv) vidx -= nv;
      VcHot& v = vhot_[slot(port, vidx)];
      ++work_.move_attempts;
      if (try_move_flit(port, vidx, v, now)) {
        ++work_.moves;
        w.rr_vc[port] = static_cast<std::uint8_t>(vidx + 1 == nv ? 0 : vidx + 1);
        break;  // one flit per input port per cycle
      }
      rot &= rot - 1;
    }
  }
  w.rr_port = w.rr_port + 1 == kNumPorts ? 0 : w.rr_port + 1;
}

} // namespace mdw::noc

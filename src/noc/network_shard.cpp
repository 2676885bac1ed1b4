// Sharded parallel cycle kernel (DESIGN.md sections 14 and 16).
//
// The mesh is partitioned into row strips (noc/shard_plan.h); each strip is
// ticked by one thread of a persistent sim::ShardPool.  The kernel is
// bit-identical to the sequential tick in network.cpp and runs exactly TWO
// sim::ShardBarrier rounds per tick:
//
//   * Phases 1-3 (posts/drain, injection, allocation) touch only the
//     executing shard's routers and NIs, so the three sweeps run back to
//     back with no barrier between them — each gated on the shard's OWN
//     work counters (ShardCtx::work_*), which are single-writer (the owner's
//     executor during a tick, the main thread between ticks; the one
//     cross-shard source, traverse-time head arrivals, detours through
//     per-executor transfer arrays folded at barrier B).  Skipping a sweep
//     whose strip holds no such work is exactly the sequential kernel's
//     no-op pass over those routers.  Global counters accumulate in
//     per-shard deltas; consumption-channel deliveries park in per-shard
//     mailboxes.  Both are folded/committed in barrier A's serial section —
//     deliveries merged across shards in global key order (optionally after
//     a parallel per-strip handler pass, see finish_deliveries).
//   * Phase 4 (switch traversal) is the only phase with cross-router
//     effects: a step writes its own router and its link neighbours, so two
//     steps interact iff their routers are within Manhattan distance 2.
//     Cells are executed along diagonal fronts f = x + 2y, a linear
//     extension of that dependency DAG restricted to ascending-id order;
//     each shard walks its fronts in order, waiting — via a per-shard
//     published front counter — for the strip(s) above it to be one front
//     ahead.  The rotating start splits the sweep into two stages (ids >=
//     start, then ids < start, matching key order); instead of a full
//     barrier between them, a shard entering the late stage performs a
//     targeted seam_wait: only cells within distance 2 of the seam row can
//     couple the stages, so it suffices to wait for the full early-stage
//     completion of the (at most three) strips owning rows start/W .. +2.
//     Early stages never wait on late stages and always publish full
//     completion, so the wait cannot deadlock.
//   * Phase 5 (deschedule) edits only own-strip routers; bitmap words can
//     straddle strips, so bit clears (and all sharded-tick word accesses)
//     go through std::atomic_ref.
//
// Barrier B's serial section also folds the per-shard quiescence
// fast-forward eligibility (decide_fast_forward): when no shard acted or
// blocked and every gate is in the future, the tick arms a window and
// tick_sharded reports the network idle, exactly like the sequential
// kernel's ff_epilogue.
#include <algorithm>
#include <bit>
#include <cassert>
#include <string>
#include <thread>
#include <utility>

#include "noc/network.h"

namespace mdw::noc {

bool Network::tick_sharded(Cycle now) {
  const int n = mesh_.num_nodes();
  tick_start_ = rotate_;
  rotate_ = (rotate_ + 1) % n;
  tick_now_ = now;
  ff_idle_tick_ = false;  // set in barrier B's serial section when armed
  const std::uint64_t waits0 =
      shard_ctx_[0].barrier_spins + shard_ctx_[0].order_spins;
  sharded_active_ = true;
  pool_->run();  // runs shard_main(s) on every shard; this thread is shard 0
  sharded_active_ = false;
  if (barrier_wait_hist_ != nullptr) {
    barrier_wait_hist_->add(static_cast<double>(
        shard_ctx_[0].barrier_spins + shard_ctx_[0].order_spins - waits0));
  }
  return !ff_idle_tick_;
}

void Network::shard_main(int s) {
  ShardCtx& ctx = shard_ctx_[static_cast<std::size_t>(s)];
  tls_shard_ = &ctx;
  const Cycle now = tick_now_;
  const int start = tick_start_;
  ctx.ff_acted = false;
  ctx.ff_blocked = false;
  ctx.ff_next = kNoGate;

  // Fused phases 1-3, no barriers: each phase touches only own-strip state,
  // and the gates are this strip's own work counters, updated in place by
  // the very sweeps they gate (a phase sees work created by an earlier phase
  // this tick — e.g. a reinjection from a completed i-ack post — exactly
  // like the sequential kernel's phase-start gate reads).
  if (ctx.work_posts != 0 || ctx.work_cons != 0) {
    sweep_own(s, start, [&](NodeId id) {
      if (!ifaces_[id].pending_posts.empty()) try_pending_posts(id);
      routers_[id].drain_consumption(now);
    });
  }
  if (ctx.work_qworms != 0) {
    sweep_own(s, start, [&](NodeId id) { service_injection(id, now); });
  }
  if (ctx.work_heads != 0) {
    sweep_own(s, start, [&](NodeId id) { routers_[id].allocate(now); });
  }
  if (parallel_replay_) replay_own_deliveries(now);

  // Barrier A: every shard's phase 1-3 writes are visible; fold the counter
  // deltas and commit the delivery mailboxes in canonical order.
  ctx.barrier_spins += barrier_->arrive_and_wait([&] {
    fold_shard_deltas();
    finish_deliveries(now);
    // Drop the worm references the fused block parked (see
    // ShardCtx::deferred_free): serial, so the non-atomic refcounts are
    // safe (frees reaching the pool from a non-owner thread take its
    // side list, as with the mailbox drops below in finish_deliveries).
    for (ShardCtx& c : shard_ctx_) c.deferred_free.clear();
  });

  // Phase 4: traversal along diagonal fronts, earlier-key stage first.
  // When start == 0 the late stage owns no ids anywhere; every shard skips
  // it (start is shared state, so the branch is uniform).
  shard_traverse_stage(s, /*early=*/true, start, now, progress_early_.get());
  if (start != 0) {
    seam_wait(s, start);
    shard_traverse_stage(s, /*early=*/false, start, now, progress_late_.get());
  }

  // Barrier B: fold traverse deltas, repatriate cross-shard head arrivals,
  // and decide quiescence fast-forward for the whole tick.
  ctx.barrier_spins += barrier_->arrive_and_wait([&] {
    fold_shard_deltas();
    fold_head_transfers();
    decide_fast_forward(now);
  });

  // Phase 5: reset front progress for the next tick (made visible through
  // the pool's done/generation release-acquire chain) and deschedule own
  // drained routers — same candidate set the sequential kernel checks.
  progress_early_[static_cast<std::size_t>(s)].v.store(
      -1, std::memory_order_relaxed);
  progress_late_[static_cast<std::size_t>(s)].v.store(
      -1, std::memory_order_relaxed);
  for (const NodeId id : ctx.idle_checks) {
    NodeWords& w = arena_.words(id);
    if (w.scheduled && !node_has_work(id)) {
      w.scheduled = false;
      const std::atomic_ref<std::uint64_t> word(
          sched_words_[static_cast<std::size_t>(id) >> 6]);
      word.fetch_and(~(1ull << (id & 63)), std::memory_order_relaxed);
    }
  }
  ctx.idle_checks.clear();
  ++ctx.ticks;
}

template <class F>
void Network::sweep_own(int s, int start, F&& f) {
  // Own ids in global (id - start) mod n key order: the ids >= start run
  // (ascending) before the ids < start — a strip is at most two contiguous
  // runs in that order.
  const ShardPlan::Range& rg = plan_.ranges[static_cast<std::size_t>(s)];
  if (full_sweep_) {
    for (int id = std::max(rg.lo, start); id < rg.hi; ++id)
      f(static_cast<NodeId>(id));
    const int e = std::min(rg.hi, start);
    for (int id = rg.lo; id < e; ++id) f(static_cast<NodeId>(id));
    return;
  }
  const int a = std::max(rg.lo, start);
  if (a < rg.hi) shard_scan_range(a, rg.hi, f);
  const int b = std::min(rg.hi, start);
  if (rg.lo < b) shard_scan_range(rg.lo, b, f);
}

template <class F>
void Network::shard_scan_range(int lo, int hi, F&& f) {
  // for_each_set over the non-wrapping id range [lo, hi), with atomic
  // word reads: bitmap words can straddle strip boundaries, and other
  // shards set their own bits concurrently (never bits inside this range —
  // phases 1-3 only wake the id being processed).  The word is re-read
  // after every callback, preserving the sequential kernel's mid-phase
  // splice semantics for self-wakes.
  const int w0 = lo >> 6;
  const int w1 = (hi - 1) >> 6;
  for (int wi = w0; wi <= w1; ++wi) {
    std::uint64_t mask = ~0ull;
    if (wi == w0) mask &= ~0ull << (lo & 63);
    if (wi == w1 && (hi & 63) != 0) mask &= ~0ull >> (64 - (hi & 63));
    while (mask != 0) {
      const std::atomic_ref<std::uint64_t> word(
          sched_words_[static_cast<std::size_t>(wi)]);
      const std::uint64_t bits = word.load(std::memory_order_relaxed) & mask;
      if (bits == 0) break;
      const int b = std::countr_zero(bits);
      mask = b == 63 ? 0 : mask & (~0ull << (b + 1));
      f(static_cast<NodeId>((wi << 6) + b));
    }
  }
}

void Network::shard_traverse_stage(int s, bool early, int start, Cycle now,
                                   PaddedAtomicInt* progress) {
  ShardCtx& ctx = shard_ctx_[static_cast<std::size_t>(s)];
  const ShardPlan::Range& rg = plan_.ranges[static_cast<std::size_t>(s)];
  const int W = plan_.width;
  const int maxf = (W - 1) + 2 * (plan_.height - 1);
  std::atomic<int>& mine = progress[s].v;
  // Own ids in this stage (contiguous: the stage split point `start` cuts a
  // strip into at most one in-stage run per stage).
  const int slo = early ? std::max(rg.lo, start) : rg.lo;
  const int shi = early ? rg.hi : std::min(rg.hi, start);
  if (slo >= shi) {
    // Nothing to execute: publish full completion for downstream waiters.
    mine.store(maxf, std::memory_order_release);
    return;
  }
  const int ylo = slo / W;
  const int yhi = (shi - 1) / W;
  // Cross-strip "before" dependencies exist only for cells in the strip's
  // top two rows, on rows y0-1 / y0-2 above — and only when those remote
  // cells are themselves in this stage (ids below rg.lo are in the early
  // stage iff start < rg.lo; they are always in the late stage, whose ids
  // run up to start > rg.lo whenever this strip has late-stage cells).
  int ndeps = 0;
  int deps[2];
  if (rg.y0 > 0 && (!early || start < rg.lo)) {
    deps[ndeps++] = plan_.shard_of[static_cast<std::size_t>((rg.y0 - 1) * W)];
    if (rg.y0 > 1) {
      const int d2 = plan_.shard_of[static_cast<std::size_t>((rg.y0 - 2) * W)];
      if (d2 != deps[0]) deps[ndeps++] = d2;
    }
  }
  const int wait_lo = 2 * rg.y0;          // fronts of rows y0 and y0+1
  const int wait_hi = 2 * rg.y0 + W + 1;
  const int kend = 2 * yhi + (W - 1);     // last front holding an own cell
  const std::uint64_t budget = sim::spin_budget(plan_.shards);
  for (int k = 2 * ylo; k <= kend; ++k) {
    if (ndeps != 0 && k >= wait_lo && k <= wait_hi) {
      // A cell at front k depends on remote cells at fronts k-1..k-4 only;
      // progress >= k-1 from the strip(s) above makes them all visible
      // (release store there, acquire load here).
      for (int d = 0; d < ndeps; ++d) {
        std::atomic<int>& theirs = progress[deps[d]].v;
        ctx.order_spins += sim::spin_wait(
            [&] { return theirs.load(std::memory_order_acquire) >= k - 1; },
            budget);
      }
    }
    const int y_min = std::max(ylo, k >= W ? (k - W + 2) / 2 : 0);
    const int y_max = std::min(yhi, k / 2);
    for (int y = y_min; y <= y_max; ++y) {
      const int x = k - 2 * y;
      const int id = y * W + x;
      if (id < slo || id >= shi) continue;  // seam row: other stage
      if (!full_sweep_ && !sched_bit_atomic(static_cast<NodeId>(id))) continue;
      routers_[static_cast<std::size_t>(id)].traverse(now);
      ++ctx.routers_traversed;
    }
    mine.store(k, std::memory_order_release);
  }
  // Strips below may wait on fronts past our last own cell.
  mine.store(maxf, std::memory_order_release);
}

void Network::seam_wait(int s, int start) {
  // Stage coupling exists only within Manhattan distance 2 of the rotation
  // seam: late-stage cells (ids < start) live in rows <= ys = start/W, and
  // early-stage cells (ids >= start) in rows >= ys, so an interacting pair
  // needs a late cell in rows [ys-2, ys] and an early cell in rows
  // [ys, ys+2].  The sequential order runs ALL early cells before any late
  // cell; waiting for the full early-stage completion of the strips owning
  // rows ys..ys+2 therefore covers every cross-stage true and anti
  // dependency.  Deadlock-free: early stages never wait on late stages, and
  // every shard publishes maxf at early-stage end unconditionally (even
  // with an empty stage range).
  const ShardPlan::Range& rg = plan_.ranges[static_cast<std::size_t>(s)];
  const int W = plan_.width;
  const int shi = std::min(rg.hi, start);
  if (rg.lo >= shi) return;  // no late-stage cells: nothing to order against
  const int ys = start / W;
  if ((shi - 1) / W < ys - 2) return;  // all late cells > distance 2 below
  ShardCtx& ctx = shard_ctx_[static_cast<std::size_t>(s)];
  const int maxf = (W - 1) + 2 * (plan_.height - 1);
  const int y_hi = std::min(ys + 2, plan_.height - 1);
  const std::uint64_t budget = sim::spin_budget(plan_.shards);
  for (int y = ys; y <= y_hi; ++y) {
    const int owner = plan_.shard_of[static_cast<std::size_t>(y * W)];
    if (owner == s) continue;  // own early stage already ran (program order)
    std::atomic<int>& theirs = progress_early_[owner].v;
    ctx.order_spins += sim::spin_wait(
        [&] { return theirs.load(std::memory_order_acquire) >= maxf; },
        budget);
  }
}

void Network::fold_shard_deltas() {
  // Serial section: fold every shard's counter delta into the canonical
  // counters (phase gates) and stats.  The counters end up exactly where a
  // sequential sweep would have left them — the deltas are sums of the same
  // increments.
  for (ShardCtx& c : shard_ctx_) {
    NetCounters& d = c.delta;
    cnt_.in_flight += d.in_flight;
    cnt_.live_flits += d.live_flits;
    cnt_.queued_worms += d.queued_worms;
    cnt_.pending_posts += d.pending_posts;
    cnt_.cons_flits_total += d.cons_flits_total;
    cnt_.pending_heads_total += d.pending_heads_total;
    stats_.link_flit_hops += static_cast<std::uint64_t>(d.link_flit_hops);
    stats_.gather_deferred += static_cast<std::uint64_t>(d.gather_deferred);
    stats_.gather_deposits += static_cast<std::uint64_t>(d.gather_deposits);
    stats_.absorb_deliveries +=
        static_cast<std::uint64_t>(d.absorb_deliveries);
    d = NetCounters{};
  }
  assert(cnt_.in_flight >= 0 && cnt_.live_flits >= 0 &&
         cnt_.queued_worms >= 0 && cnt_.pending_posts >= 0 &&
         cnt_.cons_flits_total >= 0 && cnt_.pending_heads_total >= 0);
}

void Network::fold_head_transfers() {
  // Serial section: repatriate heads created across strip boundaries during
  // traverse into their owners' gate counters.  heads_xfer is written only
  // by its own executor (mid-tick) and zeroed here, so it is single-writer
  // and race-free under the barrier's happens-before edges.
  for (ShardCtx& c : shard_ctx_) {
    for (std::size_t o = 0; o < c.heads_xfer.size(); ++o) {
      if (c.heads_xfer[o] != 0) {
        shard_ctx_[o].work_heads += c.heads_xfer[o];
        c.heads_xfer[o] = 0;
      }
    }
  }
}

void Network::decide_fast_forward(Cycle now) {
  // Barrier-B serial section: the sharded kernel's ff_epilogue.  The
  // per-shard marks cover the whole tick (phases 1-4 on every strip), so
  // folding them reproduces exactly the sequential kernel's eligibility
  // test.  ff_until_/ff_armed_at_ and the engine's wake request are plain
  // fields written here on a shard thread; the pool's done-chain publishes
  // them to the main thread before tick_sharded returns.
  if (!ff_on_) return;
  bool acted = false;
  bool blocked = false;
  Cycle next = kNoGate;
  for (const ShardCtx& c : shard_ctx_) {
    acted = acted || c.ff_acted;
    blocked = blocked || c.ff_blocked;
    if (c.ff_next < next) next = c.ff_next;
  }
  if (!acted && !blocked && next != kNoGate && next > now + 1) {
    arm_fast_forward(now, next);
    ff_idle_tick_ = true;  // tick_sharded reports idle: the run loop jumps
  }
}

void Network::replay_own_deliveries(Cycle now) {
  // Parallel half of the opt-in replay: every delivery parked in this
  // shard's mailbox targets an own-strip node (phases 1-3 drain only own
  // consumption channels), so running the handler here touches only
  // per-node state — plus engine scheduling, which is redirected into the
  // thread-local stage buffer and committed serially in finish_deliveries.
  // Order-sensitive global effects (latency samples, in-flight accounting)
  // stay in the serial half.
  ShardCtx& ctx = *tls_shard_;
  if (ctx.deliveries.empty()) return;
  sim::Engine::set_stage_buffer(&ctx.staged);
  for (DeliveryRec& rec : ctx.deliveries) {
    if (rec.final_dest) rec.worm->deliver_cycle = now;
    if (deliver_) deliver_(rec.where, rec.worm);
    ctx.staged_bounds.push_back(static_cast<std::uint32_t>(ctx.staged.size()));
  }
  sim::Engine::set_stage_buffer(nullptr);
}

void Network::finish_deliveries(Cycle now) {
  // Serial section: commit the parked deliveries in global key order.  Each
  // mailbox is already key-ordered (sweep_own order), and a router's
  // deliveries all sit in its owner's mailbox, so a k-way merge on the head
  // keys reproduces the sequential kernel's delivery sequence exactly —
  // including the relative order of one router's multiple consumption
  // channels, which stay consecutive within their shard's list.  With
  // parallel replay the handler already ran on the owning shard; here only
  // its order-sensitive effects are committed: the latency sample (Welford
  // accumulation is order-dependent), the delivery/in-flight counters, and
  // the staged engine events, flushed in merge order so the event queue's
  // sequence-number tie-breaking matches a sequential replay.
  const int n = mesh_.num_nodes();
  const int S = plan_.shards;
  for (ShardCtx& c : shard_ctx_) c.replay_cursor = 0;
  for (;;) {
    int best = -1;
    int best_key = n;
    for (int s = 0; s < S; ++s) {
      ShardCtx& c = shard_ctx_[static_cast<std::size_t>(s)];
      if (c.replay_cursor >= c.deliveries.size()) continue;
      int key = static_cast<int>(c.deliveries[c.replay_cursor].where) -
                tick_start_;
      if (key < 0) key += n;
      if (key < best_key) {
        best_key = key;
        best = s;
      }
    }
    if (best < 0) break;
    ShardCtx& c = shard_ctx_[static_cast<std::size_t>(best)];
    const std::size_t i = c.replay_cursor++;
    DeliveryRec& rec = c.deliveries[i];
    if (parallel_replay_) {
      if (rec.final_dest) {
        stats_.worm_latency.add(
            static_cast<double>(now - rec.worm->inject_cycle));
        ++stats_.worms_delivered;
        assert(cnt_.in_flight > 0);
        --cnt_.in_flight;
      }
      const std::uint32_t lo = i == 0 ? 0 : c.staged_bounds[i - 1];
      const std::uint32_t hi = c.staged_bounds[i];
      for (std::uint32_t k = lo; k < hi; ++k) {
        eng_.schedule_at(c.staged[k].when, std::move(c.staged[k].cb));
      }
    } else {
      commit_delivery(rec.where, rec.worm, rec.final_dest, now);
    }
    // Drop the mailbox reference here, inside the serial section: if it is
    // the last one the worm is recycled without racing another shard.
    rec.worm = nullptr;
  }
  for (ShardCtx& c : shard_ctx_) {
    c.deliveries.clear();
    c.staged.clear();
    c.staged_bounds.clear();
  }
}

void Network::rebalance_shards() {
  // Between ticks only: the main thread owns all shard state here.  Any
  // contiguous row partition is bit-identical (see shard_plan.h), so moving
  // the strip boundaries is purely a load-balancing decision.  The cost
  // model is deliberately simple and deterministic: a row costs its
  // accumulated link-heatmap traffic plus a fixed weight per currently
  // scheduled router (64, roughly a traverse sweep's cost relative to one
  // recorded hop) plus 1 so empty rows still spread evenly.
  if (plan_.shards <= 1) return;
  assert(!sharded_active_);
  const int W = plan_.width;
  const int H = plan_.height;
  std::vector<std::uint64_t> cost(static_cast<std::size_t>(H), 0);
  for (int y = 0; y < H; ++y) {
    std::uint64_t c = 1;
    for (int x = 0; x < W; ++x) {
      const NodeId id = y * W + x;
      for (int d = 0; d < kNumLinkDirs; ++d) {
        c += heatmap_.hops(id, d);
      }
      if (arena_.words(id).scheduled) c += 64;
    }
    cost[static_cast<std::size_t>(y)] = c;
  }
  plan_ = compute_shard_plan(mesh_, plan_.shards, cost);
  // The per-shard work gates are ownership-relative: recompute them from
  // ground truth under the new strip boundaries.
  for (ShardCtx& c : shard_ctx_) {
    c.work_posts = 0;
    c.work_cons = 0;
    c.work_qworms = 0;
    c.work_heads = 0;
  }
  for (NodeId id = 0; id < mesh_.num_nodes(); ++id) {
    ShardCtx& c = shard_ctx_[plan_.shard_of[static_cast<std::size_t>(id)]];
    const NodeWords& w = arena_.words(id);
    c.work_posts +=
        static_cast<std::int64_t>(ifaces_[id].pending_posts.size());
    c.work_qworms += ifaces_[id].inj_work;
    c.work_cons += w.cons_flits;
    c.work_heads += std::popcount(w.pending);
  }
}

void Network::publish_shard_metrics() {
  metrics_->counter("net.ff_cycles").set(ff_cycles_);
  metrics_->counter("net.ff_events").set(ff_events_);
  using Field = std::uint64_t TickWork::*;
  static constexpr std::pair<const char*, Field> kTickWork[] = {
      {"net.tick.drain_visits", &TickWork::drain_visits},
      {"net.tick.inject_visits", &TickWork::inject_visits},
      {"net.tick.alloc_visits", &TickWork::alloc_visits},
      {"net.tick.traverse_visits", &TickWork::traverse_visits},
      {"net.tick.alloc_attempts", &TickWork::alloc_attempts},
      {"net.tick.grants", &TickWork::grants},
      {"net.tick.move_attempts", &TickWork::move_attempts},
      {"net.tick.moves", &TickWork::moves},
      {"net.tick.head_parks", &TickWork::head_parks},
      {"net.tick.vc_parks", &TickWork::vc_parks},
  };
  for (const auto& [name, field] : kTickWork) {
    std::uint64_t sum = 0;
    for (const Router& r : routers_) sum += r.tick_work().*field;
    metrics_->counter(name).set(sum);
  }
  if (plan_.shards <= 1) return;
  for (int s = 0; s < plan_.shards; ++s) {
    const ShardCtx& c = shard_ctx_[static_cast<std::size_t>(s)];
    const std::string p = "shard." + std::to_string(s) + ".";
    metrics_->counter(p + "barrier_spins").set(c.barrier_spins);
    metrics_->counter(p + "order_spins").set(c.order_spins);
    metrics_->counter(p + "ticks").set(c.ticks);
    metrics_->counter(p + "routers_traversed").set(c.routers_traversed);
  }
}

} // namespace mdw::noc
